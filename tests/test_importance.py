import math

import numpy as np
import pytest

from ttasched.errors import InputError
from ttasched.importance import (
    KL_MODES,
    VARIANCE_FLOOR,
    Embedding,
    EmbeddingHistory,
    FeatureStats,
    adaptation_loss,
    assess,
    embed,
    layer_divergences,
    layer_importance,
    load_stats_lines,
    stats_to_lines,
    update_history,
)
from ttasched.presets import recovery_network
from ttasched.pipeline import (
    EnvironmentSpec,
    ModelResponseState,
    Shift,
    generate_batch,
)


def gauss(*pairs):
    values = []
    for mu, var in pairs:
        values.extend([mu, var])
    return Embedding(np.array(values, dtype=float))


class TestEmbed:
    def test_constant_channel_has_zero_variance(self):
        e = embed([[5.0, 5.0, 5.0]])
        assert e.values.tolist() == [5.0, 0.0]

    def test_population_variance(self):
        e = embed([[1.0, 3.0]])
        assert e.values.tolist() == [2.0, 1.0]

    def test_two_channels_interleave(self):
        e = embed([[0.0, 0.0], [1.0, -1.0]])
        assert e.values.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_empty_channel_rejected(self):
        with pytest.raises(InputError, match="no samples"):
            embed([[]])

    def test_nan_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            embed([[1.0, float("nan")]])

    def test_from_stats_matches_raw(self):
        stats = FeatureStats(
            means=np.array([2.0]), variances=np.array([1.0]), sample_count=2
        )
        assert embed(stats).values.tolist() == embed([[1.0, 3.0]]).values.tolist()


class TestEmbeddingValidation:
    def test_odd_length_rejected(self):
        with pytest.raises(InputError, match="even-length"):
            Embedding(np.array([1.0, 2.0, 3.0]))

    def test_negative_variance_slot_rejected(self):
        with pytest.raises(InputError, match="variance slots"):
            Embedding(np.array([0.0, -1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="finite"):
            Embedding(np.array([float("inf"), 1.0]))


class TestElementwiseMode:
    def test_positive_on_distinct_vectors(self):
        a = layer_importance(gauss((1.0, 1.0)), gauss((1.0, 3.0)), "elementwise")
        assert a > 0.0

    def test_shift_invariance_of_softmax_normalization(self):
        # adding one constant to both raw vectors leaves the softmax mix,
        # and therefore the divergence, unchanged
        h = gauss((1.0, 2.0), (-0.5, 0.3))
        e = gauss((0.2, 1.0), (1.5, 0.8))
        base = layer_importance(h, e, "elementwise")
        h2 = Embedding(h.values + 2.5)
        e2 = Embedding(e.values + 2.5)
        # mean slots may go anywhere; variance slots must stay non-negative,
        # which +2.5 preserves
        assert layer_importance(h2, e2, "elementwise") == pytest.approx(base, rel=1e-9)


class TestLayerImportance:
    def test_identical_embeddings_zero_both_modes(self):
        e = gauss((0.3, 1.7), (-2.0, 0.4))
        assert layer_importance(e, e, "gaussian") == 0.0
        assert layer_importance(e, e, "elementwise") == 0.0

    def test_unit_mean_shift(self):
        a = layer_importance(gauss((0.0, 1.0)), gauss((1.0, 1.0)))
        assert a == pytest.approx(0.5, abs=1e-5)

    def test_variance_inflation(self):
        a = layer_importance(gauss((0.0, 1.0)), gauss((0.0, 4.0)))
        assert a == pytest.approx(math.log(2.0) + 1.0 / 8.0 - 0.5, abs=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="mismatch"):
            layer_importance(gauss((0, 1)), gauss((0, 1), (0, 1)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            layer_importance(gauss((0, 1)), gauss((0, 1)), mode="wasserstein")

    def test_non_negativity_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            h = gauss(*[(rng.normal(0, 3), rng.uniform(0, 4)) for _ in range(k)])
            e = gauss(*[(rng.normal(0, 3), rng.uniform(0, 4)) for _ in range(k)])
            mode = "gaussian" if rng.random() < 0.5 else "elementwise"
            assert layer_importance(h, e, mode) >= 0.0

    def test_mean_approach_never_increases_divergence(self):
        # pulling the current means toward the history means, variances
        # fixed, shrinks the divergence monotonically
        h = gauss((1.0, 2.0), (-3.0, 0.5))
        e = gauss((4.0, 2.0), (2.0, 0.5))
        previous = layer_importance(h, e)
        for t in np.linspace(0.1, 1.0, 10):
            mixed_means = t * h.means + (1 - t) * e.means
            values = e.values.copy()
            values[0::2] = mixed_means
            current = layer_importance(h, Embedding(values))
            assert current < previous
            previous = current
        assert previous == 0.0


class TestIdentityOfIndiscernibles:
    def test_equal_within_tolerance_means_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            vals = np.empty(2 * k)
            vals[0::2] = rng.normal(0, 2, k)
            vals[1::2] = rng.uniform(0.1, 3, k)
            e = Embedding(vals)
            assert layer_importance(e, Embedding(vals.copy())) == 0.0

    def test_distinct_embeddings_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            vals = np.empty(2 * k)
            vals[0::2] = rng.normal(0, 2, k)
            vals[1::2] = rng.uniform(0.1, 3, k)
            bumped = vals.copy()
            bumped[int(rng.integers(0, 2 * k))] += 1e-6
            a = layer_importance(Embedding(vals), Embedding(bumped))
            assert a > 0.0

    def test_zero_score_implies_equal_coordinates(self):
        rng = np.random.default_rng(88)
        zeros_seen = 0
        for _ in range(2000):
            k = int(rng.integers(1, 6))
            vals = np.empty(2 * k)
            vals[0::2] = rng.normal(0, 2, k)
            vals[1::2] = rng.uniform(0.1, 3, k)
            if rng.random() < 0.5:
                other = vals.copy()
            else:
                other = vals + rng.normal(0, 0.1, 2 * k)
                other[1::2] = np.abs(other[1::2]) + 0.05
            a = layer_importance(Embedding(vals), Embedding(other))
            if a == 0.0:
                zeros_seen += 1
                assert np.max(np.abs(vals - other)) <= 1e-12
        assert zeros_seen > 0


class TestHistory:
    def test_alpha_one_adopts_current(self):
        h = EmbeddingHistory.seed([gauss((0.0, 1.0))], alpha=1.0)
        h2 = update_history(h, [gauss((3.0, 2.0))])
        assert h2.embeddings[0].values.tolist() == [3.0, 2.0]

    def test_alpha_zero_keeps_history(self):
        h = EmbeddingHistory.seed([gauss((0.0, 1.0))], alpha=0.0)
        h2 = update_history(h, [gauss((3.0, 2.0))])
        assert h2.embeddings[0].values.tolist() == [0.0, 1.0]

    def test_tenth_alpha_blend(self):
        h = EmbeddingHistory.seed([gauss((0.0, 1.0))], alpha=0.1)
        h2 = update_history(h, [gauss((10.0, 1.0))])
        assert h2.embeddings[0].means[0] == pytest.approx(1.0)
        assert h2.batches_seen == 2

    def test_shape_change_rejected(self):
        h = EmbeddingHistory.seed([gauss((0.0, 1.0))])
        with pytest.raises(InputError):
            update_history(h, [gauss((0.0, 1.0), (1.0, 1.0))])

    def test_containment_property(self):
        # every history coordinate stays within the range of everything it
        # has ever absorbed, including the seed
        rng = np.random.default_rng(9)
        seed_emb = gauss((0.0, 1.0), (2.0, 0.5))
        h = EmbeddingHistory.seed([seed_emb], alpha=0.3)
        lo = seed_emb.values.copy()
        hi = seed_emb.values.copy()
        for _ in range(100):
            vals = np.empty(4)
            vals[0::2] = rng.normal(0, 5, 2)
            vals[1::2] = rng.uniform(0, 6, 2)
            lo = np.minimum(lo, vals)
            hi = np.maximum(hi, vals)
            h = update_history(h, [Embedding(vals)])
            assert np.all(h.embeddings[0].values >= lo - 1e-12)
            assert np.all(h.embeddings[0].values <= hi + 1e-12)


class TestAdaptationLoss:
    def test_identical_layers_zero(self):
        es = [gauss((0.0, 1.0)), gauss((2.0, 3.0))]
        assert adaptation_loss(es, es) == 0.0

    def test_additive_over_layers(self):
        hs = [gauss((0.0, 1.0)), gauss((0.0, 1.0))]
        cs = [gauss((1.0, 1.0)), gauss((0.0, 4.0))]
        expected = layer_importance(hs[0], cs[0]) + layer_importance(hs[1], cs[1])
        assert adaptation_loss(hs, cs) == pytest.approx(expected)
        assert adaptation_loss(hs, cs) == pytest.approx(0.5 + 0.3181, abs=1e-3)

    def test_single_layer_degenerates_to_layer_importance(self):
        h, c = gauss((0.0, 1.0)), gauss((1.0, 1.0))
        assert adaptation_loss([h], [c]) == layer_importance(h, c)

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            adaptation_loss([gauss((0, 1))], [gauss((0, 1)), gauss((0, 1))])


def make_env(network, shifts=(), batch_size=8):
    return EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=tuple(max(1, l.out_elements // l.channels) for l in network.layers),
        base_means=tuple(np.zeros(l.channels) for l in network.layers),
        base_vars=tuple(np.ones(l.channels) for l in network.layers),
        shifts=shifts,
        batch_size=batch_size,
    )


class TestAssess:
    def test_zero_shift_scores_zero_exact(self):
        network = recovery_network(6)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(0)
        stats = generate_batch(env, model, 0, rng, exact=True)
        history = EmbeddingHistory.seed(stats)
        vector, _ = assess(network, history, stats)
        assert vector.total == 0.0

    def test_shifted_layers_rank_first(self):
        network = recovery_network(10)
        env = make_env(
            network, shifts=(Shift(batch_index=1, layers=(3, 7), mean_offset_sigmas=2.0),)
        )
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(1)
        history = EmbeddingHistory.seed(generate_batch(env, model, 0, rng))
        vector, _ = assess(network, history, generate_batch(env, model, 1, rng))
        order = np.argsort(vector.a[1:])[::-1] + 1
        top_forward = {10 - int(b) for b in order[:2]}
        assert top_forward == {3, 7}

    def test_param_free_layers_forced_zero(self):
        from ttasched.presets import synthetic_network

        network = synthetic_network(10)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(2)
        history = EmbeddingHistory.seed(generate_batch(env, model, 0, rng))
        vector, _ = assess(network, history, generate_batch(env, model, 1, rng))
        for layer in network.layers:
            if not layer.has_params:
                assert vector.a[network.backward_index(layer.id)] == 0.0

    def test_channel_permutation_invariance(self):
        network = recovery_network(2, channels=8)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(3)
        stats = generate_batch(env, model, 0, rng)
        shifted = generate_batch(env, model, 1, rng)
        history = EmbeddingHistory.seed(stats)
        base, _ = assess(network, history, shifted)

        perm = np.random.default_rng(4).permutation(8)
        permute = lambda st: FeatureStats(
            means=st.means[perm], variances=st.variances[perm],
            sample_count=st.sample_count,
        )
        history_p = EmbeddingHistory.seed([permute(s) for s in stats])
        permuted, _ = assess(network, history_p, [permute(s) for s in shifted])
        assert np.allclose(base.a, permuted.a)

    def test_missing_layer_stats_rejected(self):
        network = recovery_network(4)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(5)
        stats = generate_batch(env, model, 0, rng)
        history = EmbeddingHistory.seed(stats)
        with pytest.raises(InputError, match="layers"):
            assess(network, history, stats[:-1])


class TestStatsFiles:
    def test_round_trip(self):
        stats = [
            FeatureStats(
                means=np.array([1.0, 2.0]),
                variances=np.array([0.5, 0.25]),
                sample_count=16,
            ),
            FeatureStats(
                means=np.array([0.0]), variances=np.array([1.0]), sample_count=4
            ),
        ]
        again = load_stats_lines(stats_to_lines(stats))
        assert len(again) == 2
        assert again[0].means.tolist() == [1.0, 2.0]
        assert again[1].sample_count == 4

    def test_gap_in_layer_ids_rejected(self):
        text = '{"layer_id": 0, "means": [0], "vars": [1], "samples": 2}\n' \
               '{"layer_id": 2, "means": [0], "vars": [1], "samples": 2}\n'
        with pytest.raises(InputError, match="contiguous"):
            load_stats_lines(text)

    def test_malformed_line_names_line_number(self):
        with pytest.raises(InputError, match="line 1"):
            load_stats_lines('{"layer_id": 0, "means": [0]}\n')


# --- the per-layer loop the stacked kernel replaced, kept as its reference ---


def reference_gaussian_kl(h: np.ndarray, c: np.ndarray) -> float:
    sh2 = h[1::2] + VARIANCE_FLOOR
    se2 = c[1::2] + VARIANCE_FLOOR
    dmu = h[0::2] - c[0::2]
    terms = 0.5 * np.log(se2 / sh2) + (sh2 + dmu * dmu) / (2.0 * se2) - 0.5
    return float(np.sum(terms))


def reference_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / np.sum(e)


def reference_elementwise_kl(h: np.ndarray, c: np.ndarray) -> float:
    p = reference_softmax(h)
    q = reference_softmax(c)
    return float(np.sum(p * np.log(p / q)))


def reference_layer_importance(h: np.ndarray, c: np.ndarray, mode: str) -> float:
    if mode == "gaussian":
        value = reference_gaussian_kl(h, c)
    else:
        value = reference_elementwise_kl(h, c)
    return value if value > 0.0 else 0.0


def reference_adaptation_loss(hs, cs, mode: str) -> float:
    return sum(reference_layer_importance(h, c, mode) for h, c in zip(hs, cs))


def reference_update(hs, cs, alpha: float):
    return [alpha * c + (1.0 - alpha) * h for h, c in zip(hs, cs)]


def random_layers(rng, widths, scale=3.0):
    """Per-layer interleaved embedding vectors of the given widths."""
    out = []
    for w in widths:
        v = np.empty(2 * w)
        v[0::2] = rng.normal(0.0, scale, w)
        v[1::2] = rng.uniform(0.0, scale * scale, w)
        out.append(v)
    return out


WIDTH_CASES = {
    "uniform-8": (8,) * 24,
    "uniform-1": (1,) * 5,
    "uniform-129": (129,) * 3,
    "single-layer-9": (9,),
    "ragged": (1, 7, 8, 9, 129, 8, 7, 1, 9, 129, 8, 8),
    "ragged-wide": (7, 300, 16, 9, 300, 1, 1000),
}


class TestStackedKernelMatchesReference:
    @pytest.mark.parametrize("mode", KL_MODES)
    @pytest.mark.parametrize("case", sorted(WIDTH_CASES))
    def test_bit_identical_to_per_layer_loop(self, case, mode):
        widths = WIDTH_CASES[case]
        rng = np.random.default_rng(sum(widths) + len(mode))
        for trial in range(20):
            hs = random_layers(rng, widths)
            cs = random_layers(rng, widths)
            if trial == 0:
                cs = [h.copy() for h in hs]  # every divergence exactly 0
            history = Embedding(np.concatenate(hs), widths)
            current = Embedding(np.concatenate(cs), widths)

            got = layer_divergences(history, current, mode)
            want = [reference_layer_importance(h, c, mode) for h, c in zip(hs, cs)]
            assert got.tolist() == want

            loss = adaptation_loss(history, current, mode)
            assert loss == reference_adaptation_loss(hs, cs, mode)
            assert adaptation_loss(list(history), list(current), mode) == loss

            alpha = float(rng.uniform(0.0, 1.0))
            blended = update_history(EmbeddingHistory(history, alpha=alpha), current)
            for layer, want_values in zip(blended.embeddings, reference_update(hs, cs, alpha)):
                assert layer.values.tolist() == want_values.tolist()

            for layer in range(len(widths)):
                assert layer_importance(history[layer], current[layer], mode) == want[layer]

    @pytest.mark.parametrize("mode", KL_MODES)
    def test_assess_matches_per_layer_loop(self, mode):
        from ttasched.presets import resnet50_shaped

        network = resnet50_shaped()
        widths = tuple(layer.channels for layer in network.layers)
        rng = np.random.default_rng(17)
        hs = random_layers(rng, widths)
        cs = random_layers(rng, widths)
        current = FeatureStats(
            means=np.concatenate([c[0::2] for c in cs]),
            variances=np.concatenate([c[1::2] for c in cs]),
            sample_count=64,
            widths=widths,
        )
        vector, _ = assess(
            network, EmbeddingHistory(Embedding(np.concatenate(hs), widths)), current, mode
        )
        n = network.n_layers
        want = np.zeros(n + 1)
        for layer in network.layers:
            if layer.has_params:
                want[n - layer.id] = reference_layer_importance(
                    hs[layer.id], cs[layer.id], mode
                )
        assert vector.a.tolist() == want.tolist()
        assert vector.a[n - 1] == 0.0  # the parameter-free pooling layer


class TestStackedValidation:
    BAD = {
        "nan-mean": (0, float("nan")),
        "inf-mean": (0, float("inf")),
        "nan-variance": (1, float("nan")),
        "inf-variance": (1, float("inf")),
        "negative-variance": (1, -1e-9),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("layer", [0, 3, 5])
    def test_embedding_rejects_bad_slot_in_any_layer(self, bad, layer):
        widths = (1, 7, 8, 9, 129, 2)
        values = np.concatenate(random_layers(np.random.default_rng(1), widths))
        slot, value = self.BAD[bad]
        values[2 * sum(widths[:layer]) + 2 * (widths[layer] - 1) + slot] = value
        with pytest.raises(InputError, match="finite|non-negative"):
            Embedding(values, widths)

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_feature_stats_reject_bad_channel(self, bad):
        widths = (3, 9, 1)
        means = np.zeros(13)
        variances = np.ones(13)
        slot, value = self.BAD[bad]
        (means if slot == 0 else variances)[11] = value
        with pytest.raises(InputError, match="finite|non-negative"):
            FeatureStats(means, variances, sample_count=4, widths=widths)

    def test_per_layer_raw_samples_rejected_when_non_finite(self):
        h = EmbeddingHistory(Embedding(np.ones(10), (2, 3)))
        bad = [[[0.0, 1.0], [1.0, 2.0]], [[0.0], [float("nan")], [1.0]]]
        with pytest.raises(InputError, match="non-finite"):
            update_history(h, bad)
        with pytest.raises(InputError, match="non-finite"):
            adaptation_loss(h.embeddings, bad)

    def test_sampled_batch_with_overflowing_variance_rejected(self):
        network = recovery_network(3, channels=4)
        env = make_env(network)
        model = ModelResponseState(
            means=np.zeros(12), variances=np.full(12, 1e-320), widths=(4, 4, 4)
        )
        with np.errstate(over="ignore"), pytest.raises(InputError, match="finite"):
            generate_batch(env, model, 0, np.random.default_rng(0))

    def test_widths_must_cover_the_arrays(self):
        with pytest.raises(InputError, match="cover"):
            Embedding(np.ones(10), (2, 2))
        with pytest.raises(InputError, match="at least one channel"):
            FeatureStats(np.zeros(3), np.ones(3), 2, widths=(3, 0))
        with pytest.raises(InputError, match="sample counts"):
            FeatureStats(np.zeros(3), np.ones(3), (2, 2), widths=(3,))

    def test_kernel_rejects_other_layer_split(self):
        a = Embedding(np.ones(10), (2, 3))
        b = Embedding(np.ones(10), (3, 2))
        with pytest.raises(InputError, match="mismatch"):
            layer_divergences(a, b)
        with pytest.raises(InputError, match="shape changed"):
            update_history(EmbeddingHistory(a), b)


class TestChainObjects:
    def test_layers_index_slice_and_concat(self):
        widths = (2, 1, 3)
        stats = FeatureStats(
            np.arange(6.0), np.arange(6.0) + 1.0, sample_count=(4, 5, 6), widths=widths
        )
        assert len(stats) == 3 and stats.channels == 6
        assert stats[1].means.tolist() == [2.0] and stats[1].sample_count == 5
        assert stats[-1].variances.tolist() == [4.0, 5.0, 6.0]
        tail = stats[1:]
        assert tail.widths == (1, 3) and tail.sample_counts == (5, 6)
        again = FeatureStats.concat(list(stats))
        assert again.widths == widths and again.means.tolist() == stats.means.tolist()
        with pytest.raises(InputError, match="sample_counts"):
            stats.sample_count

        emb = Embedding.from_stats(stats)
        assert emb.widths == widths and len(emb) == 3
        assert emb[2].means.tolist() == [3.0, 4.0, 5.0]
        assert Embedding.concat(list(emb)).values.tolist() == emb.values.tolist()
        with pytest.raises(IndexError):
            emb[3]

    def test_history_seeds_from_stats_or_per_layer_list(self):
        stats = FeatureStats(np.zeros(5), np.ones(5), 8, widths=(2, 3))
        a = EmbeddingHistory.seed(stats)
        b = EmbeddingHistory.seed(list(stats))
        assert a.embeddings.widths == b.embeddings.widths == (2, 3)
        assert a.embeddings.values.tolist() == b.embeddings.values.tolist()
        assert a.storage_bytes(4) == 40

    def test_stats_file_loads_as_one_chain(self):
        text = (
            '{"layer_id": 1, "means": [1, 2, 3], "vars": [1, 1, 1], "samples": 3}\n'
            '{"layer_id": 0, "means": [0], "vars": [2], "samples": 2}\n'
        )
        stats = load_stats_lines(text)
        assert stats.widths == (1, 3) and stats.sample_counts == (2, 3)
        assert stats.means.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert load_stats_lines(stats_to_lines(stats)).means.tolist() == stats.means.tolist()

    @pytest.mark.parametrize(
        "field, value",
        [("samples", "x"), ("samples", 1e400), ("layer_id", "first"), ("means", ["a"])],
    )
    def test_non_numeric_stats_field_is_input_error(self, field, value):
        rec = {"layer_id": 0, "means": [0.0], "vars": [1.0], "samples": 2}
        rec[field] = value
        import json

        with pytest.raises(InputError, match=f"line 1: {field}"):
            load_stats_lines(json.dumps(rec) + "\n")
