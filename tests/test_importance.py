import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ttasched.errors import InputError
from ttasched.importance import (
    VARIANCE_FLOOR,
    Embedding,
    EmbeddingHistory,
    ImportanceVector,
    adaptation_loss,
    assess,
    layer_divergences,
    load_stats_lines,
    update_history,
)
from ttasched.presets import recovery_network
from ttasched.pipeline import (
    EnvironmentSpec,
    ModelResponseState,
    Shift,
    generate_batch,
)

from support import split_layers, stats_to_lines


def interleaved(values, widths=None):
    """The embedding of [mean, variance, mean, variance, ...] pairs."""
    values = np.asarray(values, dtype=float)
    return Embedding(values[0::2], values[1::2], widths)


def pairs(embedding):
    """An embedding's moments as [mean, variance, ...] pairs."""
    return np.column_stack((embedding.means, embedding.variances)).ravel()


def gauss(*moments, widths=None):
    return interleaved([x for pair in moments for x in pair], widths)


def score(history, current):
    """The divergence of a one-layer current embedding from its history."""
    return float(layer_divergences(history, current)[0])


class TestEmbed:
    def test_constructor_holds_contiguous_float_moments(self):
        # the samples [1, 3] have mean 2 and population variance 1
        e = Embedding([2], [1])
        assert e.means.tolist() == [2.0] and e.variances.tolist() == [1.0]
        assert e.widths == (1,) and e.n_layers == 1
        strided = Embedding(np.arange(6.0)[::2], np.ones(6)[::2])
        for values in (e.means, e.variances, strided.means, strided.variances):
            assert values.dtype == np.float64 and values.flags.c_contiguous


class TestEmbeddingValidation:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputError, match="1-D and equal length"):
            Embedding(np.ones(2), np.ones(3))
        with pytest.raises(InputError, match="1-D and equal length"):
            Embedding(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(InputError, match="at least one channel"):
            Embedding(np.ones(0), np.ones(0))

    def test_negative_variance_slot_rejected(self):
        with pytest.raises(InputError, match="variances must be non-negative"):
            Embedding(np.array([0.0]), np.array([-1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="finite"):
            Embedding(np.array([float("inf")]), np.array([1.0]))


class TestLayerImportance:
    def test_identical_embeddings_zero(self):
        e = gauss((0.3, 1.7), (-2.0, 0.4))
        assert score(e, e) == 0.0

    def test_unit_mean_shift(self):
        a = score(gauss((0.0, 1.0)), gauss((1.0, 1.0)))
        assert a == pytest.approx(0.5, abs=1e-5)

    def test_variance_inflation(self):
        a = score(gauss((0.0, 1.0)), gauss((0.0, 4.0)))
        assert a == pytest.approx(math.log(2.0) + 1.0 / 8.0 - 0.5, abs=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="layer 0: history has 1 channels, current has 2"):
            score(gauss((0, 1)), gauss((0, 1), (0, 1)))

    def test_non_negativity_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            h = gauss(*[(rng.normal(0, 3), rng.uniform(0, 4)) for _ in range(k)])
            e = gauss(*[(rng.normal(0, 3), rng.uniform(0, 4)) for _ in range(k)])
            assert score(h, e) >= 0.0

    def test_mean_approach_never_increases_divergence(self):
        # pulling the current means toward the history means, variances
        # fixed, shrinks the divergence monotonically
        h = gauss((1.0, 2.0), (-3.0, 0.5))
        e = gauss((4.0, 2.0), (2.0, 0.5))
        previous = score(h, e)
        for t in np.linspace(0.1, 1.0, 10):
            mixed_means = t * h.means + (1 - t) * e.means
            current = score(h, Embedding(mixed_means, e.variances))
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
            e = interleaved(vals)
            assert score(e, interleaved(vals.copy())) == 0.0

    def test_distinct_embeddings_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            vals = np.empty(2 * k)
            vals[0::2] = rng.normal(0, 2, k)
            vals[1::2] = rng.uniform(0.1, 3, k)
            bumped = vals.copy()
            bumped[int(rng.integers(0, 2 * k))] += 1e-6
            a = score(interleaved(vals), interleaved(bumped))
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
            a = score(interleaved(vals), interleaved(other))
            if a == 0.0:
                zeros_seen += 1
                assert np.max(np.abs(vals - other)) <= 1e-12
        assert zeros_seen > 0


class TestHistory:
    def test_alpha_one_adopts_current(self):
        h = EmbeddingHistory.seed(gauss((0.0, 1.0)), alpha=1.0)
        h2 = update_history(h, gauss((3.0, 2.0)))
        assert pairs(h2.embeddings).tolist() == [3.0, 2.0]

    def test_alpha_zero_keeps_history(self):
        h = EmbeddingHistory.seed(gauss((0.0, 1.0)), alpha=0.0)
        h2 = update_history(h, gauss((3.0, 2.0)))
        assert pairs(h2.embeddings).tolist() == [0.0, 1.0]

    def test_tenth_alpha_blend(self):
        h = EmbeddingHistory.seed(gauss((0.0, 1.0)), alpha=0.1)
        h2 = update_history(h, gauss((10.0, 1.0)))
        assert h2.embeddings.means[0] == pytest.approx(1.0)

    def test_shape_change_rejected(self):
        h = EmbeddingHistory.seed(gauss((0.0, 1.0)))
        with pytest.raises(InputError):
            update_history(h, gauss((0.0, 1.0), (1.0, 1.0)))

    def test_containment_property(self):
        # every history coordinate stays within the range of everything it
        # has ever absorbed, including the seed
        rng = np.random.default_rng(9)
        seed_emb = gauss((0.0, 1.0), (2.0, 0.5))
        h = EmbeddingHistory.seed(seed_emb, alpha=0.3)
        lo = pairs(seed_emb)
        hi = pairs(seed_emb)
        for _ in range(100):
            vals = np.empty(4)
            vals[0::2] = rng.normal(0, 5, 2)
            vals[1::2] = rng.uniform(0, 6, 2)
            lo = np.minimum(lo, vals)
            hi = np.maximum(hi, vals)
            h = update_history(h, interleaved(vals))
            assert np.all(pairs(h.embeddings) >= lo - 1e-12)
            assert np.all(pairs(h.embeddings) <= hi + 1e-12)


class TestAdaptationLoss:
    def test_identical_layers_zero(self):
        es = gauss((0.0, 1.0), (2.0, 3.0), widths=(1, 1))
        assert adaptation_loss(es, es) == 0.0

    def test_additive_over_layers(self):
        hs = gauss((0.0, 1.0), (0.0, 1.0), widths=(1, 1))
        cs = gauss((1.0, 1.0), (0.0, 4.0), widths=(1, 1))
        expected = score(gauss((0.0, 1.0)), gauss((1.0, 1.0))) + score(
            gauss((0.0, 1.0)), gauss((0.0, 4.0))
        )
        assert adaptation_loss(hs, cs) == pytest.approx(expected)
        assert adaptation_loss(hs, cs) == pytest.approx(0.5 + 0.3181, abs=1e-3)

    def test_single_layer_degenerates_to_layer_importance(self):
        h, c = gauss((0.0, 1.0)), gauss((1.0, 1.0))
        assert adaptation_loss(h, c) == score(h, c)

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            adaptation_loss(gauss((0, 1)), gauss((0, 1), (0, 1), widths=(1, 1)))


def make_env(network, shifts=(), batch_size=8):
    return EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=tuple(max(1, l.out_elements // l.channels) for l in network.layers),
        base_means=tuple(np.zeros(l.channels) for l in network.layers),
        base_vars=tuple(np.ones(l.channels) for l in network.layers),
        shifts=shifts,
        batch_size=batch_size,
    )


class TestImportanceTotal:
    @given(
        a=arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
                st.floats(0.0, 1e300),
            ),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_total_is_np_sum_bit_for_bit(self, a):
        a = np.concatenate(([0.0], a))
        assert ImportanceVector(a).total.hex() == float(np.sum(a)).hex()


class TestAssess:
    def test_zero_shift_scores_zero_exact(self):
        network = recovery_network(6)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(0)
        embedding = generate_batch(env, model, 0, rng, exact=True)
        vector, _ = assess(network, EmbeddingHistory.seed(embedding), embedding)
        assert vector.total == 0.0

    def test_shifted_layers_rank_first(self):
        network = recovery_network(10)
        env = make_env(
            network, shifts=(Shift(batch_index=1, layers=(3, 7), mean_offset_sigmas=2.0),)
        )
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(1)
        history = EmbeddingHistory.seed(generate_batch(env, model, 0, rng))
        current = generate_batch(env, model, 1, rng)
        vector, _ = assess(network, history, current)
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
        current = generate_batch(env, model, 1, rng)
        vector, _ = assess(network, history, current)
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
        index = np.concatenate([perm, 8 + perm])  # within each layer
        permute = lambda e: Embedding(e.means[index], e.variances[index], e.widths)
        history_p = EmbeddingHistory.seed(permute(stats))
        permuted, _ = assess(network, history_p, permute(shifted))
        assert np.allclose(base.a, permuted.a)

    def test_missing_layer_stats_rejected(self):
        network = recovery_network(4)
        env = make_env(network)
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(5)
        stats = generate_batch(env, model, 0, rng)
        history = EmbeddingHistory.seed(stats)
        last = stats.widths[-1]
        head = Embedding(stats.means[:-last], stats.variances[:-last], stats.widths[:-1])
        with pytest.raises(InputError, match="layer 3: network has 4 layers, current has 3"):
            assess(network, history, head)


_EXTREME = st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308])


@st.composite
def _embeddings(draw):
    """A valid chain embedding over 1 to 6 layers, with means and variances
    up to the largest floats and zero variances."""
    widths = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    k = sum(widths)
    mean = st.one_of(_EXTREME, _EXTREME.map(lambda x: -x), st.floats(-1.7e308, 1.7e308))
    variance = st.one_of(_EXTREME, st.floats(0.0, 1.7e308))
    means = draw(arrays(np.float64, k, elements=mean))
    variances = draw(arrays(np.float64, k, elements=variance))
    return Embedding(means, variances, widths)


class TestAssessLoss:
    @given(e=_embeddings())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_batch_scored_against_its_own_seed_is_zero(self, e):
        # what run_episode's first batch relies on: every divergence of an
        # identical pair is 0.0 after the clip, overflow included
        vector, loss = assess(None, EmbeddingHistory.seed(e), e)
        assert vector.a.tobytes() == np.zeros(e.n_layers + 1).tobytes()
        assert repr(loss) == "0.0"

    def test_loss_is_adaptation_loss_on_the_bundled_episodes(self, monkeypatch):
        from ttasched import pipeline
        from ttasched.presets import controller_scenario, drift_scenario, zero_shift_scenario

        scored = []

        def recording(network, history, current):
            vector, loss = assess(network, history, current)
            scored.append((history, current, loss))
            return vector, loss

        monkeypatch.setattr(pipeline, "assess", recording)
        for make in (drift_scenario, zero_shift_scenario, controller_scenario):
            pipeline.run_episode(make())
        assert len(scored) == 66
        for history, current, loss in scored:
            assert repr(loss) == repr(adaptation_loss(history.embeddings, current))
        assert any(loss > 0.0 for _, _, loss in scored)


class TestStatsFiles:
    def test_round_trip(self):
        stats = Embedding(
            means=np.array([1.0, 2.0, 0.0]),
            variances=np.array([0.5, 0.25, 1.0]),
            widths=(2, 1),
        )
        again = load_stats_lines(stats_to_lines(stats, (16, 4)))
        assert again.n_layers == 2
        assert split_layers(again.means, again.widths)[0].tolist() == [1.0, 2.0]
        assert again.variances.tolist() == [0.5, 0.25, 1.0]

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


def reference_layer_importance(h: np.ndarray, c: np.ndarray) -> float:
    value = reference_gaussian_kl(h, c)
    return value if value > 0.0 else 0.0


def reference_adaptation_loss(hs, cs) -> float:
    return sum(reference_layer_importance(h, c) for h, c in zip(hs, cs))


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
    @pytest.mark.parametrize("case", sorted(WIDTH_CASES))
    def test_bit_identical_to_per_layer_loop(self, case):
        widths = WIDTH_CASES[case]
        rng = np.random.default_rng(sum(widths))
        for trial in range(20):
            hs = random_layers(rng, widths)
            cs = random_layers(rng, widths)
            if trial == 0:
                cs = [h.copy() for h in hs]  # every divergence exactly 0
            history = interleaved(np.concatenate(hs), widths)
            current = interleaved(np.concatenate(cs), widths)

            got = layer_divergences(history, current)
            want = [reference_layer_importance(h, c) for h, c in zip(hs, cs)]
            assert got.tolist() == want

            loss = adaptation_loss(history, current)
            assert loss == reference_adaptation_loss(hs, cs)

            alpha = float(rng.uniform(0.0, 1.0))
            blended = update_history(EmbeddingHistory(history, alpha=alpha), current)
            got_layers = split_layers(pairs(blended.embeddings), widths)
            for got_values, want_values in zip(got_layers, reference_update(hs, cs, alpha)):
                assert got_values.tolist() == want_values.tolist()

            for layer in range(len(widths)):
                assert score(interleaved(hs[layer]), interleaved(cs[layer])) == want[layer]

    def test_assess_matches_per_layer_loop(self):
        from ttasched.presets import resnet50_shaped

        network = resnet50_shaped()
        widths = tuple(layer.channels for layer in network.layers)
        rng = np.random.default_rng(17)
        hs = random_layers(rng, widths)
        cs = random_layers(rng, widths)
        current = Embedding(
            means=np.concatenate([c[0::2] for c in cs]),
            variances=np.concatenate([c[1::2] for c in cs]),
            widths=widths,
        )
        vector, _ = assess(
            network, EmbeddingHistory(interleaved(np.concatenate(hs), widths)), current
        )
        n = network.n_layers
        want = np.zeros(n + 1)
        for layer in network.layers:
            if layer.has_params:
                want[n - layer.id] = reference_layer_importance(hs[layer.id], cs[layer.id])
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
            interleaved(values, widths)

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_feature_stats_reject_bad_channel(self, bad):
        # a stats file whose chain's channel 11 (layer 1, channel 8) is bad
        widths = (3, 9, 1)
        means = np.zeros(13)
        variances = np.ones(13)
        slot, value = self.BAD[bad]
        (means if slot == 0 else variances)[11] = value
        layers = zip(split_layers(means, widths), split_layers(variances, widths))
        text = "".join(
            json.dumps({"layer_id": i, "means": m.tolist(), "vars": v.tolist(), "samples": 4})
            + "\n"
            for i, (m, v) in enumerate(layers)
        )
        with pytest.raises(InputError, match="finite|non-negative"):
            load_stats_lines(text)

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
            Embedding(np.ones(5), np.ones(5), (2, 2))
        with pytest.raises(InputError, match="at least one channel"):
            Embedding(np.zeros(3), np.ones(3), widths=(3, 0))

    def test_kernel_rejects_other_layer_split(self):
        a = Embedding(np.ones(5), np.ones(5), (2, 3))
        b = Embedding(np.ones(5), np.ones(5), (3, 2))
        with pytest.raises(InputError, match="layer 0: history has 2 channels, current has 3"):
            layer_divergences(a, b)
        with pytest.raises(InputError, match="layer 0: history has 2 channels, current has 3"):
            update_history(EmbeddingHistory(a), b)


class TestChainObjects:
    def test_history_seeds_from_stats_or_per_layer_list(self):
        a = EmbeddingHistory.seed(Embedding(np.zeros(5), np.ones(5), widths=(2, 3)))
        assert a.embeddings.widths == (2, 3)
        assert a.storage_bytes() == 40

    def test_stats_file_loads_as_one_chain(self):
        text = (
            '{"layer_id": 1, "means": [1, 2, 3], "vars": [1, 1, 1], "samples": 3}\n'
            '{"layer_id": 0, "means": [0], "vars": [2], "samples": 2}\n'
        )
        stats = load_stats_lines(text)
        assert stats.widths == (1, 3) and stats.n_layers == 2
        assert stats.means.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert stats.variances.tolist() == [2.0, 1.0, 1.0, 1.0]
        again = load_stats_lines(stats_to_lines(stats, (2, 3)))
        assert again.means.tolist() == stats.means.tolist()

    @pytest.mark.parametrize(
        "field, value",
        [("samples", "x"), ("samples", 1e400), ("layer_id", "first"), ("means", ["a"])],
    )
    def test_non_numeric_stats_field_is_input_error(self, field, value):
        rec = {"layer_id": 0, "means": [0.0], "vars": [1.0], "samples": 2}
        rec[field] = value
        with pytest.raises(InputError, match=f"line 1: {field}"):
            load_stats_lines(json.dumps(rec) + "\n")
