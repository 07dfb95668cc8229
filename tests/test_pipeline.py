import dataclasses
import math

import numpy as np
import pytest

from ttasched.errors import InputError, TraceExhausted
from ttasched.importance import Embedding, EmbeddingHistory, update_history
from ttasched.latency import COMPUTE_BOUND, LatencyTable, OfflineProfile, StateTrace, _table_for
from ttasched.network import UpdateStrategy, closed_form_cost
from ttasched import pipeline
from ttasched.pipeline import (
    BatchRecord,
    ControllerConfig,
    EnvironmentSpec,
    ModelResponseState,
    Shift,
    apply_update,
    execute_ground_truth,
    gaussian_environment,
    generate_batch,
    observed_embeddings,
    report_csv,
    report_json,
    run_episode,
    sigma_controller,
)
from ttasched.presets import (
    controller_scenario,
    demo_edge_device,
    drift_scenario,
    offline_from_costs,
    recovery_network,
    resource_conditions,
    synthetic_network,
    zero_shift_scenario,
)

from scalar_latency import blend, factors, split
from support import cycling_trace, split_layers


def simple_env(network, shifts=(), batch_size=8, positions=None):
    return EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=positions
        or tuple(max(1, l.out_elements // l.channels) for l in network.layers),
        base_means=tuple(np.zeros(l.channels) for l in network.layers),
        base_vars=tuple(np.ones(l.channels) for l in network.layers),
        shifts=shifts,
        batch_size=batch_size,
    )


class TestEnvironmentSpec:
    def test_shift_indices_strictly_increasing(self):
        net = recovery_network(4)
        with pytest.raises(InputError, match="strictly increasing"):
            simple_env(
                net,
                shifts=(
                    Shift(batch_index=3, layers=(0,), mean_offset_sigmas=1.0),
                    Shift(batch_index=3, layers=(1,), mean_offset_sigmas=1.0),
                ),
            )

    def test_unknown_shift_layer_rejected(self):
        net = recovery_network(4)
        with pytest.raises(InputError, match="unknown layer"):
            simple_env(
                net, shifts=(Shift(batch_index=0, layers=(9,), mean_offset_sigmas=1.0),)
            )

    def test_shifts_compose_cumulatively(self):
        net = recovery_network(2)
        env = simple_env(
            net,
            shifts=(
                Shift(batch_index=1, layers=(0,), mean_offset_sigmas=1.0),
                Shift(batch_index=3, layers=(0,), mean_offset_sigmas=1.0),
            ),
        )
        m0, _ = env.params_at(0)
        m1, _ = env.params_at(1)
        m3, _ = env.params_at(3)
        assert m0[0] == 0.0
        assert m1[0] == 1.0
        assert m3[0] == 2.0

    def test_checks_over_the_chain_name_the_first_bad_layer(self):
        widths = (2, 3, 4)

        def env(means=None, varis=None):
            return EnvironmentSpec(
                channels=widths, positions=(1, 1, 1),
                base_means=means or tuple(np.zeros(w) for w in widths),
                base_vars=varis or tuple(np.ones(w) for w in widths),
                shifts=(), batch_size=1,
            )

        bad_vars = (np.ones(2), np.array([1.0, 0.0, 1.0]), -np.ones(4))
        with pytest.raises(InputError, match="^layer 1: base variances must be positive$"):
            env(varis=bad_vars)
        for bad_means, layer in (
            ((np.zeros(2), np.zeros(3), np.zeros(5)), 2),
            ((np.zeros((2, 1)), np.zeros(3), np.zeros(5)), 0),
            ((np.zeros(2), [0.0, 0.0], np.zeros(4)), 1),
        ):
            with pytest.raises(
                InputError, match=f"^layer {layer}: base params must match channel count$"
            ):
                env(means=bad_means)
        assert env(means=((1.0, 2.0), [0.0] * 3, np.zeros(4))).base_means[0].tolist() == [
            1.0, 2.0
        ]

    def test_gaussian_environment_fills_each_layer(self):
        net = recovery_network(5)
        env = gaussian_environment(net, mean=0.25, var=3.0, batch_size=2)
        assert env.channels == tuple(l.channels for l in net.layers)
        for layer, means, varis in zip(net.layers, env.base_means, env.base_vars):
            assert means.tolist() == [0.25] * layer.channels
            assert varis.tolist() == [3.0] * layer.channels
            assert means.dtype == varis.dtype == np.float64


def layer_slice(env, layer):
    """The channel range of ``layer`` in the environment's flat arrays."""
    lo = sum(env.channels[:layer])
    return slice(lo, lo + env.channels[layer])


def reference_params_at(env, batch_index):
    """Every shift up to ``batch_index`` replayed on copies of the base
    parameters, the way ``params_at`` computed them before it precomputed
    its epochs."""
    means = [m.copy() for m in env.base_means]
    varis = [v.copy() for v in env.base_vars]
    for s in env.shifts:
        if s.batch_index > batch_index:
            break
        for layer in s.layers:
            means[layer] = means[layer] + s.mean_offset_sigmas * np.sqrt(env.base_vars[layer])
            varis[layer] = varis[layer] * s.var_scale
    return means, varis


def reference_generate_batch(env, model, batch_index, rng):
    """Per-layer (means, variances, sample count) in the whole-chain draw
    order, drawn layer by layer: first every layer's standard normals in
    forward order, then the chi-squares of every layer with ``n > 1``, each
    from a scalar degrees of freedom, in forward order."""
    env_means, env_vars = reference_params_at(env, batch_index)
    layers = []
    for layer in range(env.n_layers):
        span = layer_slice(env, layer)
        m = env.base_means[layer] + (env_means[layer] - model.means[span])
        v = env.base_vars[layer] * env_vars[layer] / model.variances[span]
        layers.append((m, v, env.batch_size * env.positions[layer], env.channels[layer]))
    normals = [rng.standard_normal(c) for _, _, _, c in layers]
    chi2 = [rng.chisquare(n - 1, c) if n > 1 else None for _, _, n, c in layers]
    out = []
    for (m, v, n, c), z, x in zip(layers, normals, chi2):
        var = v * x / n if n > 1 else np.zeros(c)
        out.append((m + np.sqrt(v / n) * z, var, n))
    return out


class RecordingGenerator:
    """A generator stand-in that records the name of every draw it serves."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return draw(*args, **kwargs)

        return recorded


class TestEnvironmentEpochs:
    def ragged_env(self):
        widths = (1, 7, 8, 9, 129, 3)
        return EnvironmentSpec(
            channels=widths,
            positions=(1, 3, 1, 5, 2, 4),
            base_means=tuple(np.linspace(-1.0, 1.0, w) for w in widths),
            base_vars=tuple(np.linspace(0.3, 3.0, w) for w in widths),
            shifts=(
                Shift(batch_index=2, layers=(0, 4), mean_offset_sigmas=1.3, var_scale=1.7),
                Shift(batch_index=5, layers=(4, 1), mean_offset_sigmas=-0.7),
                Shift(batch_index=6, layers=(5,), mean_offset_sigmas=0.1, var_scale=0.3),
            ),
            batch_size=1,
        )

    def test_params_match_replayed_shifts_bit_for_bit(self):
        env = self.ragged_env()
        for batch_index in range(-1, 9):
            means, varis = env.params_at(batch_index)
            want_means, want_varis = reference_params_at(env, batch_index)
            for layer in range(env.n_layers):
                span = layer_slice(env, layer)
                assert means[span].tolist() == want_means[layer].tolist()
                assert varis[span].tolist() == want_varis[layer].tolist()
            assert means.tolist() == np.concatenate(want_means).tolist()
            assert varis.tolist() == np.concatenate(want_varis).tolist()

    def test_params_are_read_only(self):
        env = self.ragged_env()
        means, _ = env.params_at(7)
        with pytest.raises(ValueError):
            means[20] = 1.0
        with pytest.raises(ValueError):
            env.params_at(0)[1][0] = 1.0
        with pytest.raises(ValueError):
            env.base_vars[4][0] = 1.0

    def test_base_params_are_copied(self):
        base = np.zeros(4)
        env = EnvironmentSpec(
            channels=(4,), positions=(1,), base_means=(base,),
            base_vars=(np.ones(4),), shifts=(), batch_size=2,
        )
        base[0] = 5.0
        assert env.params_at(0)[0][0] == 0.0
        assert env.base_means[0][0] == 0.0

    def test_sampled_stats_match_whole_chain_draws_bit_for_bit(self):
        # the chain mixes n == 1 layers (0 and 2) with n > 1 ones
        env = self.ragged_env()
        assert [env.batch_size * p for p in env.positions] == [1, 3, 1, 5, 2, 4]
        model = ModelResponseState.from_environment(env, adaptation_gain=0.5)
        model = apply_update(
            model, UpdateStrategy(6, (2, 5)), *env.params_at(3)
        )
        rng = np.random.default_rng(21)
        ref_rng = np.random.default_rng(21)
        for batch_index in range(8):
            stats = generate_batch(env, model, batch_index, rng)
            want = reference_generate_batch(env, model, batch_index, ref_rng)
            assert stats.widths == env.channels
            layers = zip(
                split_layers(stats.means, stats.widths),
                split_layers(stats.variances, stats.widths),
                env.sample_counts,
            )
            for (means, variances, count), (mu, var, n) in zip(layers, want):
                assert means.tolist() == mu.tolist()
                assert variances.tolist() == var.tolist()
                assert count == n
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sampled_stats_follow_their_laws_over_a_ragged_chain(self):
        # 400 batches over the ragged chain after all three shifts: means
        # standardized by N(mu, var / n) are N(0, 1); n * variance / var is
        # chi2(n - 1) for each distinct n > 1; n == 1 variances are 0
        import warnings

        from scipy import stats as st

        from ttasched.pipeline import observed_params

        env = self.ragged_env()
        model = ModelResponseState.from_environment(env)
        mu, var = observed_params(env, model, 7)
        n = np.repeat([env.batch_size * p for p in env.positions], env.channels)
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batches = [generate_batch(env, model, 7, rng) for _ in range(400)]
        means = np.array([b.means for b in batches])
        varis = np.array([b.variances for b in batches])
        z = (means - mu) / np.sqrt(var / n)
        assert st.kstest(z.ravel(), "norm").pvalue > 1e-3
        assert np.all(varis[:, n == 1] == 0.0)
        for count in (2, 3, 4, 5):
            scaled = (count * varis / var)[:, n == count]
            assert st.kstest(scaled.ravel(), "chi2", args=(count - 1,)).pvalue > 1e-3

    def test_two_draws_per_batch_whatever_the_layer_count(self):
        for env, per_batch in (
            (self.ragged_env(), ["standard_normal", "chisquare"]),
            (simple_env(synthetic_network(96), batch_size=4), ["standard_normal", "chisquare"]),
            (simple_env(recovery_network(9), batch_size=1, positions=(1,) * 9), ["standard_normal"]),
        ):
            model = ModelResponseState.from_environment(env)
            rng = RecordingGenerator(3)
            for batch_index in range(3):
                generate_batch(env, model, batch_index, rng)
            assert rng.calls == per_batch * 3
            generate_batch(env, model, 0, rng, exact=True)
            assert rng.calls == per_batch * 3


class TestValidation:
    def test_shift_validation(self):
        with pytest.raises(InputError):
            Shift(batch_index=-1, layers=(0,), mean_offset_sigmas=1.0)
        with pytest.raises(InputError):
            Shift(batch_index=0, layers=(), mean_offset_sigmas=1.0)
        with pytest.raises(InputError):
            Shift(batch_index=0, layers=(0,), mean_offset_sigmas=1.0, var_scale=0.0)
        # a repeated layer would take the offset and the scale twice
        with pytest.raises(InputError, match="shift names layer 3 more than once"):
            Shift(batch_index=0, layers=(3, 1, 3), mean_offset_sigmas=2.0, var_scale=2.0)

    def test_model_state_validation(self):
        net = recovery_network(2)
        env = simple_env(net)
        with pytest.raises(InputError):
            ModelResponseState.from_environment(env, adaptation_gain=0.0)
        with pytest.raises(InputError, match="positive"):
            ModelResponseState(
                means=np.zeros(2), variances=np.array([1.0, 0.0]), widths=(2,)
            )
        with pytest.raises(InputError, match="cover"):
            ModelResponseState(means=np.zeros(2), variances=np.ones(2), widths=(1, 2))
        with pytest.raises(InputError, match="equal length"):
            ModelResponseState(means=np.zeros(2), variances=np.ones(3), widths=(2,))

    def test_overflowing_observed_embedding_rejected(self):
        # 1e308 + (1e308 - -1e308) overflows
        env = gaussian_environment(recovery_network(2), mean=1e308)
        model = ModelResponseState(
            means=np.full(sum(env.channels), -1e308),
            variances=np.ones(sum(env.channels)),
            widths=env.channels,
        )
        with pytest.raises(InputError, match="must be finite"):
            observed_embeddings(env, model, 0)

    def test_executor_jitter_contract(self):
        net = recovery_network(2)
        from ttasched.presets import offline_from_costs, demo_edge_device

        device = demo_edge_device()
        offline = offline_from_costs(net, device)
        strategy = UpdateStrategy(2, (1,))
        table = LatencyTable(net, offline, device)
        trace = StateTrace.constant(resource_conditions()["offline"])
        with pytest.raises(InputError, match="rng"):
            execute_ground_truth(table, trace, strategy, jitter_eps=0.1)
        with pytest.raises(InputError, match="jitter_eps"):
            execute_ground_truth(
                table, trace, strategy, jitter_eps=1.5,
                rng=np.random.default_rng(0),
            )

    def test_scenario_channel_mismatch_rejected(self):
        import dataclasses as dc
        from ttasched.presets import drift_scenario as make

        scenario = make()
        bad_env = dc.replace(
            scenario.environment,
            channels=(99,) + scenario.environment.channels[1:],
            base_means=(np.zeros(99),) + scenario.environment.base_means[1:],
            base_vars=(np.ones(99),) + scenario.environment.base_vars[1:],
        )
        with pytest.raises(InputError, match="channels"):
            dc.replace(scenario, environment=bad_env)

    def test_controller_config_validation(self):
        with pytest.raises(InputError):
            ControllerConfig(sigma_min=0.5, sigma_max=0.2)
        with pytest.raises(InputError):
            ControllerConfig(window=0)
        with pytest.raises(InputError):
            ControllerConfig(decrease=1.2)


class TestGenerateBatch:
    def test_large_batch_converges_to_base(self):
        # law-of-large-numbers check: sample means within three standard
        # errors of the base means at batch size 10^4
        net = recovery_network(2, channels=4)
        env = simple_env(net, batch_size=10_000, positions=(1, 1))
        model = ModelResponseState.from_environment(env)
        stats = generate_batch(env, model, 0, np.random.default_rng(0))
        se = 1.0 / math.sqrt(10_000)
        for means in split_layers(stats.means, stats.widths):
            assert np.all(np.abs(means) <= 3 * se)

    def test_shift_appears_only_on_targeted_layers(self):
        net = recovery_network(8, channels=4)
        env = simple_env(
            net,
            shifts=(Shift(batch_index=5, layers=(3, 7), mean_offset_sigmas=2.0),),
            batch_size=64,
            positions=(4,) * 8,
        )
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(1)
        before = generate_batch(env, model, 4, rng)
        after = generate_batch(env, model, 5, rng)
        se = 1.0 / math.sqrt(64 * 4)
        for i, means in enumerate(split_layers(before.means, before.widths)):
            assert np.all(np.abs(means) < 6 * se)
        for i, means in enumerate(split_layers(after.means, after.widths)):
            if i in (3, 7):
                assert np.all(means > 2.0 - 6 * se)
            else:
                assert np.all(np.abs(means) < 6 * se)

    def test_same_seed_identical(self):
        net = recovery_network(3)
        env = simple_env(net)
        model = ModelResponseState.from_environment(env)
        a = generate_batch(env, model, 0, np.random.default_rng(9))
        b = generate_batch(env, model, 0, np.random.default_rng(9))
        for sa, sb in zip(
            split_layers(a.means, a.widths), split_layers(b.means, b.widths)
        ):
            assert np.array_equal(sa, sb)
        for sa, sb in zip(
            split_layers(a.variances, a.widths), split_layers(b.variances, b.widths)
        ):
            assert np.array_equal(sa, sb)

    def test_statistics_follow_their_sampling_distribution(self):
        # one channel over 2000 batches of n = 4 * 3 samples from N(1.5, 2):
        # the mean is N(1.5, 2/n), n * variance / 2 is chi2(n - 1), and both
        # match draws reduced from explicit per-sample normals
        from scipy import stats as st

        net = recovery_network(1, channels=4)
        env = simple_env(
            net,
            shifts=(Shift(batch_index=0, layers=(0,), mean_offset_sigmas=1.5, var_scale=2.0),),
            batch_size=4,
            positions=(3,),
        )
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(5)
        batches = [generate_batch(env, model, 0, rng) for _ in range(2000)]
        means = np.array([b.means[0] for b in batches])
        varis = np.array([b.variances[0] for b in batches])
        n = 12
        assert st.kstest(means, "norm", args=(1.5, math.sqrt(2.0 / n))).pvalue > 1e-3
        assert st.kstest(n * varis / 2.0, "chi2", args=(n - 1,)).pvalue > 1e-3
        draws = np.random.default_rng(6).normal(1.5, math.sqrt(2.0), size=(2000, n))
        assert st.ks_2samp(means, draws.mean(axis=1)).pvalue > 1e-3
        assert st.ks_2samp(varis, draws.var(axis=1)).pvalue > 1e-3

    def test_single_sample_has_zero_variance(self):
        net = recovery_network(3, channels=4)
        env = simple_env(net, batch_size=1, positions=(1, 1, 1))
        model = ModelResponseState.from_environment(env)
        stats = generate_batch(env, model, 0, np.random.default_rng(2))
        for means, variances, count in zip(
            split_layers(stats.means, stats.widths),
            split_layers(stats.variances, stats.widths),
            env.sample_counts,
        ):
            assert count == 1
            assert np.all(variances == 0.0)
            assert np.all(means != 0.0)

    def test_exact_mode_reports_distribution_parameters(self):
        net = recovery_network(2)
        env = simple_env(net)
        model = ModelResponseState.from_environment(env)
        stats = generate_batch(env, model, 0, np.random.default_rng(0), exact=True)
        first = layer_slice(env, 0)
        assert np.all(stats.means[first] == 0.0)
        assert np.all(stats.variances[first] == 1.0)


class TestReusePlan:
    """The reforward pass reuses the retained input activation of the
    deepest updated layer: the executor re-runs backward indices 1..deepest
    and skips every layer before it."""

    def reforward(self, n, selected):
        net = recovery_network(n)
        device = demo_edge_device()
        execd = execute_ground_truth(
            LatencyTable(net, offline_from_costs(net, device), device),
            StateTrace.constant(resource_conditions()["offline"]),
            UpdateStrategy(n, selected),
        )
        return execd.re_exec

    def rerun(self, re_exec):
        return [b for b in range(len(re_exec)) if re_exec[b] != 0.0]

    def test_output_layer_only(self):
        assert self.rerun(self.reforward(10, (1,))) == [1]

    def test_mid_selection(self):
        assert self.rerun(self.reforward(10, (2, 4))) == [1, 2, 3, 4]

    def test_empty_strategy_skips_everything(self):
        re_exec = self.reforward(10, ())
        assert re_exec.shape == (11,) and not re_exec.any()

    def test_partition_property(self):
        for b in range(1, 13):
            assert self.rerun(self.reforward(12, (b,))) == list(range(1, b + 1))


class TestExecuteGroundTruth:
    def setup_method(self):
        self.network = synthetic_network(9)
        self.device = demo_edge_device()
        self.offline = offline_from_costs(self.network, self.device)
        self.state = resource_conditions()["offline"]

    def run(self, strategy, eps=0.0, rng=None, state=None):
        return execute_ground_truth(
            LatencyTable(self.network, self.offline, self.device),
            StateTrace.constant(state or self.state),
            strategy,
            jitter_eps=eps,
            rng=rng,
        )

    def test_step_list_built_once_per_strategy_and_checked_first(self):
        table = LatencyTable(self.network, self.offline, self.device)
        trace = StateTrace.constant(self.state)
        selectable = self.network.selectable_backward()
        chosen = UpdateStrategy(9, selectable[:2])
        steps = table._plan(chosen)[0]
        assert table._plan(UpdateStrategy(9, selectable[:2]))[0] is steps
        # a strategy that fails validation is refused on every call, and a
        # cached selection does not stand for one over another layer count
        frozen = next(b for b in range(1, 10) if b not in selectable)
        for _ in range(2):
            with pytest.raises(InputError, match="parameter-free"):
                execute_ground_truth(table, trace, UpdateStrategy(9, (frozen,)))
            with pytest.raises(InputError, match="covers 10 layers"):
                execute_ground_truth(table, trace, UpdateStrategy(10, selectable[:2]))

    def test_noise_free_static_matches_prediction_exactly(self):
        from ttasched.latency import build_profile

        profile = build_profile(self.network, self.offline, self.device, self.state)
        full = UpdateStrategy(9, self.network.selectable_backward())
        execd = self.run(full)
        cost = closed_form_cost(profile, full.selected)
        assert execd.t_b_total == pytest.approx(cost.t_backward, rel=1e-12)
        assert execd.t_re_total == pytest.approx(cost.t_reforward, rel=1e-12)
        assert execd.t_f_total == pytest.approx(profile.t_f_total, rel=1e-12)

    def test_jitter_error_bounded(self):
        rng = np.random.default_rng(3)
        full = UpdateStrategy(9, self.network.selectable_backward())
        errors = []
        for _ in range(120):  # ~1000 layer-executions
            execd = self.run(full, eps=0.05, rng=rng)
            noise_free = self.run(full)
            for b in range(1, 10):
                if noise_free.f_exec[b] > 0:
                    errors.append(
                        abs(execd.f_exec[b] - noise_free.f_exec[b])
                        / noise_free.f_exec[b]
                    )
        assert len(errors) >= 1000
        assert np.mean(errors) <= 0.05

    def test_empty_strategy_costs_nothing_beyond_forward(self):
        execd = self.run(UpdateStrategy(9, ()))
        assert execd.t_b_total == 0.0
        assert execd.t_re_total == 0.0
        assert execd.t_f_total > 0.0

    def test_reforward_executes_only_plan_layers(self):
        strategy = UpdateStrategy(9, (3,))  # conv at forward id 6
        execd = self.run(strategy)
        # forward ids 0..5 come before the retained activation
        for forward_id in range(6):
            assert execd.re_exec[self.network.backward_index(forward_id)] == 0.0
        for forward_id in range(6, 9):
            assert execd.re_exec[self.network.backward_index(forward_id)] > 0.0

    def test_dx_chain_stops_at_deepest(self):
        strategy = UpdateStrategy(9, (5,))  # batchnorm at forward id 4
        execd = self.run(strategy)
        # the activation-gradient chain covers every shallower layer,
        # parameter-free ones included
        assert np.all(execd.dx_exec[1:5] > 0.0)
        assert np.all(execd.dx_exec[5:] == 0.0)  # deepest layer pays dw only
        assert execd.dw_exec[5] > 0.0


def reference_execute(network, offline, device, state_at, strategy, deepest,
                      jitter_eps=0.0, rng=None, t_start_ms=0.0):
    """The executor as one scalar loop: every layer run looks up its state,
    factors, eta and backward split afresh and draws its own jitter. The
    reforward re-runs the forward ids from ``deepest``'s on."""
    from ttasched.latency import eta

    n = network.n_layers
    f_exec, dw_exec, dx_exec, re_exec = (np.zeros(n + 1) for _ in range(4))
    now = t_start_ms

    def run(b, t_off):
        nonlocal now
        layer = network.layer_by_backward(b)
        p1, p2 = factors(device, state_at(now))
        jitter = 1.0 if rng is None else float(rng.uniform(1.0 - jitter_eps, 1.0 + jitter_eps))
        lat = blend(t_off, eta(layer, device), p1, p2) * jitter
        now += lat
        return lat

    for b in range(n, 0, -1):
        f_exec[b] = run(b, float(offline.t_f[b]))
    d = strategy.deepest
    for b in range(1, d + 1):
        dw_off, dx_off = split(float(offline.t_b[b]), network.layer_by_backward(b))
        if b < d:
            dx_exec[b] = run(b, dx_off)
        if b in strategy.selected:
            dw_exec[b] = run(b, dw_off)
    for forward_id in range(n - deepest, n) if deepest else ():
        b = network.backward_index(forward_id)
        re_exec[b] = run(b, float(offline.t_re[b]))
    return (f_exec, dw_exec, dx_exec, re_exec), now


class TestExecutorMatchesReference:
    def test_bit_identical_on_time_varying_trace(self):
        network = synthetic_network(24)
        device = demo_edge_device()
        offline = offline_from_costs(network, device)
        conditions = list(resource_conditions().values())
        # a new state every seventh of a forward pass, so states change
        # between the runs of one call
        step = float(np.sum(offline.t_f)) / 7
        trace = StateTrace(
            records=tuple(
                (k * step, conditions[k % len(conditions)]) for k in range(2000)
            ),
            horizon_ms=math.inf,
        )
        table = LatencyTable(network, offline, device)
        pick = np.random.default_rng(4)
        selectable = np.array(network.selectable_backward())
        strategies = [
            UpdateStrategy(24, ()),
            UpdateStrategy(24, network.selectable_backward()),
        ] + [
            UpdateStrategy(24, tuple(int(b) for b in selectable[pick.random(selectable.size) < p]))
            for p in (0.1, 0.3, 0.6)
        ]
        start = 0.0
        for strategy in strategies:
            for eps, seed in ((0.02, 11), (0.0, 12), (0.0, None)):
                rng = None if seed is None else np.random.default_rng(seed)
                ref_rng = None if seed is None else np.random.default_rng(seed)
                execd = execute_ground_truth(
                    table, trace, strategy,
                    jitter_eps=eps, rng=rng, t_start_ms=start,
                )
                arrays, finish = reference_execute(
                    network, offline, device, trace.state_at, strategy, strategy.deepest,
                    jitter_eps=eps, rng=ref_rng, t_start_ms=start,
                )
                for got, want in zip(
                    (execd.f_exec, execd.dw_exec, execd.dx_exec, execd.re_exec), arrays
                ):
                    assert np.array_equal(got, want)
                assert execd.finish_ms == finish
                assert execd.start_ms == start
                if rng is not None:
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert finish - start > 2 * step  # spans several records
                start = finish


    def test_bit_identical_with_compute_bound_layers(self):
        # the mixed chain's three zero-traffic layers take the compute
        # factor alone; the others blend both factors by their eta
        from test_latency import mixed_chain

        network, offline = mixed_chain()
        device = demo_edge_device()
        table = LatencyTable(network, offline, device)
        assert np.sum(table.eta == COMPUTE_BOUND) == 3
        conditions = list(resource_conditions().values())
        step = float(np.sum(offline.t_f)) / 5
        trace = StateTrace(
            records=tuple(
                (k * step, conditions[k % len(conditions)]) for k in range(500)
            ),
            horizon_ms=math.inf,
        )
        selectable = network.selectable_backward()
        start = 0.0
        for selected in ((), selectable, selectable[:2], selectable[-1:]):
            strategy = UpdateStrategy(network.n_layers, selected)
            for eps, seed in ((0.02, 5), (0.0, None)):
                rng = None if seed is None else np.random.default_rng(seed)
                ref_rng = None if seed is None else np.random.default_rng(seed)
                execd = execute_ground_truth(
                    table, trace, strategy, jitter_eps=eps, rng=rng, t_start_ms=start
                )
                arrays, finish = reference_execute(
                    network, offline, device, trace.state_at, strategy, strategy.deepest,
                    jitter_eps=eps, rng=ref_rng, t_start_ms=start,
                )
                for got, want in zip(
                    (execd.f_exec, execd.dw_exec, execd.dx_exec, execd.re_exec), arrays
                ):
                    assert np.array_equal(got, want)
                assert execd.finish_ms == finish
                assert finish - start > 2 * step  # spans several records
                start = finish


class ExecutorHarness:
    """Runs of the executor against the per-layer reference on the test's
    ``network``, ``offline``, ``device`` and ``table``; ``strategy`` is
    the default strategy."""

    def both(self, trace, t_start_ms=0.0, eps=0.0, seed=None, strategy=None, table=None):
        """Run the executor and the reference; assert they agree, and
        return the executor's result."""
        strategy = strategy or self.strategy
        rng = None if seed is None else np.random.default_rng(seed)
        ref_rng = None if seed is None else np.random.default_rng(seed)
        execd = execute_ground_truth(
            table or self.table, trace, strategy,
            jitter_eps=eps, rng=rng, t_start_ms=t_start_ms,
        )
        arrays, finish = reference_execute(
            self.network, self.offline, self.device, trace.state_at, strategy,
            strategy.deepest, jitter_eps=eps, rng=ref_rng, t_start_ms=t_start_ms,
        )
        for got, want in zip(
            (execd.f_exec, execd.dw_exec, execd.dx_exec, execd.re_exec), arrays
        ):
            assert np.array_equal(got, want)
        assert type(execd.finish_ms) is float and execd.finish_ms == finish
        if rng is not None:
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return execd

    def run_starts(self, trace, t_start_ms=0.0):
        """Start time of every layer run of a noise-free reference call of
        the default strategy."""
        starts = []

        def state_at(t_ms):
            starts.append(t_ms)
            return trace.state_at(t_ms)

        reference_execute(
            self.network, self.offline, self.device, state_at, self.strategy,
            self.strategy.deepest, t_start_ms=t_start_ms,
        )
        return starts


class TestExecutorTraceSegments(ExecutorHarness):
    """The executor reads the state again only when its clock reaches the
    next record time or passes the horizon, and still matches the per-layer
    reference bit for bit."""

    def setup_method(self):
        self.network = synthetic_network(12)
        self.device = demo_edge_device()
        self.offline = offline_from_costs(self.network, self.device)
        self.table = LatencyTable(self.network, self.offline, self.device)
        self.strategy = UpdateStrategy(12, self.network.selectable_backward())
        self.states = list(resource_conditions().values())

    def test_run_starting_exactly_on_a_record_time(self):
        idle, hot = self.states[0], self.states[4]
        constant = self.both(StateTrace.constant(idle))
        starts = self.run_starts(StateTrace.constant(idle))
        # forward runs go from backward index 12 down, so run 7 is b = 5
        trace = StateTrace(records=((0.0, idle), (starts[7], hot)), horizon_ms=math.inf)
        execd = self.both(trace)
        assert execd.f_exec[6] == constant.f_exec[6]
        assert execd.f_exec[5] != constant.f_exec[5]
        # the first run, starting on a record time, takes that record
        execd = self.both(trace, t_start_ms=starts[7])
        assert execd.f_exec[12] != constant.f_exec[12]
        self.both(trace, t_start_ms=starts[7], eps=0.05, seed=2)

    def test_duplicate_timestamps_take_the_last_record(self):
        s = self.states
        starts = self.run_starts(StateTrace.constant(s[0]))
        duplicated = StateTrace(
            records=((0.0, s[0]), (starts[5], s[1]), (starts[5], s[4]), (starts[9], s[2])),
            horizon_ms=math.inf,
        )
        single = StateTrace(
            records=((0.0, s[0]), (starts[5], s[4]), (starts[9], s[2])),
            horizon_ms=math.inf,
        )
        execd = self.both(duplicated)
        assert np.array_equal(execd.f_exec, self.both(single).f_exec)
        self.both(duplicated, eps=0.05, seed=3)

    def test_trace_exhausted_partway_raises_as_the_reference(self):
        s = self.states
        starts = self.run_starts(StateTrace.constant(s[0]))
        horizon = (starts[10] + starts[11]) / 2
        trace = StateTrace(
            records=((0.0, s[0]), (starts[3], s[0]), (starts[6], s[0])),
            horizon_ms=horizon,
        )
        with pytest.raises(TraceExhausted) as got:
            execute_ground_truth(self.table, trace, self.strategy)
        with pytest.raises(TraceExhausted) as want:
            reference_execute(
                self.network, self.offline, self.device, trace.state_at,
                self.strategy, self.strategy.deepest,
            )
        assert str(got.value) == str(want.value)
        assert f"t={starts[11]:.3f} ms" in str(got.value)

    def test_run_may_finish_past_the_horizon(self):
        starts = self.run_starts(StateTrace.constant(self.states[0]))
        trace = StateTrace.constant(self.states[0], horizon_ms=starts[-1])
        self.both(trace)

    def test_nan_start_rejected(self):
        trace = StateTrace.constant(self.states[0])
        with pytest.raises(InputError, match="must be a number"):
            execute_ground_truth(self.table, trace, self.strategy, t_start_ms=math.nan)

    def test_state_read_once_per_record_reached(self, monkeypatch):
        idle = self.states[0]
        starts = self.run_starts(StateTrace.constant(idle))
        # equal states keep the run times, so the records fall on run starts
        trace = StateTrace(
            records=tuple(
                (t, dataclasses.replace(idle)) for t in (0.0, starts[4], starts[20], 1e9)
            ),
            horizon_ms=math.inf,
        )
        calls = []
        state_at = StateTrace.state_at
        monkeypatch.setattr(
            StateTrace, "state_at", lambda self, t: calls.append(t) or state_at(self, t)
        )
        execute_ground_truth(self.table, trace, self.strategy)
        assert calls == [0.0, starts[4], starts[20]]


class TestExecutorArrayPath(ExecutorHarness):
    """Once a state read finds no record ahead, the executor prices the
    rest of the call as one array product of the layers' scales under that
    state (``LatencyTable.scales``); it still matches the per-layer
    reference bit for bit, and the trace reads and errors stay those of the
    step loop."""

    def setup_method(self):
        self.network = synthetic_network(24)
        self.device = demo_edge_device()
        self.offline = offline_from_costs(self.network, self.device)
        self.table = LatencyTable(self.network, self.offline, self.device)
        self.states = list(resource_conditions().values())
        selectable = self.network.selectable_backward()
        self.strategies = {
            "empty": UpdateStrategy(24, ()),
            "single": UpdateStrategy(24, selectable[3:4]),
            "full": UpdateStrategy(24, selectable),
        }
        self.strategy = self.strategies["full"]

    def counted(self, monkeypatch):
        """The states of the calls to ``LatencyTable.scales``, which only
        the array path makes."""
        calls = []
        scales = LatencyTable.scales
        monkeypatch.setattr(
            LatencyTable, "scales", lambda *a: calls.append(a[1]) or scales(*a)
        )
        return calls

    @pytest.mark.parametrize("name", ["empty", "single", "full"])
    @pytest.mark.parametrize("eps, seed", [(0.02, 11), (0.0, 12), (0.0, None)])
    def test_one_record_trace(self, name, eps, seed, monkeypatch):
        calls = self.counted(monkeypatch)
        strategy = self.strategies[name]
        start = 3.25
        for state in self.states:
            trace = StateTrace.constant(state)
            execd = self.both(trace, t_start_ms=start, eps=eps, seed=seed, strategy=strategy)
            start = execd.finish_ms
        assert calls == self.states

    def test_compute_bound_layers(self):
        from test_latency import mixed_chain

        self.network, self.offline = mixed_chain()
        table = LatencyTable(self.network, self.offline, self.device)
        selectable = self.network.selectable_backward()
        for selected in ((), selectable[:1], selectable):
            strategy = UpdateStrategy(self.network.n_layers, selected)
            for state in self.states:
                trace = StateTrace.constant(state)
                self.both(trace, eps=0.05, seed=6, strategy=strategy, table=table)
                self.both(trace, strategy=strategy, table=table)

    def test_last_record_mid_call(self, monkeypatch):
        idle, hot = self.states[0], self.states[4]
        strategy = self.strategy
        starts = self.run_starts(StateTrace.constant(idle))
        # three records: the step loop runs up to the last one, then the
        # array path takes over from the run starting on it; the middle
        # record holds an equal state, so the run times before the last
        # record are those of the constant trace
        for k in (2, 30, len(starts) - 1):
            trace = StateTrace(
                records=(
                    (0.0, idle),
                    (starts[k // 2], dataclasses.replace(idle)),
                    (starts[k], hot),
                ),
                horizon_ms=math.inf,
            )
            self.both(trace, eps=0.03, seed=k)
            calls = self.counted(monkeypatch)
            reads = []
            state_at = StateTrace.state_at
            monkeypatch.setattr(
                StateTrace, "state_at", lambda s, t: reads.append(t) or state_at(s, t)
            )
            execd = execute_ground_truth(self.table, trace, strategy)
            monkeypatch.undo()
            assert calls == [hot]
            assert reads == [0.0, starts[k // 2], starts[k]]
            # the run starting on the last record takes the hot state
            assert self.both(trace).finish_ms == execd.finish_ms

    def test_start_after_the_last_record(self, monkeypatch):
        calls = self.counted(monkeypatch)
        trace = StateTrace(
            records=((0.0, self.states[1]), (5.0, self.states[3])), horizon_ms=math.inf
        )
        for strategy in self.strategies.values():
            execd = self.both(trace, t_start_ms=7.5, eps=0.01, seed=2, strategy=strategy)
            assert execd.start_ms == 7.5
            self.both(trace, t_start_ms=5.0, strategy=strategy)
        assert len(calls) == 6

    @pytest.mark.parametrize("records", [1, 3])
    def test_horizon_crossed_mid_call(self, records, monkeypatch):
        idle = self.states[0]
        strategy = self.strategy
        starts = self.run_starts(StateTrace.constant(idle))
        horizon = (starts[40] + starts[41]) / 2
        trace = StateTrace(
            records=tuple((starts[3 * k], idle) for k in range(records)),
            horizon_ms=horizon,
        )
        calls = self.counted(monkeypatch)
        with pytest.raises(TraceExhausted) as got:
            execute_ground_truth(self.table, trace, strategy)
        with pytest.raises(TraceExhausted) as want:
            reference_execute(
                self.network, self.offline, self.device, trace.state_at,
                strategy, strategy.deepest,
            )
        assert str(got.value) == str(want.value)
        assert f"t={starts[41]:.3f} ms" in str(got.value)
        assert calls == [idle]
        # a call whose last run starts on the horizon finishes past it
        self.both(StateTrace.constant(idle, horizon_ms=starts[-1]))

    def test_overflow_as_the_reference_without_warning(self):
        # python floats overflow to inf silently, and so must the arrays
        trace = StateTrace.constant(self.states[4])
        big = 1.7976931348623157e308
        self.both(trace, t_start_ms=big, strategy=self.strategies["single"])
        t_f = self.offline.t_f.copy()
        t_f[20] = 1e308
        self.offline = OfflineProfile(t_f=t_f, t_b=self.offline.t_b, t_re=self.offline.t_re)
        table = LatencyTable(self.network, self.offline, self.device)
        execd = self.both(trace, eps=0.02, seed=1, table=table)
        assert execd.f_exec[20] == math.inf and execd.finish_ms == math.inf
        # finite latencies whose forward total overflows: on the array path,
        # and, from a start that keeps the clock finite, in the step loop
        hot = self.states[1]
        t_f = t_f.copy()
        t_f[[3, 6, 20]] = 8.9e307, 8.9e307, 0.5
        self.offline = OfflineProfile(t_f=t_f, t_b=self.offline.t_b, t_re=self.offline.t_re)
        table = LatencyTable(self.network, self.offline, self.device)
        execd = self.both(StateTrace.constant(hot), table=table)
        assert execd.t_f_total == math.inf and execd.finish_ms == math.inf
        ahead = StateTrace(records=((0.0, hot), (1e308, hot)), horizon_ms=math.inf)
        execd = self.both(ahead, t_start_ms=-1e308, table=table)
        assert execd.t_f_total == math.inf and execd.finish_ms < 1e308

    def test_nan_start(self):
        trace = StateTrace(
            records=((0.0, self.states[0]), (2.0, self.states[1])), horizon_ms=math.inf
        )
        for trace in (trace, StateTrace.constant(self.states[0])):
            with pytest.raises(InputError, match="must be a number"):
                execute_ground_truth(
                    self.table, trace, self.strategy, t_start_ms=math.nan
                )

    def test_plan_kept_across_states(self):
        # each run's slot, layer and offline latency are built once per
        # strategy, read-only and independent of the state; the array path
        # prices them with the scales of the state it reads
        table = LatencyTable(self.network, self.offline, self.device)
        full = self.strategy
        n = self.network.n_layers
        steps, slots, layers, t_off = table._plan(full)
        assert table._plan(full)[0] is steps
        assert slots.tolist() == [slot for slot, _, _ in steps]
        assert layers.tolist() == [slot % (n + 1) for slot, _, _ in steps]
        assert t_off.tolist() == [t for _, t, _ in steps]
        for array in (slots, layers, t_off):
            with pytest.raises(ValueError):
                array[0] = 0
        for state in self.states + self.states[::-1]:
            execd = execute_ground_truth(table, StateTrace.constant(state), full)
            plan = table._plan(full)
            assert all(kept is built for kept, built in zip(plan, (steps, slots, layers, t_off)))
            out = np.concatenate([execd.f_exec, execd.dw_exec, execd.dx_exec, execd.re_exec])
            assert np.array_equal(out[slots], table.scales(state)[layers] * t_off)


def _same_object(derived, built):
    """``derived`` holds what the public constructor put into ``built``:
    equal fields of the same types, arrays C-contiguous float64."""
    assert type(derived) is type(built)
    assert list(vars(derived)) == list(vars(built))
    for name, value in vars(built).items():
        got = vars(derived)[name]
        if isinstance(value, np.ndarray):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, value), name
        elif isinstance(value, Embedding):
            _same_object(got, value)
        else:
            assert type(got) is type(value) and got == value, name
            if isinstance(value, tuple):
                assert [type(x) for x in got] == [type(x) for x in value], name


class TestTrustedDerivations:
    """The per-batch objects an episode derives without the public
    constructors' checks hold exactly what those constructors would build."""

    def setup_method(self):
        network = synthetic_network(12)
        shifts = (Shift(batch_index=1, layers=(2, 5), mean_offset_sigmas=1.5, var_scale=2.0),)
        # numpy integer channel counts: the derived widths are still ints
        self.env = EnvironmentSpec(
            channels=tuple(np.int64(l.channels) for l in network.layers),
            positions=tuple(max(1, l.out_elements // l.channels) for l in network.layers),
            base_means=tuple(np.zeros(l.channels) for l in network.layers),
            base_vars=tuple(np.ones(l.channels) for l in network.layers),
            shifts=shifts,
            batch_size=3,
        )
        self.model = ModelResponseState.from_environment(self.env, adaptation_gain=0.5)
        self.n = network.n_layers

    @pytest.mark.parametrize("exact", [False, True])
    def test_sampled_stats(self, exact):
        stats = generate_batch(self.env, self.model, 1, np.random.default_rng(3), exact)
        built = Embedding(stats.means.copy(), stats.variances.copy(), self.env.channels)
        _same_object(stats, built)

    def test_observed_embedding(self):
        got = observed_embeddings(self.env, self.model, 1)
        _same_object(got, Embedding(got.means.copy(), got.variances.copy(), self.env.channels))

    def test_updated_model(self):
        means, variances = self.env.params_at(1)
        got = apply_update(self.model, UpdateStrategy(self.n, (1, 4, 7)), means, variances)
        _same_object(
            got,
            ModelResponseState(got.means.copy(), got.variances.copy(), self.model.widths, 0.5),
        )

    def test_blended_history(self):
        rng = np.random.default_rng(4)
        first = generate_batch(self.env, self.model, 0, rng)
        second = generate_batch(self.env, self.model, 1, rng)
        history = EmbeddingHistory.seed(first, alpha=0.25)
        got = update_history(history, second)
        built = EmbeddingHistory(
            Embedding(
                0.25 * second.means + 0.75 * first.means,
                0.25 * second.variances + 0.75 * first.variances,
                first.widths,
            ),
            alpha=0.25,
        )
        _same_object(got, built)

    def test_execution_result(self):
        # the totals are each phase's own pairwise reduction
        from ttasched.pipeline import _execution_result

        rng = np.random.default_rng(5)
        for n in list(range(1, 40)) + [95, 200, 1000]:
            out = 10.0 ** rng.uniform(-300, 300, 4 * (n + 1))
            out[rng.random(out.size) < 0.3] = 0.0
            got = _execution_result(out, n, 1.5, 7.25)
            f, dw, dx, re = (phase.copy() for phase in out.reshape(4, n + 1))
            for phase, want in zip((got.f_exec, got.dw_exec, got.dx_exec, got.re_exec),
                                   (f, dw, dx, re)):
                assert phase.dtype == np.float64 and np.array_equal(phase, want)
            totals = (float(f.sum()), float(dw.sum() + dx.sum()), float(re.sum()))
            assert (got.t_f_total, got.t_b_total, got.t_re_total) == totals
            assert got.t_total == totals[0] + totals[1] + totals[2]
            assert (got.start_ms, got.finish_ms) == (1.5, 7.25)
            assert all(type(getattr(got, name)) is float for name in (
                "start_ms", "finish_ms", "t_f_total", "t_b_total", "t_re_total", "t_total"))

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_batch_records(self, mode):
        # every field is set, in field order, so the records compare, hash
        # and print as the constructor's and the CSV reads them in order
        report = run_episode(dataclasses.replace(drift_scenario(), mode=mode))
        fields = list(BatchRecord.__dataclass_fields__)
        assert len(fields) == 27
        for rec in report.records:
            built = BatchRecord(**vars(rec))
            _same_object(rec, built)
            assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
            assert list(vars(rec)) == fields


def reference_replay(scenario, rng, table, inter) -> float:
    """The full-update replay as one executor call per batch."""
    network = scenario.network
    full = UpdateStrategy(network.n_layers, network.selectable_backward())
    prev_finish = 0.0
    total = 0.0
    for i in range(scenario.batches):
        start = max(i * inter, prev_finish)
        execd = execute_ground_truth(
            table, scenario.trace, full, jitter_eps=scenario.jitter_eps, rng=rng,
            t_start_ms=start,
        )
        pipeline._check_finish(execd.finish_ms, f"full-update replay batch {i}")
        total += execd.t_total
        prev_finish = execd.finish_ms
    return total / scenario.batches


class TestFullUpdateReplay:
    """The replay runs the batches with no trace record ahead of their
    start as array blocks; it matches one executor call per batch bit for
    bit, draws the same jitter stream and raises the same errors."""

    def replay(self, scenario, seed=9):
        """The replay's mean and the next draw of its stream, and the same
        from the reference."""
        table = _table_for(scenario.network, scenario.offline, scenario.device)
        inter = float(np.sum(scenario.offline.t_f))
        if scenario.inter_batch_ms is not None:
            inter = scenario.inter_batch_ms
        outcomes = []
        for replay in (pipeline._replay_full_updates, reference_replay):
            rng = np.random.default_rng(seed)
            mean = replay(scenario, rng, table, inter)
            outcomes.append((repr(mean), rng.random()))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_one_record_scenarios(self):
        drift = drift_scenario()
        for scenario in (
            drift,
            zero_shift_scenario(),
            controller_scenario(),
            dataclasses.replace(drift, mode="parallel"),
            dataclasses.replace(drift, jitter_eps=0.0),
            dataclasses.replace(drift, batches=1),
            # arrivals slower than a full update: every batch starts on arrival
            dataclasses.replace(drift, inter_batch_ms=500.0),
        ):
            self.replay(scenario)

    @pytest.mark.parametrize("until_ms", [0.0, 40.0, 1500.0, 5000.0])
    def test_time_varying_trace(self, until_ms, monkeypatch):
        # records up to the first batch, inside it, mid-replay, and past its
        # end near 3.5 s
        base = drift_scenario()
        scenario = dataclasses.replace(base, trace=cycling_trace(base, until_ms))
        self.replay(scenario)
        self.replay(dataclasses.replace(scenario, jitter_eps=0.0))
        # blocks of a few batches draw the stream of one block
        monkeypatch.setattr(pipeline, "_REPLAY_ROWS", 5)
        self.replay(scenario)

    def test_blocks_of_any_size(self, monkeypatch):
        scenario = dataclasses.replace(drift_scenario(), batches=13)
        want = self.replay(scenario)
        for rows in (1, 2, 12, 13):
            monkeypatch.setattr(pipeline, "_REPLAY_ROWS", rows)
            assert self.replay(scenario) == want

    @pytest.mark.parametrize("until_ms", [0.0, 800.0, 1695.0])
    @pytest.mark.parametrize("rows", [512, 4])
    @pytest.mark.parametrize("inter", [None, 150.0])
    def test_horizon_crossed_mid_replay(self, until_ms, rows, inter, monkeypatch):
        # the replay's batches finish every ~0.1 s from 0.1 s to 2.5 s, each
        # starting on the previous finish, or on its arrival when batches
        # arrive every 150 ms; a horizon at 1.7 s is crossed by a block, or
        # by an executor call when the last record falls just before it
        monkeypatch.setattr(pipeline, "_REPLAY_ROWS", rows)
        base = drift_scenario()
        scenario = dataclasses.replace(
            base, trace=cycling_trace(base, until_ms, horizon_ms=1700.0)
        )
        table = _table_for(scenario.network, scenario.offline, scenario.device)
        inter = inter or float(np.sum(scenario.offline.t_f))
        errors = []
        for replay in (pipeline._replay_full_updates, reference_replay):
            with pytest.raises(TraceExhausted) as got:
                replay(scenario, np.random.default_rng(3), table, inter)
            errors.append(str(got.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("trace exhausted: t=1")
        assert errors[0].endswith(" ms beyond horizon 1700.000 ms")

    def test_start_past_the_horizon(self):
        # the block's first batch starts past the horizon: the executor's
        # first read raises there
        base = drift_scenario()
        scenario = dataclasses.replace(
            base,
            trace=StateTrace.constant(resource_conditions()["offline"], horizon_ms=0.0),
            inter_batch_ms=1.0,
        )
        table = _table_for(scenario.network, scenario.offline, scenario.device)
        errors = []
        for replay in (pipeline._replay_full_updates, reference_replay):
            with pytest.raises(TraceExhausted) as got:
                replay(scenario, np.random.default_rng(3), table, 1.0)
            errors.append(str(got.value))
        assert errors[0] == errors[1]


class TestApplyUpdate:
    def test_full_gain_matches_environment(self):
        net = recovery_network(4)
        env = simple_env(
            net, shifts=(Shift(batch_index=0, layers=(1,), mean_offset_sigmas=2.0),)
        )
        model = ModelResponseState.from_environment(env, adaptation_gain=1.0)
        em, ev = env.params_at(0)
        updated = apply_update(model, UpdateStrategy(4, (3,)), em, ev)  # forward 1
        span = layer_slice(env, 1)
        assert np.allclose(updated.means[span], em[span])
        obs = observed_embeddings(env, updated, 0)
        assert np.allclose(obs.means[span], 0.0)

    def test_half_gain_halves_gap(self):
        net = recovery_network(2)
        env = simple_env(
            net, shifts=(Shift(batch_index=0, layers=(0,), mean_offset_sigmas=4.0),)
        )
        model = ModelResponseState.from_environment(env, adaptation_gain=0.5)
        em, ev = env.params_at(0)
        updated = apply_update(model, UpdateStrategy(2, (2,)), em, ev)
        assert np.allclose(updated.means[layer_slice(env, 0)], 2.0)

    def test_empty_strategy_no_change(self):
        net = recovery_network(2)
        env = simple_env(net)
        model = ModelResponseState.from_environment(env)
        em, ev = env.params_at(0)
        updated = apply_update(model, UpdateStrategy(2, ()), em, ev)
        assert updated is model


def reference_apply_update(model, strategy, env_means, env_vars):
    """The update as one slice assignment per selected layer, the way
    ``apply_update`` computed it before it blended the whole chain under a
    channel mask."""
    if strategy.is_empty:
        return model
    g = model.adaptation_gain
    n = len(model.widths)
    bounds = np.concatenate(([0], np.cumsum(model.widths)))
    means = model.means.copy()
    varis = model.variances.copy()
    for b in strategy.selected:
        lo, hi = bounds[n - b], bounds[n - b + 1]
        means[lo:hi] = means[lo:hi] + g * (env_means[lo:hi] - means[lo:hi])
        varis[lo:hi] = varis[lo:hi] + g * (env_vars[lo:hi] - varis[lo:hi])
    return ModelResponseState(means, varis, model.widths, g)


class TestApplyUpdateMatchesReference:
    def setup_method(self):
        # widths on both sides of numpy's 8-wide unroll and a single channel
        widths = (1, 7, 8, 9, 129, 3)
        self.env = EnvironmentSpec(
            channels=widths,
            positions=(1,) * len(widths),
            base_means=tuple(np.linspace(-1.0, 1.0, w) for w in widths),
            base_vars=tuple(np.linspace(0.3, 3.0, w) for w in widths),
            shifts=(
                Shift(batch_index=1, layers=(0, 2, 4), mean_offset_sigmas=1.3, var_scale=1.7),
                Shift(batch_index=2, layers=(1, 5), mean_offset_sigmas=-0.7, var_scale=0.4),
            ),
            batch_size=1,
        )

    @pytest.mark.parametrize(
        "selected", [(), (3,), (1, 4, 6), (2, 5), (1, 2, 3, 4, 5, 6)],
        ids=["empty", "single", "ragged", "ragged-even", "all"],
    )
    @pytest.mark.parametrize("gain", [1.0, 0.37])
    def test_bit_identical_to_per_layer_slices(self, selected, gain):
        model = ModelResponseState.from_environment(self.env, adaptation_gain=gain)
        # a model already off the environment, so every blend moves it
        model = reference_apply_update(
            model, UpdateStrategy(6, (2, 3, 6)), *self.env.params_at(1)
        )
        strategy = UpdateStrategy(6, selected)
        env_means, env_vars = self.env.params_at(2)
        got = apply_update(model, strategy, env_means, env_vars)
        want = reference_apply_update(model, strategy, env_means, env_vars)
        assert got.means.tolist() == want.means.tolist()
        assert got.variances.tolist() == want.variances.tolist()
        assert got.widths == model.widths
        assert got.adaptation_gain == gain
        if selected:
            assert not np.shares_memory(got.means, model.means)
            assert not np.shares_memory(got.variances, model.variances)
            assert not np.shares_memory(got.means, env_means)
            assert not np.shares_memory(got.variances, env_vars)
        else:
            assert got is model


class TestSigmaController:
    CONFIG = ControllerConfig(enabled=True)

    def test_on_target_unchanged(self):
        assert sigma_controller([1.5, 1.5, 1.5], 0.5, self.CONFIG) == 0.5

    def test_high_turnaround_decreases_toward_floor(self):
        sigma = 1.0
        values = []
        for _ in range(40):
            sigma = sigma_controller([5.0] * 5, sigma, self.CONFIG)
            values.append(sigma)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(self.CONFIG.sigma_min)

    def test_floor_clamps(self):
        assert sigma_controller([9.0] * 5, 0.1, self.CONFIG) == 0.1

    def test_low_turnaround_increases_to_ceiling(self):
        assert sigma_controller([1.0] * 5, 1.0, self.CONFIG) == 1.0
        assert sigma_controller([1.0] * 5, 0.5, self.CONFIG) == pytest.approx(0.55)

    def test_empty_history_noop(self):
        assert sigma_controller([], 0.4, self.CONFIG) == 0.4


class TestRunEpisode:
    def test_zero_shift_all_empty_and_forward_ratio(self):
        report = run_episode(zero_shift_scenario())
        assert all(not rec.selected for rec in report.records)
        assert all(rec.executed_re_ms == 0.0 for rec in report.records)
        # with every strategy empty the ratio degenerates to the forward
        # share of the full pipeline
        assert report.aggregates.latency_ratio_vs_full == pytest.approx(
            1.0 / 6.0, rel=0.05
        )

    def test_unconstrained_budget_captures_everything_post_shift(self):
        scenario = dataclasses.replace(
            drift_scenario(), sigma=1.0, jitter_eps=0.0, exact_stats=True
        )
        report = run_episode(scenario)
        rec = report.records[5]  # first post-shift batch
        assert rec.capture_ratio == pytest.approx(1.0, abs=1e-9)
        # every drifted layer is taken; ties prefer the cheaper strategy, so
        # zero-importance layers stay out
        shifted_backward = {scenario.network.backward_index(i) for i in (18, 19, 21)}
        assert shifted_backward <= set(rec.selected)
        assert rec.importance_captured == rec.importance_total

    def test_single_shifted_layer_stays_selected_while_gap_open(self):
        # one layer drifts at batch 5; with a slow adaptation gain its gap
        # persists, and the scheduler must keep picking it (>= 90% of
        # post-shift batches; pilot runs measured 100%)
        base = drift_scenario()
        env = dataclasses.replace(
            base.environment,
            shifts=(Shift(batch_index=5, layers=(19,), mean_offset_sigmas=2.0),),
        )
        scenario = dataclasses.replace(
            base, environment=env, adaptation_gain=0.25, batches=20
        )
        report = run_episode(scenario)
        b_shift = scenario.network.backward_index(19)
        post = report.records[5:]
        picked = sum(1 for rec in post if b_shift in rec.selected)
        assert picked / len(post) >= 0.9

    def test_loss_never_increases_at_full_gain_exact_mode(self):
        scenario = dataclasses.replace(drift_scenario(), exact_stats=True, jitter_eps=0.0)
        report = run_episode(scenario)
        for rec in report.records:
            assert rec.loss_after <= rec.loss_before + 1e-9
        shift_batch = report.records[5]
        assert shift_batch.loss_after < shift_batch.loss_before

    def test_budget_compliance_noise_free(self):
        scenario = dataclasses.replace(drift_scenario(), jitter_eps=0.0)
        report = run_episode(scenario)
        for rec in report.records:
            extra = rec.predicted_b_ms + rec.predicted_re_ms
            assert extra <= rec.budget_ms + 1e-9
            executed_extra = rec.executed_b_ms + rec.executed_re_ms
            assert executed_extra <= rec.budget_ms * (1 + 1e-9) + 1e-9

    def test_latency_identity_against_cost_model(self):
        from ttasched.latency import build_profile

        scenario = dataclasses.replace(drift_scenario(), jitter_eps=0.0)
        report = run_episode(scenario)
        profile = build_profile(
            scenario.network,
            scenario.offline,
            scenario.device,
            resource_conditions()["offline"],
        )
        for rec in report.records:
            cost = closed_form_cost(profile, rec.selected)
            assert rec.executed_b_ms == pytest.approx(cost.t_backward, rel=1e-9, abs=1e-12)
            assert rec.executed_re_ms == pytest.approx(cost.t_reforward, rel=1e-9, abs=1e-12)
            assert rec.executed_total_ms == pytest.approx(
                profile.t_f_total + cost.t_total_extra, rel=1e-9
            )

    def test_sequential_turnaround_at_least_one(self):
        report = run_episode(drift_scenario())
        assert all(rec.r >= 1.0 for rec in report.records)

    def test_slow_arrivals_make_unit_turnaround(self):
        scenario = drift_scenario()
        t_f_total = float(np.sum(scenario.offline.t_f))
        lazy = dataclasses.replace(scenario, inter_batch_ms=50 * t_f_total, batches=6)
        report = run_episode(lazy)
        assert all(rec.r == 1.0 for rec in report.records)
        assert report.aggregates.total_wait_ms == 0.0

    def test_parallel_mode_logs_staleness(self):
        scenario = dataclasses.replace(drift_scenario(), mode="parallel")
        report = run_episode(scenario)
        assert all(rec.wait_ms == 0.0 for rec in report.records)
        assert all(rec.r == 1.0 for rec in report.records)
        assert all(rec.staleness >= 0 for rec in report.records)
        assert any(rec.staleness > 0 for rec in report.records[1:])

    @pytest.mark.parametrize("make", [drift_scenario, controller_scenario])
    def test_parallel_staleness_matches_the_report_columns(self, make):
        # a batch is as stale as the batches since the last one whose
        # adaptation had finished when it arrived
        report = run_episode(dataclasses.replace(make(), mode="parallel", batches=60))
        records = report.records
        for rec in records:
            done = [r.index for r in records[: rec.index] if r.finish_ms <= rec.arrival_ms]
            assert rec.staleness == rec.index - 1 - (done[-1] if done else -1)
        assert len({rec.staleness for rec in records}) > 1

    def test_controller_window_longer_than_the_episode(self):
        # the window's mean covers every turnaround so far, as a list would
        base = controller_scenario()
        long_window = dataclasses.replace(base.controller, window=10**9)
        whole = dataclasses.replace(base.controller, window=base.batches)
        a = run_episode(dataclasses.replace(base, controller=long_window))
        b = run_episode(dataclasses.replace(base, controller=whole))
        assert report_json(a) == report_json(b)
        assert a.aggregates.final_sigma != base.sigma

    def test_controller_reduces_sigma_under_pressure(self):
        report = run_episode(controller_scenario())
        sigmas = [rec.sigma for rec in report.records]
        assert sigmas[-1] < sigmas[0]
        assert report.aggregates.final_sigma >= ControllerConfig().sigma_min

    def test_deterministic_reports(self):
        a = report_json(run_episode(drift_scenario()))
        b = report_json(run_episode(drift_scenario()))
        assert a == b
        ca = report_csv(run_episode(drift_scenario()))
        cb = report_csv(run_episode(drift_scenario()))
        assert ca == cb

    def test_different_seed_differs(self):
        a = report_json(run_episode(drift_scenario(seed=7)))
        b = report_json(run_episode(drift_scenario(seed=8)))
        assert a != b

    def test_single_batch_episode(self):
        scenario = dataclasses.replace(drift_scenario(), batches=1)
        report = run_episode(scenario)
        assert len(report.records) == 1
        assert report.aggregates.batches == 1
        assert report.records[0].selected == ()  # history seeds on batch 0

    def test_trace_exhaustion_is_reported(self):
        scenario = drift_scenario()
        short = dataclasses.replace(
            scenario,
            trace=StateTrace(
                records=((0.0, resource_conditions()["offline"]),), horizon_ms=1.0
            ),
        )
        with pytest.raises(TraceExhausted, match="trace exhausted"):
            run_episode(short)
