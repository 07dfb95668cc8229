import dataclasses
import math

import numpy as np
import pytest

from ttasched.errors import InputError, TraceExhausted
from ttasched.latency import LatencyTable, StateTrace
from ttasched.network import UpdateStrategy, strategy_cost
from ttasched.pipeline import (
    ControllerConfig,
    EnvironmentSpec,
    ModelResponseState,
    Shift,
    apply_update,
    execute_ground_truth,
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
    """Per-layer (means, variances, sample count), drawn and computed layer
    by layer the way ``generate_batch`` did before it wrote into stacked
    arrays."""
    env_means, env_vars = reference_params_at(env, batch_index)
    out = []
    for layer in range(env.n_layers):
        span = layer_slice(env, layer)
        m = env.base_means[layer] + (env_means[layer] - model.means[span])
        v = env.base_vars[layer] * env_vars[layer] / model.variances[span]
        n = env.batch_size * env.positions[layer]
        c = env.channels[layer]
        mu = m + np.sqrt(v / n) * rng.standard_normal(c)
        var = v * rng.chisquare(n - 1, c) / n if n > 1 else np.zeros(c)
        out.append((mu, var, n))
    return out


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
                Shift(batch_index=5, layers=(4, 4, 1), mean_offset_sigmas=-0.7),
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

    def test_sampled_stats_match_per_layer_draws_bit_for_bit(self):
        env = self.ragged_env()
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
            for layer, (mu, var, n) in zip(stats, want):
                assert layer.means.tolist() == mu.tolist()
                assert layer.variances.tolist() == var.tolist()
                assert layer.sample_count == n
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestValidation:
    def test_shift_validation(self):
        with pytest.raises(InputError):
            Shift(batch_index=-1, layers=(0,), mean_offset_sigmas=1.0)
        with pytest.raises(InputError):
            Shift(batch_index=0, layers=(), mean_offset_sigmas=1.0)
        with pytest.raises(InputError):
            Shift(batch_index=0, layers=(0,), mean_offset_sigmas=1.0, var_scale=0.0)

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
        for st in stats:
            assert np.all(np.abs(st.means) <= 3 * se)

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
        for i, st in enumerate(before):
            assert np.all(np.abs(st.means) < 6 * se)
        for i, st in enumerate(after):
            if i in (3, 7):
                assert np.all(st.means > 2.0 - 6 * se)
            else:
                assert np.all(np.abs(st.means) < 6 * se)

    def test_same_seed_identical(self):
        net = recovery_network(3)
        env = simple_env(net)
        model = ModelResponseState.from_environment(env)
        a = generate_batch(env, model, 0, np.random.default_rng(9))
        b = generate_batch(env, model, 0, np.random.default_rng(9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.means, sb.means)
            assert np.array_equal(sa.variances, sb.variances)

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
        batches = [generate_batch(env, model, 0, rng)[0] for _ in range(2000)]
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
        for st in generate_batch(env, model, 0, np.random.default_rng(2)):
            assert st.sample_count == 1
            assert np.all(st.variances == 0.0)
            assert np.all(st.means != 0.0)

    def test_exact_mode_reports_distribution_parameters(self):
        net = recovery_network(2)
        env = simple_env(net)
        model = ModelResponseState.from_environment(env)
        stats = generate_batch(env, model, 0, np.random.default_rng(0), exact=True)
        assert np.all(stats[0].means == 0.0)
        assert np.all(stats[0].variances == 1.0)


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

    def test_noise_free_static_matches_prediction_exactly(self):
        from ttasched.latency import build_profile

        profile = build_profile(self.network, self.offline, self.device, self.state)
        full = UpdateStrategy(9, self.network.selectable_backward())
        execd = self.run(full)
        cost = strategy_cost(self.network, full, profile)
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
    from ttasched.latency import (
        eta,
        expansion_factors,
        predict_layer_latency,
        split_backward,
    )

    n = network.n_layers
    f_exec, dw_exec, dx_exec, re_exec = (np.zeros(n + 1) for _ in range(4))
    now = t_start_ms

    def run(b, t_off):
        nonlocal now
        layer = network.layer_by_backward(b)
        factors = expansion_factors(device, state_at(now))
        jitter = 1.0 if rng is None else float(rng.uniform(1.0 - jitter_eps, 1.0 + jitter_eps))
        lat = predict_layer_latency(t_off, eta(layer, device), factors) * jitter
        now += lat
        return lat

    for b in range(n, 0, -1):
        f_exec[b] = run(b, float(offline.t_f[b]))
    d = strategy.deepest
    for b in range(1, d + 1):
        dw_off, dx_off = split_backward(float(offline.t_b[b]), network.layer_by_backward(b))
        if b < d:
            dx_exec[b] = run(b, dx_off)
        if b in strategy.selected:
            dw_exec[b] = run(b, dw_off)
    for forward_id in range(network.forward_id(deepest), n) if deepest else ():
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


class TestExecutorTraceSegments:
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

    def both(self, trace, t_start_ms=0.0, eps=0.0, seed=None):
        """Run the executor and the reference; assert they agree."""
        rng = None if seed is None else np.random.default_rng(seed)
        ref_rng = None if seed is None else np.random.default_rng(seed)
        execd = execute_ground_truth(
            self.table, trace, self.strategy,
            jitter_eps=eps, rng=rng, t_start_ms=t_start_ms,
        )
        arrays, finish = reference_execute(
            self.network, self.offline, self.device, trace.state_at, self.strategy,
            self.strategy.deepest, jitter_eps=eps, rng=ref_rng, t_start_ms=t_start_ms,
        )
        for got, want in zip(
            (execd.f_exec, execd.dw_exec, execd.dx_exec, execd.re_exec), arrays
        ):
            assert np.array_equal(got, want)
        assert execd.finish_ms == finish
        if rng is not None:
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return execd

    def run_starts(self, trace, t_start_ms=0.0):
        """Start time of every layer run of a noise-free reference call."""
        starts = []

        def state_at(t_ms):
            starts.append(t_ms)
            return trace.state_at(t_ms)

        reference_execute(
            self.network, self.offline, self.device, state_at, self.strategy,
            self.strategy.deepest, t_start_ms=t_start_ms,
        )
        return starts

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
        assert np.allclose(obs[1].means, 0.0)

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
        from ttasched.network import strategy_cost as cost_fn

        scenario = dataclasses.replace(drift_scenario(), jitter_eps=0.0)
        report = run_episode(scenario)
        profile = build_profile(
            scenario.network,
            scenario.offline,
            scenario.device,
            resource_conditions()["offline"],
        )
        for rec in report.records:
            strategy = UpdateStrategy(scenario.network.n_layers, rec.selected)
            cost = cost_fn(scenario.network, strategy, profile)
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
