import math

import numpy as np
import pytest

from ttasched.errors import InputError, TraceExhausted
from ttasched.latency import (
    COMPUTE_BOUND,
    DeviceSpec,
    ExpansionFactors,
    OfflineProfile,
    StateTrace,
    SystemState,
    build_profile,
    calibrate_proc_overhead,
    eta,
    expansion_factors,
    pi1,
    pi2,
    predict_layer_latency,
    profile_from_document,
    profile_to_document,
    split_backward,
)
from ttasched.network import LayerSpec
from ttasched.presets import (
    demo_device,
    offline_from_costs,
    resource_conditions,
    synthetic_network,
)


def flat_device(**overrides):
    kwargs = dict(
        peak_flops=1e12,
        b_cache=24e9,
        b_dram=8e9,
        dvfs=((25.0, 2.0e9),),
        proc_overhead_k=0.5,
        tem_off=25.0,
        phi_off=1.0,
    )
    kwargs.update(overrides)
    return DeviceSpec(**kwargs)


class TestDeviceSpec:
    def test_bandwidth_ordering_enforced(self):
        with pytest.raises(InputError):
            flat_device(b_cache=1e9, b_dram=2e9)

    def test_dvfs_must_be_non_increasing(self):
        with pytest.raises(InputError):
            flat_device(dvfs=((25.0, 1e9), (60.0, 2e9)))

    def test_freq_steps_to_next_hotter_knot(self):
        dev = flat_device(dvfs=((25.0, 2.0e9), (60.0, 1.0e9)))
        assert dev.freq(25.0) == 2.0e9
        assert dev.freq(40.0) == 1.0e9  # between knots: the slower clock
        assert dev.freq(60.0) == 1.0e9
        assert dev.freq(90.0) == 1.0e9  # beyond the table: last knot


class TestPi1:
    def test_offline_state_is_unity(self):
        assert pi1(flat_device(), SystemState(n=0, tem_on=25.0, phi=1.0)) == 1.0

    def test_halved_frequency_doubles(self):
        dev = flat_device(dvfs=((25.0, 2.0e9), (60.0, 1.0e9)))
        assert pi1(dev, SystemState(n=0, tem_on=60.0, phi=1.0)) == 2.0

    def test_process_contention_linear(self):
        assert pi1(flat_device(), SystemState(n=3, tem_on=25.0, phi=1.0)) == 2.5

    def test_monotone_in_processes_and_temperature(self):
        dev = demo_device()
        prev = 0.0
        for n in range(6):
            value = pi1(dev, SystemState(n=n, tem_on=25.0, phi=1.0))
            assert value >= prev
            prev = value
        prev = 0.0
        for tem in (25.0, 40.0, 50.0, 60.0, 70.0, 80.0):
            value = pi1(dev, SystemState(n=0, tem_on=tem, phi=1.0))
            assert value >= prev
            prev = value


class TestCalibrateProcOverhead:
    def test_exact_linear_data_recovers_slope(self):
        samples = [(0, 1.0), (1, 1.5), (2, 2.0), (3, 2.5)]
        assert calibrate_proc_overhead(samples) == pytest.approx(0.5)

    def test_noisy_data_least_squares(self):
        rng = np.random.default_rng(0)
        k_true = 1.1
        samples = [
            (n, 1.0 + k_true * n + float(rng.normal(0, 0.02)))
            for n in range(0, 6)
            for _ in range(20)
        ]
        assert calibrate_proc_overhead(samples) == pytest.approx(k_true, abs=0.02)

    def test_fitted_slope_feeds_pi1(self):
        k = calibrate_proc_overhead([(1, 2.1), (2, 3.2), (3, 4.3)])
        dev = flat_device(proc_overhead_k=k)
        got = pi1(dev, SystemState(n=3, tem_on=25.0, phi=1.0))
        assert got == pytest.approx(1.0 + 3 * k)

    def test_unloaded_only_measurements_rejected(self):
        with pytest.raises(InputError, match="loaded measurement"):
            calibrate_proc_overhead([(0, 1.0), (0, 1.01)])

    def test_negative_trend_rejected(self):
        with pytest.raises(InputError, match="negative slope"):
            calibrate_proc_overhead([(1, 0.5), (2, 0.2)])


class TestPi2:
    def test_offline_hit_rate_is_unity(self):
        assert pi2(flat_device(), SystemState(n=0, tem_on=25.0, phi=1.0)) == 1.0
        dev = flat_device(phi_off=0.8)
        assert pi2(dev, SystemState(n=0, tem_on=25.0, phi=0.8)) == 1.0

    def test_thirty_percent_hits_with_3x_cache(self):
        # cache three times faster than DRAM, hit rate 0.3 -> factor 2.4
        assert pi2(flat_device(), SystemState(n=0, tem_on=25.0, phi=0.3)) == pytest.approx(2.4)

    def test_all_misses_reach_bandwidth_ratio(self):
        dev = flat_device()
        assert pi2(dev, SystemState(n=0, tem_on=25.0, phi=0.0)) == pytest.approx(3.0)

    def test_monotone_non_increasing_in_hit_rate(self):
        dev = flat_device()
        values = [
            pi2(dev, SystemState(n=0, tem_on=25.0, phi=phi))
            for phi in np.linspace(0.0, 1.0, 11)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_inverted_orientation_stays_below_one(self):
        dev = flat_device()
        value = pi2(dev, SystemState(n=0, tem_on=25.0, phi=0.3), dram_over_cache=True)
        assert value == pytest.approx(0.3 + 0.7 / 3.0)
        assert value < 1.0


def cost_layer(mac, mem):
    return LayerSpec(
        id=0,
        kind="conv2d",
        has_params=True,
        channels=1,
        out_elements=1,
        mac_count=mac,
        mem_traffic=mem,
    )


class TestEta:
    def test_two_ms_compute_one_ms_memory(self):
        dev = flat_device(b_cache=8e9, b_dram=1e9)
        assert eta(cost_layer(2 * 10**9, 8 * 10**6), dev) == pytest.approx(2.0)

    def test_pure_data_movement_is_zero(self):
        assert eta(cost_layer(0, 100), flat_device()) == 0.0

    def test_no_memory_traffic_is_compute_bound(self):
        assert eta(cost_layer(100, 0), flat_device()) == COMPUTE_BOUND


class TestPredictLayerLatency:
    def test_unity_factors_identity(self):
        assert predict_layer_latency(10.0, 1.0, ExpansionFactors(1.0, 1.0)) == 10.0

    def test_even_blend(self):
        assert predict_layer_latency(10.0, 1.0, ExpansionFactors(2.0, 4.0)) == 30.0

    def test_compute_bound_takes_compute_factor(self):
        got = predict_layer_latency(10.0, COMPUTE_BOUND, ExpansionFactors(1.6, 9.0))
        assert got == pytest.approx(16.0)

    def test_bracket_property_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(5000):
            t_off = float(rng.uniform(0.01, 50.0))
            e = float(rng.uniform(0.0, 100.0))
            p1 = float(rng.uniform(1.0, 8.0))
            p2 = float(rng.uniform(1.0, 8.0))
            got = predict_layer_latency(t_off, e, ExpansionFactors(p1, p2))
            lo, hi = sorted((p1 * t_off, p2 * t_off))
            assert lo * (1 - 1e-12) <= got <= hi * (1 + 1e-12)

    def test_monotone_in_eta(self):
        compute_heavy = ExpansionFactors(4.0, 1.5)
        memory_heavy = ExpansionFactors(1.5, 4.0)
        etas = np.linspace(0.0, 20.0, 50)
        up = [predict_layer_latency(1.0, e, compute_heavy) for e in etas]
        down = [predict_layer_latency(1.0, e, memory_heavy) for e in etas]
        assert all(a <= b for a, b in zip(up, up[1:]))
        assert all(a >= b for a, b in zip(down, down[1:]))
        flat = [predict_layer_latency(1.0, e, ExpansionFactors(2.0, 2.0)) for e in etas]
        assert len(set(flat)) == 1

    def test_negative_input_rejected(self):
        with pytest.raises(InputError):
            predict_layer_latency(-1.0, 1.0, ExpansionFactors(1.0, 1.0))
        with pytest.raises(InputError):
            predict_layer_latency(1.0, -0.5, ExpansionFactors(1.0, 1.0))


class TestSplitBackward:
    def test_conv_splits_evenly(self):
        t_dw, t_dx = split_backward(8.0, cost_layer(10, 10))
        assert (t_dw, t_dx) == (4.0, 4.0)

    def test_param_free_layer_all_activation(self):
        layer = LayerSpec(
            id=0, kind="activation", has_params=False, channels=1,
            out_elements=1, mac_count=1, mem_traffic=4,
        )
        assert split_backward(2.0, layer) == (0.0, 2.0)

    def test_zero_backward_time(self):
        assert split_backward(0.0, cost_layer(1, 1)) == (0.0, 0.0)

    def test_parts_sum_exactly_fuzz(self):
        rng = np.random.default_rng(22)
        layer = cost_layer(5, 5)
        for _ in range(2000):
            t_b = float(rng.uniform(0, 100))
            t_dw, t_dx = split_backward(t_b, layer)
            assert t_dw + t_dx == t_b


class TestBuildProfile:
    def setup_method(self):
        self.network = synthetic_network(9)
        self.device = demo_device()
        self.offline = offline_from_costs(self.network, self.device)

    def test_offline_state_reproduces_offline_bit_for_bit(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["offline"]
        )
        assert np.array_equal(profile.t_b, self.offline.t_b)
        assert np.array_equal(profile.t_re, self.offline.t_re)
        assert np.array_equal(profile.t_f, self.offline.t_f)

    def test_compute_bound_network_scales_by_pi1(self):
        layers = tuple(
            LayerSpec(id=i, kind="conv2d", has_params=True, channels=1,
                      out_elements=1, mac_count=1000, mem_traffic=0)
            for i in range(4)
        )
        from ttasched.network import Network

        net = Network(name="cb", layers=layers)
        offline = OfflineProfile(
            t_f=np.array([0.0, 1.0, 1.0, 1.0, 1.0]),
            t_b=np.array([0.0, 2.0, 2.0, 2.0, 2.0]),
            t_re=np.array([0.0, 1.0, 1.0, 1.0, 1.0]),
        )
        hot = SystemState(n=0, tem_on=60.0, phi=1.0)
        profile = build_profile(net, offline, self.device, hot)
        assert pi1(self.device, hot) == pytest.approx(1.6)
        assert profile.t_b_total == pytest.approx(1.6 * 8.0)

    def test_split_identity_every_layer(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["combined"]
        )
        assert np.array_equal(profile.t_dw + profile.t_dx, profile.t_b)

    def test_totals_decompose(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["cache_poor"]
        )
        assert profile.t_total == pytest.approx(
            profile.t_f_total + profile.t_b_total + profile.t_re_total
        )

    def test_missing_layers_rejected(self):
        short = OfflineProfile(
            t_f=np.zeros(3), t_b=np.zeros(3), t_re=np.zeros(3)
        )
        with pytest.raises(InputError):
            build_profile(self.network, short, self.device, resource_conditions()["offline"])

    def test_document_round_trip(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["combined"]
        )
        doc = profile_to_document(self.network, profile)
        again = profile_from_document(doc)
        assert np.allclose(again.t_b, profile.t_b)
        assert np.allclose(again.t_dw, profile.t_dw)
        assert np.array_equal(again.selectable, profile.selectable)


class TestResourceConditionTable:
    """The five bundled conditions reproduce the expansion factors the
    bundled device was designed around."""

    def test_factor_table(self):
        dev = demo_device()
        expected = {
            "offline": (1.0, 1.0),
            "hot": (1.6, 1.0),
            "contended": (4.3, 1.0),
            "cache_poor": (1.0, 2.4),
            "combined": (1.6 * 4.3, 2.4),
        }
        for name, (p1, p2) in expected.items():
            state = resource_conditions()[name]
            assert pi1(dev, state) == pytest.approx(p1), name
            assert pi2(dev, state) == pytest.approx(p2), name


class TestLoaders:
    def test_malformed_device_document(self):
        from ttasched.latency import load_device

        with pytest.raises(InputError, match="device document"):
            load_device({"peak_flops": 1e12})

    def test_offline_profile_missing_layer(self):
        from ttasched.latency import load_offline_profile

        doc = {"layers": [{"layer_id": 0, "t_f_ms": 1.0, "t_b_off_ms": 2.0,
                           "t_re_off_ms": 1.0}]}
        with pytest.raises(InputError, match="missing layer 1"):
            load_offline_profile(doc, n_layers=2)

    def test_offline_profile_missing_field_named(self):
        from ttasched.latency import load_offline_profile

        doc = {"layers": [{"layer_id": 0, "t_f_ms": 1.0, "t_b_off_ms": 2.0}]}
        with pytest.raises(InputError, match="t_re_off_ms"):
            load_offline_profile(doc, n_layers=1)

    def test_split_negative_rejected(self):
        with pytest.raises(InputError):
            split_backward(-1.0, cost_layer(1, 1))


class TestStateTrace:
    def test_horizon_before_last_record_rejected(self):
        with pytest.raises(InputError, match="horizon"):
            StateTrace(
                records=((5.0, SystemState(n=0, tem_on=25.0, phi=1.0)),),
                horizon_ms=1.0,
            )

    def test_step_lookup(self):
        trace = StateTrace(
            records=(
                (0.0, SystemState(n=0, tem_on=25.0, phi=1.0)),
                (100.0, SystemState(n=3, tem_on=60.0, phi=0.5)),
            ),
            horizon_ms=500.0,
        )
        assert trace.state_at(0.0).n == 0
        assert trace.state_at(99.9).n == 0
        assert trace.state_at(100.0).n == 3
        assert trace.state_at(500.0).n == 3

    def test_exhaustion(self):
        trace = StateTrace(
            records=((0.0, SystemState(n=0, tem_on=25.0, phi=1.0)),),
            horizon_ms=10.0,
        )
        with pytest.raises(TraceExhausted, match="trace exhausted"):
            trace.state_at(10.1)

    def test_before_first_record_gives_first_state(self):
        first = SystemState(n=1, tem_on=25.0, phi=1.0)
        trace = StateTrace(
            records=((50.0, SystemState(n=2, tem_on=25.0, phi=1.0)), (5.0, first)),
            horizon_ms=100.0,
        )
        assert trace.state_at(0.0) is first
        assert trace.state_at(-3.0) is first

    def test_record_timestamp_gives_that_record(self):
        states = [SystemState(n=k, tem_on=25.0, phi=1.0) for k in range(4)]
        trace = StateTrace(
            records=tuple((10.0 * k, s) for k, s in enumerate(states)),
            horizon_ms=100.0,
        )
        for k, s in enumerate(states):
            assert trace.state_at(10.0 * k) is s
            assert trace.state_at(10.0 * k + 5.0) is s

    def test_duplicate_timestamps_give_the_last(self):
        a, b, c = (SystemState(n=k, tem_on=25.0, phi=1.0) for k in range(3))
        trace = StateTrace(records=((0.0, a), (10.0, b), (10.0, c)), horizon_ms=20.0)
        assert trace.state_at(9.9) is a
        assert trace.state_at(10.0) is c
        assert trace.state_at(20.0) is c

    def test_past_horizon_raises_after_many_records(self):
        trace = StateTrace(
            records=tuple(
                (float(k), SystemState(n=k, tem_on=25.0, phi=1.0)) for k in range(50)
            ),
            horizon_ms=49.5,
        )
        assert trace.state_at(49.5).n == 49
        with pytest.raises(TraceExhausted):
            trace.state_at(49.6)
        with pytest.raises(TraceExhausted):
            trace.state_at(math.inf)

    def test_nan_time_rejected(self):
        trace = StateTrace.constant(SystemState(n=0, tem_on=25.0, phi=1.0))
        with pytest.raises(InputError, match="must be a number"):
            trace.state_at(math.nan)
