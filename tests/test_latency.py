import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ttasched.errors import InputError, TraceExhausted
from ttasched.latency import (
    COMPUTE_BOUND,
    DeviceSpec,
    LatencyProfile,
    LatencyTable,
    OfflineProfile,
    StateTrace,
    SystemState,
    _table_for,
    build_profile,
    eta,
    pi1,
    pi2,
    profile_from_document,
    profile_to_document,
)
from ttasched.network import LayerSpec, Network, UpdateStrategy
from ttasched.presets import (
    demo_device,
    demo_edge_device,
    offline_from_costs,
    recovery_network,
    resnet50_shaped,
    resource_conditions,
    synthetic_network,
)

from scalar_latency import blend, factors, split
from support import calibrate_proc_overhead


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


def dyadic_chain(etas, has_params=True):
    """A chain whose layer ``i`` has the ratio ``etas[i]`` (a multiple of
    2**-10, or inf) exactly on ``dyadic_device``, and its offline profile
    (forward 1, backward 2, reforward 1 per layer)."""
    layers = tuple(
        LayerSpec(id=i, kind="conv2d" if has_params else "activation",
                  has_params=has_params, channels=1, out_elements=1,
                  mac_count=2**10 if e == math.inf else int(e * 2**10),
                  mem_traffic=0 if e == math.inf else 2**5)
        for i, e in enumerate(etas)
    )
    n = len(etas)
    offline = OfflineProfile(
        t_f=np.r_[0.0, np.ones(n)], t_b=np.r_[0.0, np.full(n, 2.0)],
        t_re=np.r_[0.0, np.ones(n)],
    )
    return Network(name="dyadic", layers=layers), offline


def dyadic_device(**overrides):
    # a compute time of 2**-30 per 2**10 MACs and a memory time of 2**-30
    # per 2**5 bytes; a cache four times faster than DRAM
    return flat_device(peak_flops=2.0**40, b_cache=2.0**35, b_dram=2.0**33, **overrides)


class TestPredictLayerLatency:
    """The per-layer latency prediction: every layer's scale under a state
    (``LatencyTable.scales``), which ``build_profile`` and the executor
    multiply offline latencies by."""

    def test_unity_factors_identity(self):
        for case in REFERENCE_CASES:
            network, offline, device = reference_case(case)
            table = LatencyTable(network, offline, device)
            scale = table.scales(resource_conditions()["offline"])
            assert scale.tolist() == [1.0] * (network.n_layers + 1)

    def test_even_blend(self):
        # eta 1 weighs pi1 = 2 (two processes) and pi2 = 4 (all misses)
        # evenly
        network, offline = dyadic_chain([1.0])
        state = SystemState(n=2, tem_on=25.0, phi=0.0)
        device = dyadic_device()
        assert factors(device, state) == (2.0, 4.0)
        assert LatencyTable(network, offline, device).scales(state)[1] == 3.0
        profile = build_profile(network, offline, device, state)
        assert (profile.t_f[1], profile.t_b[1], profile.t_re[1]) == (3.0, 6.0, 3.0)

    def test_compute_bound_takes_compute_factor(self):
        network, offline = dyadic_chain([math.inf, 1.0])
        assert eta(network.layers[0], dyadic_device()) == COMPUTE_BOUND
        device = dyadic_device(dvfs=((25.0, 2.0e9), (60.0, 1.25e9)))
        state = SystemState(n=0, tem_on=60.0, phi=0.0)
        p1, p2 = factors(device, state)
        assert (p1, p2) == (1.6, 4.0)
        # layer id 0 is backward index 2
        assert LatencyTable(network, offline, device).scales(state)[2] == p1
        assert build_profile(network, offline, device, state).t_b[2] == 2.0 * p1

    def test_bracket_property_fuzz(self):
        rng = np.random.default_rng(21)
        for case in REFERENCE_CASES:
            network, offline, device = reference_case(case)
            table = LatencyTable(network, offline, device)
            for _ in range(200):
                state = SystemState(
                    n=int(rng.integers(0, 8)), tem_on=float(rng.uniform(20.0, 90.0)),
                    phi=float(rng.uniform(0.0, 1.0)),
                )
                lo, hi = sorted(factors(device, state))
                scale = table.scales(state)[1:]
                assert np.all(lo * (1 - 1e-12) <= scale) and np.all(scale <= hi * (1 + 1e-12))

    def test_monotone_in_eta(self):
        etas = np.arange(50) / 2.0
        network, offline = dyadic_chain(etas)
        device = dyadic_device()
        table = LatencyTable(network, offline, device)
        assert table.eta[::-1][:-1].tolist() == etas.tolist()
        compute_heavy = SystemState(n=6, tem_on=25.0, phi=0.5)
        memory_heavy = SystemState(n=1, tem_on=25.0, phi=0.0)
        assert factors(device, compute_heavy) == (4.0, 2.5)
        assert factors(device, memory_heavy) == (1.5, 4.0)
        # by forward id, so by increasing eta
        up = table.scales(compute_heavy)[::-1][:-1]
        down = table.scales(memory_heavy)[::-1][:-1]
        assert np.all(up[:-1] <= up[1:]) and up[0] < up[-1]
        assert np.all(down[:-1] >= down[1:]) and down[0] > down[-1]
        even = SystemState(n=6, tem_on=25.0, phi=0.0)
        assert factors(device, even) == (4.0, 4.0)
        assert set(table.scales(even)[1:].tolist()) == {4.0}

    def test_negative_input_rejected(self):
        # the prediction's inputs, a layer's offline latency and its eta,
        # cannot be negative where they enter: the offline profile, and the
        # layer costs whose ratio eta is
        network, offline = dyadic_chain([1.0])
        t_f = offline.t_f.copy()
        t_f[1] = -1.0
        with pytest.raises(InputError, match="^offline t_f must be finite and non-negative$"):
            OfflineProfile(t_f=t_f, t_b=offline.t_b, t_re=offline.t_re)
        for costs in (dict(mac_count=-1, mem_traffic=32), dict(mac_count=1024, mem_traffic=-32)):
            with pytest.raises(InputError, match="^layer 0: costs must be non-negative$"):
                LayerSpec(id=0, kind="conv2d", has_params=True, channels=1,
                          out_elements=1, **costs)

    def test_scales_follow_the_state(self):
        # the table keeps the last state's scales; a new state prices them
        # again, and a return to an earlier state gives that state's scales
        network, offline, device = reference_case("mixed")
        table = LatencyTable(network, offline, device)
        states = list(resource_conditions().values())
        seen = set()
        for state in states + states[::-1]:
            scale = table.scales(state)
            assert table.factors(state) == factors(device, state)
            assert np.array_equal(scale, LatencyTable(network, offline, device).scales(state))
            seen.add(tuple(scale.tolist()))
        assert len(seen) == len(states)


class TestSplitBackward:
    """``build_profile`` splits each layer's backward latency into its
    weight-gradient and activation-gradient shares."""

    def test_conv_splits_evenly(self):
        network, offline = dyadic_chain([1.0, 2.0])
        profile = build_profile(network, offline, dyadic_device(), resource_conditions()["offline"])
        assert profile.t_dw.tolist() == profile.t_dx.tolist() == [0.0, 1.0, 1.0]

    def test_param_free_layer_all_activation(self):
        network, offline = dyadic_chain([1.0, 2.0], has_params=False)
        profile = build_profile(network, offline, dyadic_device(), resource_conditions()["offline"])
        assert profile.t_dw.tolist() == [0.0, 0.0, 0.0]
        assert profile.t_dx.tolist() == [0.0, 2.0, 2.0]

    def test_zero_backward_time(self):
        network, offline = dyadic_chain([1.0])
        offline = OfflineProfile(t_f=offline.t_f, t_b=np.zeros(2), t_re=offline.t_re)
        profile = build_profile(network, offline, dyadic_device(), resource_conditions()["combined"])
        assert (profile.t_dw[1], profile.t_dx[1]) == (0.0, 0.0)

    def test_parts_sum_exactly_fuzz(self):
        rng = np.random.default_rng(22)
        for case in REFERENCE_CASES:
            network, offline, device = reference_case(case)
            for state in resource_conditions().values():
                t_b = np.r_[0.0, rng.uniform(0, 100, network.n_layers)]
                offline = OfflineProfile(t_f=offline.t_f, t_b=t_b, t_re=offline.t_re)
                profile = build_profile(network, offline, device, state)
                assert np.array_equal(profile.t_dw + profile.t_dx, profile.t_b)
                for b in range(1, network.n_layers + 1):
                    layer = network.layer_by_backward(b)
                    assert split(float(profile.t_b[b]), layer) == (
                        profile.t_dw[b], profile.t_dx[b]
                    )


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

    def test_negative_offline_latency_rejected(self):
        # offline latencies, the only ones scaled, enter through here
        for name in ("t_f", "t_b", "t_re"):
            arrays = dict(t_f=self.offline.t_f, t_b=self.offline.t_b, t_re=self.offline.t_re)
            arrays[name] = arrays[name].copy()
            arrays[name][2] = -1.0
            with pytest.raises(InputError, match=f"^offline {name} must be finite and non-negative$"):
                OfflineProfile(**arrays)

    def test_split_identity_enforced(self):
        profile = LatencyProfile.from_components(
            [0.0, 1.0, 1.0], [0.0, 0.5, 0.25], [0.0, 0.5, 0.75], [0.0, 1.0, 1.0]
        )
        assert np.array_equal(profile.t_b, [0.0, 1.0, 1.0])
        fields = {name: getattr(profile, name) for name in (
            "t_f", "t_b", "t_dw", "t_dx", "t_re", "eta", "selectable")}
        fields["t_b"] = np.array([0.0, 1.0, 1.5])
        with pytest.raises(InputError, match=r"t_b\[2\] \(layer_id 0\) must equal t_dw \+ t_dx"):
            LatencyProfile(**fields)

    def test_totals_equal_np_sum(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["combined"]
        )
        assert profile.t_f_total == float(np.sum(profile.t_f))
        assert profile.t_b_total == float(np.sum(profile.t_b))
        assert profile.t_re_total == float(np.sum(profile.t_re))

    def test_document_round_trip(self):
        profile = build_profile(
            self.network, self.offline, self.device, resource_conditions()["combined"]
        )
        doc = profile_to_document(self.network, profile)
        again = profile_from_document(doc)
        assert np.allclose(again.t_b, profile.t_b)
        assert np.allclose(again.t_dw, profile.t_dw)
        assert np.array_equal(again.selectable, profile.selectable)


def reference_build_profile(network, offline, device, state):
    """``build_profile`` as one scalar loop over the layers: each layer's
    eta, blend and backward split are computed afresh."""
    n = network.n_layers
    p1, p2 = factors(device, state)
    t_f, t_b, t_dw, t_dx, t_re, etas = (np.zeros(n + 1) for _ in range(6))
    selectable = np.zeros(n + 1, dtype=bool)
    for b in range(1, n + 1):
        layer = network.layer_by_backward(b)
        e = eta(layer, device)
        etas[b] = e
        selectable[b] = layer.has_params
        t_f[b] = blend(float(offline.t_f[b]), e, p1, p2)
        t_b[b] = blend(float(offline.t_b[b]), e, p1, p2)
        t_re[b] = blend(float(offline.t_re[b]), e, p1, p2)
        t_dw[b], t_dx[b] = split(float(t_b[b]), layer)
    return LatencyProfile(
        t_f=t_f, t_b=t_b, t_dw=t_dw, t_dx=t_dx, t_re=t_re, eta=etas,
        selectable=selectable,
    )


def mixed_chain():
    """Compute-bound (zero-traffic) and parameter-free layers, a zero-MAC
    layer, and ordinary ones, with non-dyadic offline latencies."""
    specs = [
        ("conv2d", True, 4000, 0),
        ("activation", False, 300, 900),
        ("pooling", False, 500, 0),
        ("linear", True, 0, 1200),
        ("batchnorm", True, 700, 2100),
        ("conv2d", True, 9000, 3300),
        ("activation", False, 0, 0),
        ("linear", True, 12345, 678),
    ]
    network = Network(
        name="mixed",
        layers=tuple(
            LayerSpec(id=i, kind=kind, has_params=params, channels=2,
                      out_elements=8, mac_count=mac, mem_traffic=mem)
            for i, (kind, params, mac, mem) in enumerate(specs)
        ),
    )
    rng = np.random.default_rng(21)
    draw = lambda: np.concatenate(([0.0], rng.uniform(0.01, 3.0, len(specs))))
    return network, OfflineProfile(t_f=draw(), t_b=draw(), t_re=draw())


REFERENCE_CASES = ("synthetic24", "resnet50_shaped", "mixed")


def reference_case(name):
    """(network, offline, device) of one of ``REFERENCE_CASES``."""
    device = demo_edge_device()
    if name == "mixed":
        network, offline = mixed_chain()
    else:
        network = synthetic_network(24) if name == "synthetic24" else resnet50_shaped()
        offline = offline_from_costs(network, device)
    return network, offline, device


PROFILE_ARRAYS = ("t_f", "t_b", "t_dw", "t_dx", "t_re", "eta", "selectable",
                  "cum_dx", "cum_re")
PROFILE_TOTALS = ("t_f_total", "t_b_total", "t_re_total", "t_total")
PROFILE_INPUTS = ("t_f", "t_b", "t_dw", "t_dx", "t_re", "eta", "selectable")


class TestBuildProfileMatchesReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_bit_identical_over_resource_conditions(self, case):
        network, offline, device = reference_case(case)
        for state in resource_conditions().values():
            got = build_profile(network, offline, device, state)
            want = reference_build_profile(network, offline, device, state)
            for field in PROFILE_ARRAYS:
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            for field in PROFILE_TOTALS:
                assert getattr(got, field) == getattr(want, field), field

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_trusted_profile_is_what_the_constructor_builds(self, case):
        network, offline, device = reference_case(case)
        for state in resource_conditions().values():
            got = build_profile(network, offline, device, state)
            want = LatencyProfile(
                **{name: getattr(got, name) for name in PROFILE_INPUTS}
            )
            assert type(got) is LatencyProfile
            assert list(vars(got)) == list(vars(want))
            for name, value in vars(want).items():
                derived = vars(got)[name]
                if isinstance(value, np.ndarray):
                    assert derived.dtype == value.dtype, name
                    assert derived.flags.writeable == value.flags.writeable, name
                    assert derived.tobytes() == value.tobytes(), name
                else:
                    assert type(derived) is float, name
                    assert math.copysign(1.0, derived) == math.copysign(1.0, value)
                    assert derived == value, name

    @example(5e-324)
    @example(3 * 5e-324)
    @example(2.2250738585072014e-308)  # the smallest normal
    @example(2.225073858507201e-308)  # the largest subnormal
    @example(1.7976931348623157e308)
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_weight_gradient_split_is_exact(self, t_b):
        # a one-layer chain at the offline state, where every scale is 1
        network = Network(
            name="one",
            layers=(LayerSpec(id=0, kind="conv2d", has_params=True, channels=1,
                              out_elements=1, mac_count=10, mem_traffic=10),),
        )
        offline = OfflineProfile(
            t_f=np.zeros(2), t_b=np.array([0.0, t_b]), t_re=np.zeros(2)
        )
        profile = build_profile(
            network, offline, demo_edge_device(), resource_conditions()["offline"]
        )
        assert profile.t_b[1] == t_b
        assert profile.t_dw[1] + profile.t_dx[1] == t_b
        assert profile.t_dw[1] >= 0.0 and profile.t_dx[1] >= 0.0

    def test_overflowing_latency_named_without_warning(self):
        network = synthetic_network(4)
        device = demo_edge_device()
        offline = offline_from_costs(network, device)
        t_re = offline.t_re.copy()
        t_re[2] = 1e308
        offline = OfflineProfile(t_f=offline.t_f, t_b=offline.t_b, t_re=t_re)
        combined = resource_conditions()["combined"]
        with pytest.raises(InputError, match=r"^profile t_re\[2\] must be finite"):
            build_profile(network, offline, device, combined)
        # finite latencies whose sum overflows are rejected, naming the
        # sum: the offline profile's own, or the scaled one
        t_f = offline.t_f.copy()
        t_f[1:] = 1e308
        with pytest.raises(InputError, match=r"^offline t_f total must be finite, got inf$"):
            OfflineProfile(t_f=t_f, t_b=offline.t_b, t_re=offline.t_re * 0)
        t_f[1:] = 4e307
        offline = OfflineProfile(t_f=t_f, t_b=offline.t_b, t_re=offline.t_re * 0)
        with pytest.raises(InputError, match=r"^profile t_f_total must be finite, got inf$"):
            build_profile(network, offline, device, combined)
        # an overflowing backward latency makes its split NaN
        t_b = offline.t_b.copy()
        t_b[3] = 1e308
        offline = OfflineProfile(t_f=offline.t_f * 0, t_b=t_b, t_re=offline.t_re)
        with pytest.raises(InputError, match=r"^profile t_b\[3\] must be finite"):
            build_profile(network, offline, device, combined)
        # a pairwise total can stay finite where the running prefix sum the
        # closed form reads does not
        network = synthetic_network(12)
        t_re = np.array([
            0.0, 8.348315107233777e306, 1.740892204421894e307, 1.1140571370536305e307,
            2.3785322092587336e307, 9.792421960288542e306, 1.5347497360069752e307,
            1.4421752510953444e307, 1.180472721818466e307, 2.0129714190358985e307,
            1.8436311856553548e307, 1.9758989987134954e307, 9.39476778811133e306,
        ])
        offline = OfflineProfile(t_f=np.zeros(13), t_b=np.zeros(13), t_re=t_re)
        assert float(t_re.sum()) < math.inf
        with pytest.raises(InputError, match=r"^profile cum_re must be finite, got inf$"):
            build_profile(network, offline, device, resource_conditions()["offline"])

    def test_mixed_chain_has_compute_bound_and_parameter_free_layers(self):
        network, offline = mixed_chain()
        table = LatencyTable(network, offline, demo_edge_device())
        assert np.sum(table.eta == COMPUTE_BOUND) == 3
        assert not table.selectable.all()
        assert table.eta[0] == 0.0

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for case in REFERENCE_CASES:
                network, offline, device = reference_case(case)
                table = LatencyTable(network, offline, device)
                for state in resource_conditions().values():
                    table.scales(state)
                    build_profile(network, offline, device, state)

    def test_scale_times_latency_is_predict_layer_latency(self):
        rng = np.random.default_rng(8)
        latencies = [0.0, 1.0, 0.1, 1e-300, 7.3e5] + rng.uniform(0, 50, 20).tolist()
        for case in REFERENCE_CASES:
            network, offline, device = reference_case(case)
            table = LatencyTable(network, offline, device)
            for state in resource_conditions().values():
                p1, p2 = factors(device, state)
                scale = table.scales(state)
                for b in range(1, network.n_layers + 1):
                    for t in latencies:
                        want = blend(t, float(table.eta[b]), p1, p2)
                        assert scale[b] * t == want

    def test_table_is_reused_for_the_same_inputs(self):
        network = synthetic_network(6)
        device = demo_edge_device()
        offline = offline_from_costs(network, device)
        table = _table_for(network, offline, device)
        assert _table_for(network, offline, device) is table
        copy = OfflineProfile(t_f=offline.t_f, t_b=offline.t_b, t_re=offline.t_re)
        assert _table_for(network, copy, device) is not table
        state = resource_conditions()["combined"]
        assert table.scales(state) is table.scales(
            SystemState(n=state.n, tem_on=state.tem_on, phi=state.phi)
        )
        combined = table.scales(state).copy()
        other = resource_conditions()["hot"]
        assert not np.array_equal(table.scales(other), combined)
        assert np.array_equal(table.scales(state), combined)
        with pytest.raises(ValueError):
            table.scales(state)[1] = 0.0

    def test_plan_cache_is_capped_and_rebuilds_evicted_plans(self, monkeypatch):
        import dataclasses

        import ttasched.latency as latency
        from ttasched.pipeline import execute_ground_truth

        monkeypatch.setattr(latency, "_STEP_LISTS", 4)
        network = recovery_network(10)  # every layer selectable
        device = demo_edge_device()
        table = LatencyTable(network, offline_from_costs(network, device), device)
        trace = StateTrace.constant(resource_conditions()["combined"])

        def run(strategy):
            return execute_ground_truth(
                table, trace, strategy, jitter_eps=0.05, rng=np.random.default_rng(3)
            )

        first = UpdateStrategy(10, (2, 5, 9))
        plan = table._plan(first)
        result = run(first)
        for k in range(1, 11):
            run(UpdateStrategy(10, tuple(range(1, k + 1))))
            assert len(table._steps) <= 4
        assert (10, first.selected) not in table._steps
        rebuilt = table._plan(first)
        assert rebuilt is not plan
        assert rebuilt[0] == plan[0]
        for got, want in zip(rebuilt[1:], plan[1:]):
            assert np.array_equal(got, want)
        again = run(first)
        for f in dataclasses.fields(result):
            assert np.array_equal(getattr(again, f.name), getattr(result, f.name))

    def test_offline_profile_holds_read_only_copies(self):
        t_f = np.array([0.0, 1.0])
        offline = OfflineProfile(t_f=t_f, t_b=np.array([0.0, 2.0]), t_re=np.array([0.0, 1.0]))
        t_f[1] = 5.0
        assert offline.t_f[1] == 1.0
        with pytest.raises(ValueError):
            offline.t_b[1] = 0.0


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

        with pytest.raises(InputError, match="device: b_cache is missing"):
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
        # a runtime profile whose backward split has a negative half is
        # rejected, naming that half, though the halves sum to t_b
        network, offline = dyadic_chain([1.0, 2.0])
        profile = build_profile(network, offline, dyadic_device(), resource_conditions()["offline"])
        for half, other in (("t_dw", "t_dx"), ("t_dx", "t_dw")):
            doc = profile_to_document(network, profile)
            layer = doc["layers"][0]  # backward index 2
            assert layer["t_b_ms"] == 2.0
            layer[half + "_ms"], layer[other + "_ms"] = -1.0, 3.0
            with pytest.raises(
                InputError, match=rf"^profile {half}\[2\] must be finite and non-negative, got -1.0$"
            ):
                profile_from_document(doc)


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
