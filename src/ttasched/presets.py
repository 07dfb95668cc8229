"""Bundled synthetic fixtures: networks, devices, profiles and scenarios.

Everything here is deterministic and reproducible; the JSON fixture tree
used by the command-line tests and demos is materialized from these
builders via ``write_fixture_tree``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import json_text
from .importance import ImportanceVector
from .latency import DeviceSpec, LatencyProfile, OfflineProfile, StateTrace, SystemState
from .network import PARAM_FREE_KINDS, LayerSpec, Network, derive_costs
from .pipeline import (
    ControllerConfig,
    Scenario,
    Shift,
    gaussian_environment,
)


def demo_device() -> DeviceSpec:
    """Server-class device: cache three times faster than DRAM, a thermal
    step that cuts the clock by 1.6x at 60 C, and a process-switch slope
    that triples compute time with three competitors."""
    return DeviceSpec(
        peak_flops=1e12,
        b_cache=24e9,
        b_dram=8e9,
        dvfs=((25.0, 1.9e9), (45.0, 1.52e9), (60.0, 1.1875e9), (75.0, 0.95e9)),
        proc_overhead_k=1.1,
        tem_off=25.0,
        phi_off=1.0,
    )


def demo_edge_device() -> DeviceSpec:
    """Same shape as demo_device but a thousandth of the throughput, so the
    small synthetic networks land at readable millisecond latencies."""
    return replace(demo_device(), peak_flops=1e9, b_cache=24e6, b_dram=8e6)


def resource_conditions() -> dict[str, SystemState]:
    """The five resource snapshots used throughout tests and demos: idle,
    hot core, three competing processes, 30% cache-hit rate, and all three
    at once."""
    return {
        "offline": SystemState(n=0, tem_on=25.0, phi=1.0),
        "hot": SystemState(n=0, tem_on=60.0, phi=1.0),
        "contended": SystemState(n=3, tem_on=25.0, phi=1.0),
        "cache_poor": SystemState(n=0, tem_on=25.0, phi=0.3),
        "combined": SystemState(n=3, tem_on=60.0, phi=0.3),
    }


def _costed(
    kind: str,
    channels: int,
    out_elements: int,
    hyperparams: dict | None = None,
    layer_id: int = 0,
) -> LayerSpec:
    """A layer, with parameters unless its kind has none, whose costs come
    from ``derive_costs``. It keeps ``hyperparams`` as given; the kinds whose
    costs need none derive them from an empty set."""
    layer = LayerSpec(
        layer_id, kind, kind not in PARAM_FREE_KINDS, channels, out_elements,
        hyperparams=hyperparams or {},
    )
    mac, mem = derive_costs(layer)
    return replace(layer, mac_count=mac, mem_traffic=mem, hyperparams=hyperparams)


def _conv3x3(channels: int, spatial: int) -> dict:
    return {
        "kernel": 3,
        "in_channels": channels,
        "out_channels": channels,
        "h_out": spatial,
        "w_out": spatial,
    }


def synthetic_network(n_layers: int = 24, channels: int = 8, spatial: int = 16) -> Network:
    """Conv / batchnorm / activation triplets, a global pool, and a linear
    head. The pool keeps the output side cheap, as in a standard classifier."""
    if n_layers < 4:
        raise ValueError("need at least four layers")
    out_elements = channels * spatial * spatial
    triplet = (
        _costed("conv2d", channels, out_elements, _conv3x3(channels, spatial)),
        _costed("batchnorm", channels, out_elements),
        _costed("activation", channels, out_elements),
    )
    layers = [replace(triplet[i % 3], id=i) for i in range(n_layers - 2)]
    layers.append(
        _costed("pooling", channels, channels, {"kernel": [spatial, spatial]}, n_layers - 2)
    )
    layers.append(
        _costed(
            "linear", channels, channels,
            {"in_features": channels, "out_features": channels}, n_layers - 1,
        )
    )
    return Network(name=f"synthetic-{n_layers}", layers=tuple(layers))


_RESNET_STAGES = (
    # (blocks, mid width, output spatial, input channels of the first block)
    (3, 64, 56, 64),
    (4, 128, 28, 256),
    (6, 256, 14, 512),
    (3, 512, 7, 1024),
)


def resnet50_shaped() -> Network:
    """A 50-layer-residual-classifier shaped chain at bottleneck-block
    granularity: one entry per block, channel figure = the block's
    bottleneck (3x3) width, costs = the summed conv arithmetic of the block
    at its output resolution. Residual adds are folded into the block entry;
    the trailing pool and classifier head are omitted.
    """
    layers = []
    # 7x7/2 stem followed by the 3x3/2 pool
    stem_out = 64 * 112 * 112
    layers.append(
        LayerSpec(
            id=0,
            kind="conv2d",
            has_params=True,
            channels=64,
            out_elements=stem_out,
            mac_count=7 * 7 * 3 * 64 * 112 * 112,
            mem_traffic=4 * (7 * 7 * 3 * 64 + 3 * 224 * 224 + stem_out),
        )
    )
    pool_out = 64 * 56 * 56
    layers.append(
        LayerSpec(
            id=1,
            kind="pooling",
            has_params=False,
            channels=64,
            out_elements=pool_out,
            mac_count=9 * pool_out,
            mem_traffic=4 * (stem_out + pool_out),
        )
    )
    layer_id = 2
    for blocks, mid, hw, first_cin in _RESNET_STAGES:
        cin = first_cin
        cout = 4 * mid
        for block in range(blocks):
            area = hw * hw
            macs = (cin * mid + 9 * mid * mid + mid * cout) * area
            weights = cin * mid + 9 * mid * mid + mid * cout
            if block == 0:
                macs += cin * cout * area
                weights += cin * cout
            activ = (cin + 2 * mid + cout) * area
            layers.append(
                LayerSpec(
                    id=layer_id,
                    kind="conv2d",
                    has_params=True,
                    channels=mid,
                    out_elements=mid * area,
                    mac_count=macs,
                    mem_traffic=4 * (weights + activ),
                )
            )
            layer_id += 1
            cin = cout
    return Network(name="resnet50-shaped", layers=tuple(layers))


# backward time over forward time in ``offline_from_costs``
_BACKWARD_SCALE = 4.0


def offline_from_costs(network: Network, device: DeviceSpec) -> OfflineProfile:
    """Offline latencies derived from the analytic cost model: forward time
    is compute time plus cache-speed memory time; backward takes
    ``_BACKWARD_SCALE`` times as long, and the reforward as long."""
    n = network.n_layers
    t_f = np.zeros(n + 1)
    t_b = np.zeros(n + 1)
    for b in range(1, n + 1):
        layer = network.layer_by_backward(b)
        seconds = layer.mac_count / device.peak_flops + layer.mem_traffic / device.b_cache
        t_f[b] = seconds * 1e3
        t_b[b] = _BACKWARD_SCALE * t_f[b]
    return OfflineProfile(t_f=t_f, t_b=t_b, t_re=t_f)


def uniform_profile(
    n: int,
    t_dw: float = 1.0,
    t_dx: float = 1.0,
    t_re: float = 1.0,
    t_f: float = 1.0,
    selectable=None,
) -> LatencyProfile:
    """All-equal per-layer profile; the workhorse of hand-checkable tests."""
    pad = lambda v: np.concatenate(([0.0], np.full(n, v)))
    if selectable is None:
        mask = np.concatenate(([False], np.ones(n, dtype=bool)))
    else:
        mask = np.concatenate(([False], np.asarray(selectable, dtype=bool)))
    return LatencyProfile.from_components(
        t_f=pad(t_f), t_dw=pad(t_dw), t_dx=pad(t_dx), t_re=pad(t_re), selectable=mask
    )


def worked_instance() -> tuple[ImportanceVector, LatencyProfile]:
    """Three layers, unit costs, importances 5/1/4 by backward index. Small
    enough to enumerate by hand, rich enough that every budget from 2 to 8
    changes the optimum."""
    return (
        ImportanceVector(a=np.array([0.0, 5.0, 1.0, 4.0])),
        uniform_profile(3),
    )


def static_trace(state: SystemState, horizon_ms: float = 1e9) -> StateTrace:
    return StateTrace.constant(state, horizon_ms=horizon_ms)


def drift_scenario(seed: int = 7) -> Scenario:
    """The bundled drift episode: three output-side layers shift by two
    standard deviations at batch 5 under an idle device."""
    network = synthetic_network()
    device = demo_edge_device()
    env = gaussian_environment(
        network,
        shifts=(Shift(batch_index=5, layers=(18, 19, 21), mean_offset_sigmas=2.0),),
        batch_size=8,
    )
    return Scenario(
        name="drift-3layer",
        mode="sequential",
        seed=seed,
        batches=24,
        environment=env,
        network=network,
        offline=offline_from_costs(network, device),
        device=device,
        trace=static_trace(resource_conditions()["offline"]),
        sigma=0.33,
        alpha=0.1,
        adaptation_gain=1.0,
        jitter_eps=0.02,
    )


def zero_shift_scenario(seed: int = 3) -> Scenario:
    """No drift at all; the acceleration budget sits just below the forward
    share, so every batch schedules the empty strategy."""
    base = drift_scenario(seed=seed)
    return replace(
        base,
        name="zero-shift",
        batches=12,
        environment=replace(base.environment, shifts=()),
        sigma=0.16,
        jitter_eps=0.0,
    )


def controller_scenario(seed: int = 11) -> Scenario:
    """Sequential episode under heavy contention with the turnaround
    controller enabled; arrivals outpace service until the controller pulls
    the acceleration factor down."""
    base = drift_scenario(seed=seed)
    return replace(
        base,
        name="controller-demo",
        batches=30,
        trace=static_trace(resource_conditions()["contended"]),
        sigma=0.8,
        inter_batch_ms=1.5 * float(np.sum(base.offline.t_f)),
        controller=ControllerConfig(enabled=True),
    )


def recovery_network(n_layers: int = 20, channels: int = 8) -> Network:
    """Alternating conv / batchnorm chain with every layer updateable, used
    by the shift-recovery experiment."""
    out_elements = channels * 16 * 16
    pair = (
        replace(
            _costed("conv2d", channels, out_elements, _conv3x3(channels, 16)),
            hyperparams=None,
        ),
        _costed("batchnorm", channels, out_elements),
    )
    layers = tuple(replace(pair[i % 2], id=i) for i in range(n_layers))
    return Network(name=f"recovery-{n_layers}", layers=layers)


# --- document serializers ----------------------------------------------------


def network_to_document(network: Network) -> dict:
    layers = []
    for l in network.layers:
        entry = {
            "id": l.id,
            "kind": l.kind,
            "has_params": l.has_params,
            "channels": l.channels,
            "out_elements": l.out_elements,
            "mac_count": l.mac_count,
            "mem_traffic": l.mem_traffic,
        }
        if l.hyperparams is not None:
            entry["hyperparams"] = l.hyperparams
        layers.append(entry)
    return {
        "name": network.name,
        "element_width": network.element_width,
        "layers": layers,
    }


def offline_to_document(network: Network, offline: OfflineProfile) -> dict:
    n = network.n_layers
    return {
        "layers": [
            {
                "layer_id": i,
                "t_f_ms": float(offline.t_f[n - i]),
                "t_b_off_ms": float(offline.t_b[n - i]),
                "t_re_off_ms": float(offline.t_re[n - i]),
            }
            for i in range(n)
        ]
    }


def device_to_document(device: DeviceSpec) -> dict:
    return {
        "peak_flops": device.peak_flops,
        "b_cache": device.b_cache,
        "b_dram": device.b_dram,
        "dvfs": [{"tem_c": t, "freq_hz": f} for t, f in device.dvfs],
        "proc_overhead_k": device.proc_overhead_k,
        "tem_off": device.tem_off,
        "phi_off": device.phi_off,
    }


def trace_to_document(trace: StateTrace) -> dict:
    return {
        "horizon_ms": trace.horizon_ms,
        "records": [
            {"t_ms": t, "n": s.n, "tem_c": s.tem_on, "phi": s.phi}
            for t, s in trace.records
        ],
    }


def scenario_to_document(scenario: Scenario, refs: dict) -> dict:
    """Scenario file body; ``refs`` maps the four bundled inputs to their
    relative paths."""
    env = scenario.environment
    return {
        "name": scenario.name,
        "mode": scenario.mode,
        "seed": scenario.seed,
        "batches": scenario.batches,
        "batch_size": env.batch_size,
        "inter_batch_ms": scenario.inter_batch_ms,
        "network": refs["network"],
        "offline_profile": refs["offline_profile"],
        "device": refs["device"],
        "state_trace": refs["state_trace"],
        "scheduler": {"sigma": scenario.sigma},
        "alpha": scenario.alpha,
        "adaptation_gain": scenario.adaptation_gain,
        "jitter": scenario.jitter_eps,
        "exact_stats": scenario.exact_stats,
        "controller": dict(scenario.controller.__dict__),
        "environment": {
            "base_mean": float(env.base_means[0][0]),
            "base_var": float(env.base_vars[0][0]),
            "positions": list(env.positions),
            "shifts": [
                {
                    "batch": s.batch_index,
                    "layers": list(s.layers),
                    "mean_offset_sigmas": s.mean_offset_sigmas,
                    "var_scale": s.var_scale,
                }
                for s in env.shifts
            ],
        },
    }


def write_fixture_tree(root) -> dict:
    """Materialize the bundled fixtures as a JSON file tree; returns the
    path map."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    scenario = drift_scenario()
    zero_shift = zero_shift_scenario()
    paths = {}

    def dump(name: str, document: dict) -> str:
        path = root / name
        path.write_text(json_text(document))
        paths[name] = str(path)
        return name

    refs = {
        "network": dump("network.json", network_to_document(scenario.network)),
        "offline_profile": dump(
            "offline_profile.json",
            offline_to_document(scenario.network, scenario.offline),
        ),
        "device": dump("device.json", device_to_document(scenario.device)),
        "state_trace": dump("trace.json", trace_to_document(scenario.trace)),
    }
    dump("scenario_drift.json", scenario_to_document(scenario, refs))
    dump("scenario_zero_shift.json", scenario_to_document(zero_shift, refs))
    dump(
        "network_resnet50_shaped.json", network_to_document(resnet50_shaped())
    )
    return paths
