"""Runtime layer-latency prediction.

Offline per-layer latencies are calibrated to the current resource state via
two expansion factors: a compute factor driven by process contention and
thermal frequency scaling, and a memory factor driven by the cache-hit rate.
A layer's compute-to-memory time ratio decides how the two factors mix into
its runtime latency.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TraceExhausted
from .network import LayerSpec, Network

COMPUTE_BOUND = math.inf  # sentinel ratio for layers with no memory traffic

# fraction of backward time attributed to the weight gradient, by kind;
# parameter-free kinds are handled before this table applies
_DW_SHARE = {
    "conv2d": 0.5,
    "linear": 0.5,
    "batchnorm": 0.5,
    "layernorm": 0.5,
    "attention-projection": 0.5,
    "feedforward": 0.5,
}


@dataclass(frozen=True)
class DeviceSpec:
    """Static device constants, profiled once offline.

    ``dvfs`` maps core temperature to clock frequency as a step table: a
    query between knots takes the next (hotter, slower) knot's frequency,
    which errs toward longer predicted latency.
    """

    peak_flops: float  # MAC/s
    b_cache: float  # bytes/s
    b_dram: float  # bytes/s
    dvfs: tuple[tuple[float, float], ...]  # (temperature C, frequency Hz)
    proc_overhead_k: float  # slope of the process-switch overhead term
    tem_off: float  # C, offline calibration temperature
    phi_off: float = 1.0  # offline cache-hit rate

    def __post_init__(self):
        if self.peak_flops <= 0:
            raise InputError("peak_flops must be positive")
        if not (self.b_cache > self.b_dram > 0):
            raise InputError("need b_cache > b_dram > 0")
        if not self.dvfs:
            raise InputError("dvfs table must not be empty")
        knots = tuple(sorted((float(t), float(f)) for t, f in self.dvfs))
        object.__setattr__(self, "dvfs", knots)
        freqs = [f for _, f in knots]
        if any(f <= 0 for f in freqs):
            raise InputError("dvfs frequencies must be positive")
        if any(f2 > f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise InputError("dvfs table must be non-increasing in temperature")
        if self.proc_overhead_k < 0:
            raise InputError("proc_overhead_k must be non-negative")
        if not (0.0 < self.phi_off <= 1.0):
            raise InputError("phi_off must lie in (0, 1]")

    def freq(self, temperature: float) -> float:
        for tem, f in self.dvfs:
            if temperature <= tem:
                return f
        return self.dvfs[-1][1]


@dataclass(frozen=True)
class SystemState:
    """Dynamic resource snapshot at one instant."""

    n: int  # competing processes
    tem_on: float  # C
    phi: float  # cache-hit rate

    def __post_init__(self):
        if self.n < 0:
            raise InputError("process count must be non-negative")
        if not (0.0 <= self.phi <= 1.0):
            raise InputError("cache-hit rate must lie in [0, 1]")


@dataclass(frozen=True)
class ExpansionFactors:
    pi1: float
    pi2: float


def pi1(device: DeviceSpec, state: SystemState) -> float:
    """Compute expansion: thermal frequency ratio times process contention."""
    f_on = device.freq(state.tem_on)
    if f_on <= 0:
        raise InputError(f"dvfs frequency undefined at {state.tem_on} C")
    return (device.freq(device.tem_off) / f_on) * (
        1.0 + device.proc_overhead_k * state.n
    )


def pi2(device: DeviceSpec, state: SystemState, dram_over_cache: bool = False) -> float:
    """Memory expansion: runtime-to-offline memory-time ratio.

    A miss costs ``b_cache / b_dram`` times a hit, so the mix
    ``phi + (1 - phi) * b_cache/b_dram`` is the memory time relative to
    all-hit traffic; normalizing by the offline mix yields a factor that is
    1.0 offline and grows as the hit rate drops. ``dram_over_cache=True``
    instead weights misses by ``b_dram / b_cache`` (unnormalized); that
    variant yields factors below one and is kept only for comparison.
    """
    if device.b_dram <= 0:
        raise InputError("b_dram must be positive")
    if dram_over_cache:
        return state.phi + (1.0 - state.phi) * device.b_dram / device.b_cache
    ratio = device.b_cache / device.b_dram
    mix_on = state.phi + (1.0 - state.phi) * ratio
    mix_off = device.phi_off + (1.0 - device.phi_off) * ratio
    return mix_on / mix_off


def expansion_factors(device: DeviceSpec, state: SystemState) -> ExpansionFactors:
    return ExpansionFactors(pi1(device, state), pi2(device, state))


def calibrate_proc_overhead(samples) -> float:
    """Fit the process-switch slope from offline calibration measurements.

    ``samples`` are (process_count, slowdown) pairs measured at the offline
    temperature, where slowdown is measured-latency / offline-latency. Fits
    slowdown = 1 + k * n by least squares through the origin; the result
    feeds ``DeviceSpec.proc_overhead_k``.
    """
    pairs = [(int(n), float(s)) for n, s in samples]
    if not any(n > 0 for n, _ in pairs):
        raise InputError("calibration needs at least one loaded measurement")
    num = sum(n * (s - 1.0) for n, s in pairs)
    den = sum(n * n for n, _ in pairs)
    k = num / den
    if k < 0:
        raise InputError(
            f"calibration fit produced a negative slope ({k:.4g}); "
            "slowdowns must grow with process count"
        )
    return k


def eta(layer: LayerSpec, device: DeviceSpec) -> float:
    """Offline compute-time to memory-time ratio of one layer.

    Layers with zero memory traffic return the COMPUTE_BOUND sentinel and
    are scaled purely by the compute factor downstream.
    """
    if layer.mem_traffic == 0:
        return COMPUTE_BOUND
    t_compute = layer.mac_count / device.peak_flops
    t_memory = layer.mem_traffic / device.b_cache
    return t_compute / t_memory


def predict_layer_latency(t_off: float, eta_l: float, factors: ExpansionFactors) -> float:
    """Runtime latency of one layer from its offline latency.

    The compute and memory factors are blended by the layer's time ratio;
    the result always lies between ``min(pi1, pi2) * t_off`` and
    ``max(pi1, pi2) * t_off``.
    """
    if t_off < 0:
        raise InputError("t_off must be non-negative")
    if eta_l != COMPUTE_BOUND and eta_l < 0:
        raise InputError("eta must be non-negative")
    p1, p2 = factors.pi1, factors.pi2
    if p1 == p2:
        # equal factors bypass the blend so the offline state reproduces the
        # offline profile bit for bit
        return p1 * t_off
    if eta_l == COMPUTE_BOUND:
        return p1 * t_off
    w = eta_l / (eta_l + 1.0)
    return (p2 + (p1 - p2) * w) * t_off


def split_backward(t_b: float, layer: LayerSpec) -> tuple[float, float]:
    """Split a backward latency into weight-gradient and activation-gradient
    shares by the backward MAC proportions of the layer kind.

    Weight-gradient and input-gradient MACs both equal the forward count for
    the parameterized kinds modelled here, hence the even split; layers
    without parameters spend everything on the activation gradient.
    """
    if t_b < 0:
        raise InputError("t_b must be non-negative")
    if not layer.has_params:
        return 0.0, t_b
    t_dw = _DW_SHARE[layer.kind] * t_b
    return t_dw, t_b - t_dw


@dataclass(frozen=True)
class OfflineProfile:
    """Per-layer offline measurements, backward-indexed 1..N (slot 0 unused)."""

    t_f: np.ndarray
    t_b: np.ndarray
    t_re: np.ndarray

    def __post_init__(self):
        for name in ("t_f", "t_b", "t_re"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.shape != np.shape(self.t_f):
                raise InputError("offline profile arrays must share one shape")
            if arr[0] != 0.0:
                raise InputError("slot 0 of offline arrays is padding and must be 0")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise InputError(f"offline {name} must be finite and non-negative")
            object.__setattr__(self, name, arr)

    @property
    def n_layers(self) -> int:
        return len(self.t_f) - 1


_LATENCIES = ("t_f", "t_b_off", "t_re_off", "t_b", "t_dw", "t_dx", "t_re")


@dataclass(frozen=True)
class LatencyProfile:
    """Runtime per-layer latencies, backward-indexed 1..N (slot 0 is 0).

    ``t_b[b] == t_dw[b] + t_dx[b]`` exactly for every layer, and
    ``t_total == t_f_total + t_b_total + t_re_total``. ``cum_dx``/``cum_re``
    are prefix sums over backward indices, read by the cost closed form.
    Every latency must be finite and non-negative.
    """

    t_f: np.ndarray
    t_b_off: np.ndarray
    t_re_off: np.ndarray
    t_b: np.ndarray
    t_dw: np.ndarray
    t_dx: np.ndarray
    t_re: np.ndarray
    eta: np.ndarray
    selectable: np.ndarray
    cum_dx: np.ndarray = field(init=False)
    cum_re: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.t_f) - 1
        for name in _LATENCIES + ("eta",):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n + 1,):
                raise InputError("profile arrays must share one shape")
            object.__setattr__(self, name, arr)
        # the scheduler's cuts assume costs only grow along a chain; one
        # pass over all latencies keeps this cheap per batch, and NaN fails
        # both comparisons
        latencies = np.concatenate([getattr(self, name) for name in _LATENCIES])
        if not (latencies.min() >= 0.0 and latencies.max() < math.inf):
            i = int(np.flatnonzero(~((latencies >= 0.0) & (latencies < math.inf)))[0])
            raise InputError(
                f"profile {_LATENCIES[i // (n + 1)]}[{i % (n + 1)}] must be "
                f"finite and non-negative, got {latencies[i]}"
            )
        object.__setattr__(
            self, "selectable", np.asarray(self.selectable, dtype=bool)
        )
        if self.selectable.shape != (n + 1,):
            raise InputError("selectable mask must match profile shape")
        object.__setattr__(self, "cum_dx", np.cumsum(self.t_dx))
        object.__setattr__(self, "cum_re", np.cumsum(self.t_re))

    @property
    def n_layers(self) -> int:
        return len(self.t_f) - 1

    @property
    def t_f_total(self) -> float:
        return float(np.sum(self.t_f))

    @property
    def t_b_total(self) -> float:
        return float(np.sum(self.t_b))

    @property
    def t_re_total(self) -> float:
        return float(np.sum(self.t_re))

    @property
    def t_total(self) -> float:
        return self.t_f_total + self.t_b_total + self.t_re_total

    @classmethod
    def from_components(cls, t_f, t_dw, t_dx, t_re, selectable=None, eta_l=None):
        """Assemble a synthetic profile from 1-based component arrays."""
        t_f = np.asarray(t_f, dtype=float)
        t_dw = np.asarray(t_dw, dtype=float)
        t_dx = np.asarray(t_dx, dtype=float)
        t_re = np.asarray(t_re, dtype=float)
        n = len(t_f) - 1
        t_b = t_dw + t_dx
        if selectable is None:
            selectable = np.concatenate(([False], np.ones(n, dtype=bool)))
        if eta_l is None:
            eta_l = np.ones(n + 1)
        return cls(
            t_f=t_f,
            t_b_off=t_b.copy(),
            t_re_off=t_re.copy(),
            t_b=t_b,
            t_dw=t_dw,
            t_dx=t_dx,
            t_re=t_re,
            eta=np.asarray(eta_l, dtype=float),
            selectable=selectable,
        )


def build_profile(
    network: Network,
    offline: OfflineProfile,
    device: DeviceSpec,
    state: SystemState,
) -> LatencyProfile:
    """Calibrate an offline profile to a resource state.

    Backward, reforward and forward latencies all scale by the same blend;
    the forward total only enters budget arithmetic, never the per-strategy
    cost, since it is identical across strategies.
    """
    n = network.n_layers
    if offline.n_layers != n:
        raise InputError(
            f"offline profile covers {offline.n_layers} layers, network has {n}"
        )
    factors = expansion_factors(device, state)
    t_f = np.zeros(n + 1)
    t_b = np.zeros(n + 1)
    t_dw = np.zeros(n + 1)
    t_dx = np.zeros(n + 1)
    t_re = np.zeros(n + 1)
    etas = np.zeros(n + 1)
    selectable = np.zeros(n + 1, dtype=bool)
    for b in range(1, n + 1):
        layer = network.layer_by_backward(b)
        e = eta(layer, device)
        etas[b] = e
        selectable[b] = layer.has_params
        t_f[b] = predict_layer_latency(float(offline.t_f[b]), e, factors)
        t_b[b] = predict_layer_latency(float(offline.t_b[b]), e, factors)
        t_re[b] = predict_layer_latency(float(offline.t_re[b]), e, factors)
        t_dw[b], t_dx[b] = split_backward(float(t_b[b]), layer)
    return LatencyProfile(
        t_f=t_f,
        t_b_off=offline.t_b.copy(),
        t_re_off=offline.t_re.copy(),
        t_b=t_b,
        t_dw=t_dw,
        t_dx=t_dx,
        t_re=t_re,
        eta=etas,
        selectable=selectable,
    )


@dataclass(frozen=True)
class StateTrace:
    """Timestamped system-state records replayed as a step function."""

    records: tuple[tuple[float, SystemState], ...]
    horizon_ms: float
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.records:
            raise InputError("state trace must contain at least one record")
        recs = tuple(sorted(self.records, key=lambda r: r[0]))
        object.__setattr__(self, "records", recs)
        # times of every record but the first: bisecting them gives the index
        # of the record in force, and 0 before the second record's time
        object.__setattr__(self, "_times", tuple(ts for ts, _ in recs[1:]))
        if self.horizon_ms < recs[-1][0]:
            raise InputError("trace horizon precedes its last record")

    def state_at(self, t_ms: float) -> SystemState:
        """State of the last record at or before ``t_ms`` (of the last one
        among equal timestamps); before the first record, the first state."""
        if not t_ms <= self.horizon_ms:
            if math.isnan(t_ms):
                raise InputError("trace time must be a number, got nan")
            raise TraceExhausted(
                f"trace exhausted: t={t_ms:.3f} ms beyond horizon "
                f"{self.horizon_ms:.3f} ms"
            )
        return self.records[bisect_right(self._times, t_ms)][1]

    @classmethod
    def constant(cls, state: SystemState, horizon_ms: float = math.inf) -> "StateTrace":
        return cls(records=((0.0, state),), horizon_ms=horizon_ms)


def load_device(document: dict) -> DeviceSpec:
    try:
        fields = dict(
            peak_flops=float(document["peak_flops"]),
            b_cache=float(document["b_cache"]),
            b_dram=float(document["b_dram"]),
            dvfs=tuple(
                (float(d["tem_c"]), float(d["freq_hz"])) for d in document["dvfs"]
            ),
            proc_overhead_k=float(document["proc_overhead_k"]),
            tem_off=float(document["tem_off"]),
            phi_off=float(document.get("phi_off", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"device document malformed: {exc}") from None
    return DeviceSpec(**fields)


def load_device_file(path) -> DeviceSpec:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from None
    return load_device(document)


def load_trace(document: dict) -> StateTrace:
    try:
        rows = [
            (float(r["t_ms"]), int(r["n"]), float(r["tem_c"]), float(r["phi"]))
            for r in document["records"]
        ]
        horizon = float(document["horizon_ms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"trace document malformed: {exc}") from None
    records = tuple(
        (t_ms, SystemState(n=n, tem_on=tem_c, phi=phi)) for t_ms, n, tem_c, phi in rows
    )
    return StateTrace(records=records, horizon_ms=horizon)


def load_trace_file(path) -> StateTrace:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from None
    return load_trace(document)


def load_offline_profile(document: dict, n_layers: int) -> OfflineProfile:
    """Read forward-order per-layer offline measurements into backward arrays."""
    try:
        entries = {int(r["layer_id"]): r for r in document["layers"]}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"offline profile malformed: {exc}") from None
    t_f = np.zeros(n_layers + 1)
    t_b = np.zeros(n_layers + 1)
    t_re = np.zeros(n_layers + 1)
    for layer_id in range(n_layers):
        if layer_id not in entries:
            raise InputError(f"offline profile missing layer {layer_id}")
        rec = entries[layer_id]
        b = n_layers - layer_id
        try:
            t_f[b] = float(rec["t_f_ms"])
            t_b[b] = float(rec["t_b_off_ms"])
            t_re[b] = float(rec["t_re_off_ms"])
        except KeyError as exc:
            raise InputError(
                f"offline profile layer {layer_id} missing {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"offline profile layer {layer_id} malformed: {exc}") from None
    return OfflineProfile(t_f=t_f, t_b=t_b, t_re=t_re)


def load_offline_profile_file(path, n_layers: int) -> OfflineProfile:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from None
    return load_offline_profile(document, n_layers)


def profile_to_document(network: Network, profile: LatencyProfile) -> dict:
    """Serialize a runtime profile to its file schema (forward layer order)."""
    n = network.n_layers
    layers = []
    for layer_id in range(n):
        b = n - layer_id
        layers.append(
            {
                "layer_id": layer_id,
                "t_f_ms": float(profile.t_f[b]),
                "t_b_ms": float(profile.t_b[b]),
                "t_dw_ms": float(profile.t_dw[b]),
                "t_dx_ms": float(profile.t_dx[b]),
                "t_re_ms": float(profile.t_re[b]),
                "eta": float(profile.eta[b]),
                "selectable": bool(profile.selectable[b]),
            }
        )
    return {
        "layers": layers,
        "totals": {
            "t_f_ms": profile.t_f_total,
            "t_b_ms": profile.t_b_total,
            "t_re_ms": profile.t_re_total,
            "t_ms": profile.t_total,
        },
    }


def profile_from_document(document: dict) -> LatencyProfile:
    """Rebuild a runtime profile from its file schema."""
    try:
        entries = {int(r["layer_id"]): r for r in document["layers"]}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"runtime profile malformed: {exc}") from None
    n = len(entries)
    if set(entries) != set(range(n)):
        raise InputError("runtime profile layer ids must be contiguous from 0")
    t_f = np.zeros(n + 1)
    t_b = np.zeros(n + 1)
    t_dw = np.zeros(n + 1)
    t_dx = np.zeros(n + 1)
    t_re = np.zeros(n + 1)
    etas = np.zeros(n + 1)
    selectable = np.zeros(n + 1, dtype=bool)
    for layer_id, rec in entries.items():
        b = n - layer_id
        try:
            t_f[b] = float(rec["t_f_ms"])
            t_b[b] = float(rec["t_b_ms"])
            t_dw[b] = float(rec["t_dw_ms"])
            t_dx[b] = float(rec["t_dx_ms"])
            t_re[b] = float(rec["t_re_ms"])
            etas[b] = float(rec["eta"])
            selectable[b] = bool(rec.get("selectable", True))
        except KeyError as exc:
            raise InputError(
                f"runtime profile layer {layer_id} missing {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"runtime profile layer {layer_id} malformed: {exc}") from None
    return LatencyProfile(
        t_f=t_f,
        t_b_off=t_b.copy(),
        t_re_off=t_re.copy(),
        t_b=t_b,
        t_dw=t_dw,
        t_dx=t_dx,
        t_re=t_re,
        eta=etas,
        selectable=selectable,
    )
