"""Runtime layer-latency prediction.

Offline per-layer latencies are calibrated to the current resource state via
two expansion factors: a compute factor driven by process contention and
thermal frequency scaling, and a memory factor driven by the cache-hit rate.
A layer's compute-to-memory time ratio decides how the two factors mix into
its runtime latency.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputError,
    TraceExhausted,
    _derived,
    convert,
    read_json,
    reject_unknown,
)
from .network import LayerSpec, Network, UpdateStrategy

COMPUTE_BOUND = math.inf  # sentinel ratio for layers with no memory traffic

# strategies whose executor runs a latency table keeps
_STEP_LISTS = 256

# fraction of backward time attributed to the weight gradient of a layer
# with parameters, by the backward MAC proportions: weight-gradient and
# input-gradient MACs both equal the forward count for every parameterized
# kind modelled here (parameter-free layers spend it all on the activation
# gradient)
_DW_SHARE = 0.5


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
        if not self.dvfs:
            raise InputError("dvfs table must not be empty")
        knots = tuple(sorted((float(t), float(f)) for t, f in self.dvfs))
        object.__setattr__(self, "dvfs", knots)
        for name in ("peak_flops", "b_cache", "b_dram", "proc_overhead_k", "tem_off",
                     "phi_off"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"device: {name} must be finite, got {value}")
        if not all(math.isfinite(x) for knot in knots for x in knot):
            raise InputError("device: dvfs tem_c and freq_hz must be finite")
        if self.peak_flops <= 0:
            raise InputError("peak_flops must be positive")
        if not (self.b_cache > self.b_dram > 0):
            raise InputError("need b_cache > b_dram > 0")
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
        if not math.isfinite(self.tem_on):
            raise InputError(f"temperature must be finite, got {self.tem_on}")
        if not (0.0 <= self.phi <= 1.0):
            raise InputError("cache-hit rate must lie in [0, 1]")


def _checked_factor(name: str, value: float, state: SystemState) -> float:
    """``value``, the factor ``name`` under ``state``, which must be finite
    and positive; a device whose clock or bandwidth ratio overflows makes it
    inf or NaN, and one whose ratio underflows makes it 0."""
    if not 0.0 < value < math.inf:
        need = "positive" if math.isfinite(value) else "finite"
        raise InputError(
            f"expansion factor {name} must be {need}, got {value} at state "
            f"(n={state.n}, tem_c={state.tem_on}, phi={state.phi})"
        )
    return value


def pi1(device: DeviceSpec, state: SystemState) -> float:
    """Compute expansion: thermal frequency ratio times process contention."""
    ratio = device.freq(device.tem_off) / device.freq(state.tem_on)
    return _checked_factor(
        "pi1", ratio * (1.0 + device.proc_overhead_k * state.n), state
    )


def pi2(device: DeviceSpec, state: SystemState) -> float:
    """Memory expansion: runtime-to-offline memory-time ratio.

    A miss costs ``b_cache / b_dram`` times a hit, so the mix
    ``phi + (1 - phi) * b_cache/b_dram`` is the memory time relative to
    all-hit traffic; normalizing by the offline mix yields a factor that is
    1.0 offline and grows as the hit rate drops.
    """
    ratio = device.b_cache / device.b_dram
    mix_on = state.phi + (1.0 - state.phi) * ratio
    mix_off = device.phi_off + (1.0 - device.phi_off) * ratio
    return _checked_factor("pi2", mix_on / mix_off, state)


def eta(layer: LayerSpec, device: DeviceSpec) -> float:
    """Offline compute-time to memory-time ratio of one layer.

    Layers with zero memory traffic return the COMPUTE_BOUND sentinel and
    are scaled purely by the compute factor downstream.
    """
    if layer.mem_traffic == 0:
        return COMPUTE_BOUND
    t_compute = layer.mac_count / device.peak_flops
    t_memory = layer.mem_traffic / device.b_cache
    ratio = t_compute / t_memory
    if math.isnan(ratio):  # inf / inf
        raise InputError(
            f"layer {layer.id}: eta is undefined, since its compute time and "
            "memory time both overflow on this device"
        )
    return ratio


@dataclass(frozen=True)
class OfflineProfile:
    """Per-layer offline measurements, backward-indexed 1..N (slot 0 unused),
    held as read-only copies. The profile keeps the latency table it was
    last calibrated with (see ``_table_for``)."""

    t_f: np.ndarray
    t_b: np.ndarray
    t_re: np.ndarray
    _table: "LatencyTable | None" = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self):
        for name in ("t_f", "t_b", "t_re"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.shape != np.shape(self.t_f):
                raise InputError("offline profile arrays must share one shape")
            if arr[0] != 0.0:
                raise InputError("slot 0 of offline arrays is padding and must be 0")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise InputError(f"offline {name} must be finite and non-negative")
            with np.errstate(over="ignore"):
                total = float(arr.sum())
            if total == math.inf:
                raise InputError(f"offline {name} total must be finite, got {total}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_layers(self) -> int:
        return len(self.t_f) - 1


_LATENCIES = ("t_f", "t_b", "t_dw", "t_dx", "t_re")


@dataclass(frozen=True)
class LatencyProfile:
    """Runtime per-layer latencies, backward-indexed 1..N (slot 0 is 0).

    ``t_b[b] == t_dw[b] + t_dx[b]`` bit for bit (the float sum) for every
    layer, and ``t_total == t_f_total + t_b_total + t_re_total``.
    ``cum_dx``/``cum_re`` are prefix sums over backward indices, read by the
    cost closed form.
    Every latency, every total and the last prefix sums must be finite, and
    every latency non-negative. The prefix sums and the totals are computed
    once, at construction.
    """

    t_f: np.ndarray
    t_b: np.ndarray
    t_dw: np.ndarray
    t_dx: np.ndarray
    t_re: np.ndarray
    eta: np.ndarray
    selectable: np.ndarray
    cum_dx: np.ndarray = field(init=False)
    cum_re: np.ndarray = field(init=False)
    t_f_total: float = field(init=False)
    t_b_total: float = field(init=False)
    t_re_total: float = field(init=False)
    t_total: float = field(init=False)

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
        # the ndarray methods are np.cumsum's and np.sum's reductions
        # without their dispatch; sums of finite latencies can overflow
        with np.errstate(over="ignore"):
            split = self.t_dw + self.t_dx
            sums = dict(
                cum_dx=self.t_dx.cumsum(),
                cum_re=self.t_re.cumsum(),
                t_f_total=float(self.t_f.sum()),
                t_b_total=float(self.t_b.sum()),
                t_re_total=float(self.t_re.sum()),
            )
        if not (split == self.t_b).all():
            b = int(np.flatnonzero(split != self.t_b)[0])
            raise InputError(
                f"profile t_b[{b}] (layer_id {n - b}) must equal t_dw + t_dx "
                f"exactly as a float sum, got {float(self.t_b[b])!r} != "
                f"{float(split[b])!r}"
            )
        object.__setattr__(
            self, "selectable", np.asarray(self.selectable, dtype=bool)
        )
        if self.selectable.shape != (n + 1,):
            raise InputError("selectable mask must match profile shape")
        sums["t_total"] = sums["t_f_total"] + sums["t_b_total"] + sums["t_re_total"]
        for name, value in sums.items():
            last = value if type(value) is float else float(value[-1])
            if last == math.inf:
                raise InputError(f"profile {name} must be finite, got {last}")
            object.__setattr__(self, name, value)

    @property
    def n_layers(self) -> int:
        return len(self.t_f) - 1

    @classmethod
    def from_components(cls, t_f, t_dw, t_dx, t_re, selectable=None):
        """Assemble a synthetic profile from 1-based component arrays."""
        t_dw = np.asarray(t_dw, dtype=float)
        t_dx = np.asarray(t_dx, dtype=float)
        n = len(t_f) - 1
        if selectable is None:
            selectable = np.concatenate(([False], np.ones(n, dtype=bool)))
        return cls(
            t_f=t_f,
            t_b=t_dw + t_dx,
            t_dw=t_dw,
            t_dx=t_dx,
            t_re=t_re,
            eta=np.ones(n + 1),
            selectable=selectable,
        )


class LatencyTable:
    """The per-chain inputs of the latency physics for one network, offline
    profile and device, built once.

    This is the one model of per-layer latency: the predictor
    (``build_profile``) and the ground-truth executor both scale offline
    latencies by it. Backward-indexed 1..N, slot 0 zero: the offline
    latencies ``t_f``, ``t_dw``, ``t_dx`` and ``t_re`` as lists (the
    backward time split by ``_DW_SHARE`` for a layer with parameters, all
    to ``t_dx`` for one without), and, as read-only arrays, each layer's
    ``eta`` ratio and the ``selectable`` mask. Under expansion factors
    ``(p1, p2)`` a layer scales by ``p1 if w is None else p2 + (p1 - p2) * w``
    for its blend weight ``w = eta / (eta + 1)`` (None: compute-bound), a
    scale between ``min(p1, p2)`` and ``max(p1, p2)``. ``factors(state)``
    is ``(p1, p2)`` and ``scales(state)`` every layer's scale under
    ``state``; both are kept for the last state. ``_plan(strategy)`` is the
    executor's run list of a strategy, built once per strategy.
    """

    def __init__(self, network: Network, offline: OfflineProfile, device: DeviceSpec):
        n = network.n_layers
        if offline.n_layers != n:
            raise InputError(
                f"offline profile covers {offline.n_layers} layers, network has {n}"
            )
        # the offline profile keeps its table, so the table holds no
        # reference back to it
        self.network = network
        self.device = device
        self.n_layers = n
        self.selectable = network.selectable
        etas = [0.0] + [eta(layer, device) for layer in network.layers[::-1]]
        # the blend weight eta / (eta + 1) per layer, in [0, 1]; None marks
        # a compute-bound layer, and slot 0, which scales a zero
        self._weight = [None] + [
            None if e == COMPUTE_BOUND else e / (e + 1.0) for e in etas[1:]
        ]
        self.eta = np.array(etas)
        self.eta.flags.writeable = False
        # weight-gradient share per layer: 0 for parameter-free layers
        self._dw_share = np.where(self.selectable, _DW_SHARE, 0.0)
        t_dw = self._dw_share * offline.t_b
        self.t_f = offline.t_f.tolist()
        self.t_dw = t_dw.tolist()
        self.t_dx = (offline.t_b - t_dw).tolist()
        self.t_re = offline.t_re.tolist()
        # the offline t_f, t_b and t_re as the rows of one block, which
        # build_profile scales in one product
        self._offline = np.stack([offline.t_f, offline.t_b, offline.t_re])
        self._state: SystemState | None = None
        self._factors: tuple[float, float] | None = None
        self._scales: np.ndarray | None = None
        self._steps: dict = {}

    def _plan(self, strategy: UpdateStrategy) -> tuple:
        """``(steps, slots, layers, t_off)`` of the validated ``strategy``,
        built once per strategy and independent of the state. ``steps`` are
        its runs in execution order, as ``(slot, t_off, w)``: the run's
        position ``phase * (n + 1) + b`` in the executor's flat output
        (phases forward, weight gradient, activation gradient, reforward,
        for backward index b), its offline latency and its layer's blend
        weight, in the order ``pipeline.execute_ground_truth`` documents.
        The same runs follow as three read-only arrays: each run's slot,
        its layer's backward index b and its offline latency."""
        key = (strategy.n_layers, strategy.selected)
        plan = self._steps.get(key)
        if plan is None:
            strategy.validate_against(self.network)
            n = self.n_layers
            w = self._weight
            f, dw, dx, re = (phase * (n + 1) for phase in range(4))
            steps = [(f + b, self.t_f[b], w[b]) for b in range(n, 0, -1)]
            d = strategy.deepest
            selected = set(strategy.selected)
            for b in range(1, d + 1):
                if b < d:
                    steps.append((dx + b, self.t_dx[b], w[b]))
                if b in selected:
                    steps.append((dw + b, self.t_dw[b], w[b]))
            steps.extend((re + b, self.t_re[b], w[b]) for b in range(d, 0, -1))
            slots = np.array([slot for slot, _, _ in steps], dtype=np.intp)
            layers = slots % (n + 1)
            t_off = np.array([t for _, t, _ in steps])
            slots.flags.writeable = layers.flags.writeable = False
            t_off.flags.writeable = False
            if len(self._steps) >= _STEP_LISTS:
                self._steps.clear()
            plan = self._steps[key] = (tuple(steps), slots, layers, t_off)
        return plan

    def factors(self, state: SystemState) -> tuple[float, float]:
        """The expansion factors ``(pi1, pi2)`` under ``state``; a repeat of
        the last state reuses them."""
        if state != self._state:
            self._factors = (pi1(self.device, state), pi2(self.device, state))
            self._state = state
            self._scales = None
        return self._factors

    def scales(self, state: SystemState) -> np.ndarray:
        """Every layer's scale under ``state``, read-only; a repeat of the
        last state reuses it."""
        p1, p2 = self.factors(state)
        if self._scales is None:
            scale = np.array(
                [p1 if w is None else p2 + (p1 - p2) * w for w in self._weight]
            )
            scale.flags.writeable = False
            self._scales = scale
        return self._scales


def _table_for(
    network: Network, offline: OfflineProfile, device: DeviceSpec
) -> LatencyTable:
    """The latency table of these three objects. The offline profile keeps
    the last one it built and reuses it while the same network and device
    objects come back (all three are immutable)."""
    table = offline._table
    if table is None or table.network is not network or table.device is not device:
        table = LatencyTable(network, offline, device)
        object.__setattr__(offline, "_table", table)
    return table


def build_profile(
    network: Network,
    offline: OfflineProfile,
    device: DeviceSpec,
    state: SystemState,
) -> LatencyProfile:
    """Calibrate an offline profile to a resource state.

    Forward, backward and reforward latencies all scale by the table's
    per-layer scale under ``state`` (``LatencyTable.scales``), in one array
    product; the forward total only enters budget arithmetic, never the
    per-strategy cost, since it is identical across strategies.

    The profile is derived from validated objects, so it skips the public
    constructor's checks, which hold by construction: ``pi1`` and ``pi2``
    are finite and positive (``_checked_factor``), so every layer's scale
    is finite and non-negative; the offline latencies are finite and
    non-negative (``OfflineProfile``); and the 0.5 split gives
    ``t_dw + t_dx == t_b`` exactly for every such ``t_b``. Only the scaled
    latencies and their sums can go bad, by overflowing to inf: such a
    profile is handed to the public constructor, which names the latency
    or the sum that overflowed.
    """
    table = _table_for(network, offline, device)
    scale = table.scales(state)
    # an overflowed t_b makes 0 * inf and inf - inf NaN in the split
    with np.errstate(over="ignore", invalid="ignore"):
        block = scale * table._offline
        t_f, t_b, t_re = block
        t_dw = table._dw_share * t_b
        t_dx = t_b - t_dw
        # the block's row sums are the same pairwise reductions as each
        # row's ndarray.sum in LatencyProfile.__post_init__
        t_f_total, t_b_total, t_re_total = block.sum(axis=1).tolist()
        cum_dx = t_dx.cumsum()
        cum_re = t_re.cumsum()
    t_total = t_f_total + t_b_total + t_re_total
    fields = dict(
        t_f=t_f, t_b=t_b, t_dw=t_dw, t_dx=t_dx, t_re=t_re,
        eta=table.eta, selectable=table.selectable,
    )
    if not (t_total < math.inf and cum_dx[-1] < math.inf and cum_re[-1] < math.inf):
        return LatencyProfile(**fields)
    return _derived(
        LatencyProfile,
        **fields,
        cum_dx=cum_dx,
        cum_re=cum_re,
        t_f_total=t_f_total,
        t_b_total=t_b_total,
        t_re_total=t_re_total,
        t_total=t_total,
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
        for ts, _ in self.records:
            if not math.isfinite(ts):
                raise InputError(f"trace record t_ms must be finite, got {ts}")
        recs = tuple(sorted(self.records, key=lambda r: r[0]))
        object.__setattr__(self, "records", recs)
        # times of every record but the first: bisecting them gives the index
        # of the record in force, and 0 before the second record's time
        object.__setattr__(self, "_times", tuple(ts for ts, _ in recs[1:]))
        if not self.horizon_ms >= recs[-1][0]:  # a NaN horizon fails too
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

    def next_record_ms(self, t_ms: float) -> float:
        """Time of the first record after ``t_ms``; inf when none follows,
        so ``state_at`` is constant from ``t_ms`` up to that time (and up to
        the horizon)."""
        i = bisect_right(self._times, t_ms)
        return self._times[i] if i < len(self._times) else math.inf

    @classmethod
    def constant(cls, state: SystemState, horizon_ms: float = math.inf) -> "StateTrace":
        return cls(records=((0.0, state),), horizon_ms=horizon_ms)


_DEVICE_FIELDS = frozenset(
    {"peak_flops", "b_cache", "b_dram", "dvfs", "proc_overhead_k", "tem_off", "phi_off"}
)
_DVFS_FIELDS = frozenset({"tem_c", "freq_hz"})
_TRACE_FIELDS = frozenset({"records", "horizon_ms"})
_RECORD_FIELDS = frozenset({"t_ms", "n", "tem_c", "phi"})


def load_device(document: dict) -> DeviceSpec:
    doc = convert(dict, document, "device document")
    reject_unknown(doc, _DEVICE_FIELDS, "device")

    def number(key, default=None):
        return convert(float, doc.get(key, default), f"device: {key}")

    def knot(i, d):
        name = f"device: dvfs[{i}]"
        reject_unknown(d, _DVFS_FIELDS, name)
        return (convert(float, d.get("tem_c"), f"{name}.tem_c"),
                convert(float, d.get("freq_hz"), f"{name}.freq_hz"))

    return DeviceSpec(
        peak_flops=number("peak_flops"),
        b_cache=number("b_cache"),
        b_dram=number("b_dram"),
        dvfs=tuple(
            knot(i, d)
            for i, d in enumerate(convert(list[dict], doc.get("dvfs"), "device: dvfs"))
        ),
        proc_overhead_k=number("proc_overhead_k"),
        tem_off=number("tem_off"),
        phi_off=number("phi_off", 1.0),
    )


def load_device_file(path) -> DeviceSpec:
    return load_device(read_json(path))


def load_trace(document: dict) -> StateTrace:
    doc = convert(dict, document, "trace document")
    reject_unknown(doc, _TRACE_FIELDS, "trace")
    records = []
    for i, rec in enumerate(convert(list[dict], doc.get("records"), "trace: records")):
        name = f"trace: records[{i}]"
        reject_unknown(rec, _RECORD_FIELDS, name)
        state = SystemState(
            n=convert(int, rec.get("n"), f"{name}.n"),
            tem_on=convert(float, rec.get("tem_c"), f"{name}.tem_c"),
            phi=convert(float, rec.get("phi"), f"{name}.phi"),
        )
        records.append((convert(float, rec.get("t_ms"), f"{name}.t_ms"), state))
    horizon = convert(float, doc.get("horizon_ms"), "trace: horizon_ms")
    return StateTrace(records=tuple(records), horizon_ms=horizon)


def load_trace_file(path) -> StateTrace:
    return load_trace(read_json(path))


def _layer_columns(
    document, what: str, keys, n_layers: int | None = None, top=("layers",), **defaults
):
    """The per-layer records ``{layers: [{layer_id, ...}]}`` of a profile
    file as one backward-indexed array per field in ``keys`` (slot 0 zero).
    The document may hold only the keys in ``top``, and a record only
    ``layer_id`` and ``keys``. Each field is required, or, when it has a
    default, omitted or null in a record to take it; it converts to the
    type of its default (float when it has none). The records must cover
    layer ids 0..n_layers-1, or 0..count-1 when ``n_layers`` is None, each
    once; an id outside that range is an error naming it."""
    doc = convert(dict, document, what)
    reject_unknown(doc, top, what)
    records = convert(list[dict], doc.get("layers"), f"{what} layers")
    n = len(records) if n_layers is None else n_layers
    fields = {"layer_id", *keys}
    by_id = {}
    for i, rec in enumerate(records):
        reject_unknown(rec, fields, f"{what} layers[{i}]")
        name = f"{what} layers[{i}].layer_id"
        layer_id = convert(int, rec.get("layer_id"), name)
        if not 0 <= layer_id < n:
            raise InputError(f"{name} {layer_id} lies outside 0..{n - 1}")
        if layer_id in by_id:
            raise InputError(f"{what}: duplicate layer {layer_id}")
        by_id[layer_id] = rec
    kinds = [type(defaults.get(key, 0.0)) for key in keys]
    arrays = [np.zeros(n + 1, dtype=kind) for kind in kinds]
    for layer_id in range(n):
        if layer_id not in by_id:
            raise InputError(f"{what} missing layer {layer_id}")
        rec = by_id[layer_id]
        at = f"{what} layer {layer_id}: "
        for array, kind, key in zip(arrays, kinds, keys):
            value = rec.get(key)
            value = defaults.get(key) if value is None else value
            array[n - layer_id] = convert(kind, value, at + key)
    return arrays


def load_offline_profile(document: dict, n_layers: int) -> OfflineProfile:
    """Read forward-order per-layer offline measurements into backward arrays."""
    t_f, t_b, t_re = _layer_columns(
        document, "offline profile", ("t_f_ms", "t_b_off_ms", "t_re_off_ms"), n_layers
    )
    return OfflineProfile(t_f=t_f, t_b=t_b, t_re=t_re)


def load_offline_profile_file(path, n_layers: int) -> OfflineProfile:
    return load_offline_profile(read_json(path), n_layers)


def profile_to_document(network: Network, profile: LatencyProfile) -> dict:
    """Serialize a runtime profile to its file schema (forward layer order).
    A compute-bound layer's ``eta`` is written as null, since JSON has no
    infinity."""
    n = network.n_layers
    layers = []
    for layer_id in range(n):
        b = n - layer_id
        eta_b = float(profile.eta[b])
        layers.append(
            {
                "layer_id": layer_id,
                "t_f_ms": float(profile.t_f[b]),
                "t_b_ms": float(profile.t_b[b]),
                "t_dw_ms": float(profile.t_dw[b]),
                "t_dx_ms": float(profile.t_dx[b]),
                "t_re_ms": float(profile.t_re[b]),
                "eta": None if eta_b == COMPUTE_BOUND else eta_b,
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
    t_f, t_b, t_dw, t_dx, t_re, etas, selectable = _layer_columns(
        document,
        "runtime profile",
        ("t_f_ms", "t_b_ms", "t_dw_ms", "t_dx_ms", "t_re_ms", "eta", "selectable"),
        top=("layers", "totals"),
        eta=COMPUTE_BOUND,
        selectable=True,
    )
    bad = np.flatnonzero(~(etas >= 0.0))  # NaN fails the comparison
    if bad.size:
        b = int(bad[0])
        raise InputError(
            f"runtime profile layer {len(etas) - 1 - b}: eta must be "
            f"non-negative or null, got {etas[b]}"
        )
    return LatencyProfile(
        t_f=t_f, t_b=t_b, t_dw=t_dw, t_dx=t_dx, t_re=t_re, eta=etas, selectable=selectable
    )
