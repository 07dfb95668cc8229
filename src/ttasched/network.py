"""Layer-chain cost model.

A network is an ordered chain of layers, each carrying analytic compute
(multiply-accumulate) and memory-traffic attributes. Layers are addressed in
two coordinate systems:

* forward index ``id``: 0 = input-side layer, as stored in network files;
* backward index ``b = N - id``: 1 = output-side layer, the natural
  coordinate for backpropagation-chain costs. All scheduling math uses
  backward indices.

``closed_form_parts`` is the ground-truth latency of a sparse update
strategy; the scheduler's search and its enumeration oracle both price
strategies with it, and ``closed_form_cost`` wraps it as a ``StrategyCost``
for the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _derived, convert, read_json, reject_unknown

LAYER_KINDS = (
    "conv2d",
    "linear",
    "batchnorm",
    "layernorm",
    "activation",
    "pooling",
    "attention-projection",
    "feedforward",
)

PARAM_FREE_KINDS = frozenset({"activation", "pooling"})

DEFAULT_ELEMENT_WIDTH = 4  # bytes per stored element

# explicit costs must agree with hyperparam-derived ones to 0.1% relative
COST_CONSISTENCY_RTOL = 1e-3

_LAYER_FIELDS = frozenset(
    {"id", "kind", "has_params", "channels", "out_elements", "mac_count",
     "mem_traffic", "hyperparams"}
)
_NETWORK_FIELDS = frozenset({"name", "layers", "element_width"})


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain, forward-indexed."""

    id: int
    kind: str
    has_params: bool
    channels: int
    out_elements: int
    mac_count: int = 0
    mem_traffic: int = 0
    hyperparams: dict | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InputError(f"layer {self.id}: unknown kind {self.kind!r}")
        if self.channels < 1:
            raise InputError(f"layer {self.id}: channels must be >= 1")
        if self.out_elements < 1:
            raise InputError(f"layer {self.id}: out_elements must be >= 1")
        if self.kind in PARAM_FREE_KINDS and self.has_params:
            raise InputError(
                f"layer {self.id}: kind {self.kind!r} cannot carry parameters"
            )
        if self.mac_count < 0 or self.mem_traffic < 0:
            raise InputError(f"layer {self.id}: costs must be non-negative")


def derive_costs(layer: LayerSpec, element_width: int = DEFAULT_ELEMENT_WIDTH):
    """Analytic (mac_count, mem_traffic) for one layer from its hyperparams.

    Memory traffic counts forward-pass weights read plus input read plus
    output written, at ``element_width`` bytes per element. Backward-pass
    traffic differs and is deliberately not modelled here.
    """
    hp = layer.hyperparams
    if hp is None:
        raise InputError(f"layer {layer.id}: no hyperparams to derive costs from")

    at = f"layer {layer.id}: hyperparams "

    def positive(value, name):
        value = convert(int, value, at + name)
        if value < 1:
            raise InputError(f"{at}{name} must be >= 1, got {value}")
        return value

    def dim(name, default=None):
        return positive(hp.get(name, default), name)

    def dims(*names):
        return [dim(name) for name in names]

    def kernel(default=None):
        k = hp.get("kernel", default)
        pair = k if isinstance(k, (list, tuple)) and len(k) == 2 else (k, k)
        return [positive(v, "kernel") for v in pair]

    batch = dim("batch", 1)
    kind = layer.kind

    if kind == "conv2d":
        cin, cout, h, w = dims("in_channels", "out_channels", "h_out", "w_out")
        kh, kw = kernel()
        h_in = dim("h_in", h)
        w_in = dim("w_in", w)
        mac = kh * kw * cin * cout * h * w * batch
        weights = kh * kw * cin * cout
        activ = (cin * h_in * w_in + cout * h * w) * batch
    elif kind == "linear":
        fin, fout = dims("in_features", "out_features")
        rows = batch * dim("tokens", 1)
        mac = rows * fin * fout
        weights = fin * fout
        activ = rows * (fin + fout)
    elif kind in ("batchnorm", "layernorm"):
        # scale + shift per output element
        mac = 2 * layer.out_elements * batch
        weights = 2 * layer.channels
        activ = 2 * layer.out_elements * batch
    elif kind == "activation":
        mac = layer.out_elements * batch
        weights = 0
        activ = 2 * layer.out_elements * batch
    elif kind == "pooling":
        kh, kw = kernel(default=1)
        window = kh * kw
        mac = window * layer.out_elements * batch
        weights = 0
        activ = (window + 1) * layer.out_elements * batch
    elif kind == "attention-projection":
        tokens, fin, fout = dims("tokens", "in_features", "out_features")
        mac = batch * tokens * fin * fout
        weights = fin * fout
        activ = batch * tokens * (fin + fout)
    elif kind == "feedforward":
        tokens, hidden, ffn = dims("tokens", "hidden_dim", "ffn_dim")
        mac = 2 * batch * tokens * hidden * ffn
        weights = 2 * hidden * ffn
        activ = batch * tokens * (2 * hidden + 2 * ffn)
    else:  # pragma: no cover - kinds validated in LayerSpec
        raise InputError(f"layer {layer.id}: unknown kind {kind!r}")

    return mac, (weights + activ) * element_width


@dataclass(frozen=True)
class Network:
    """Ordered layer chain. Layer ids must be contiguous 0..N-1.

    ``selectable`` is the mask of layers that carry parameters, built once
    at construction, read-only and backward-indexed 1..N (slot 0 is
    padding).
    """

    name: str
    layers: tuple[LayerSpec, ...]
    element_width: int = DEFAULT_ELEMENT_WIDTH

    def __post_init__(self):
        if not self.layers:
            raise InputError("empty network")
        for pos, layer in enumerate(self.layers):
            if layer.id != pos:
                raise InputError(
                    f"layer ids must be contiguous 0..{len(self.layers) - 1}; "
                    f"found id {layer.id} at position {pos}"
                )
        if self.element_width < 1:
            raise InputError("element_width must be >= 1")
        selectable = np.array([False] + [l.has_params for l in self.layers[::-1]])
        selectable.flags.writeable = False
        object.__setattr__(self, "selectable", selectable)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def backward_index(self, layer_id: int) -> int:
        return self.n_layers - layer_id

    def layer_by_backward(self, b: int) -> LayerSpec:
        if not 1 <= b <= self.n_layers:
            raise InputError(f"backward index {b} out of range 1..{self.n_layers}")
        return self.layers[self.n_layers - b]

    def selectable_backward(self) -> tuple[int, ...]:
        """Backward indices of layers that may appear in an update strategy."""
        return tuple(np.flatnonzero(self.selectable).tolist())


@dataclass(frozen=True)
class UpdateStrategy:
    """Sparse layer selection, held as ascending backward indices."""

    n_layers: int
    selected: tuple[int, ...]

    def __post_init__(self):
        sel = tuple(sorted(set(int(b) for b in self.selected)))
        object.__setattr__(self, "selected", sel)
        if sel and not (1 <= sel[0] and sel[-1] <= self.n_layers):
            raise InputError(
                f"selected backward indices must lie in 1..{self.n_layers}"
            )

    @property
    def deepest(self) -> int:
        return self.selected[-1] if self.selected else 0

    @property
    def is_empty(self) -> bool:
        return not self.selected

    def validate_against(self, network: Network) -> None:
        if self.n_layers != network.n_layers:
            raise InputError(
                f"strategy covers {self.n_layers} layers, network has "
                f"{network.n_layers}"
            )
        for b in self.selected:
            if not network.selectable[b]:
                raise InputError(
                    f"backward index {b} is parameter-free and cannot be selected"
                )


@dataclass(frozen=True)
class StrategyCost:
    """Extra latency induced by an update strategy, in milliseconds."""

    t_backward: float
    t_reforward: float

    @property
    def t_total_extra(self) -> float:
        return self.t_backward + self.t_reforward


def closed_form_parts(profile, selected: tuple[int, ...]) -> tuple[float, float]:
    """``(t_backward, t_reforward)`` of an ascending selection of backward
    indices under ``profile``: the one cost formula.

    A selection's cost is set by its deepest layer ``d``: the weight-gradient
    times of the selected layers, summed in ascending order, plus the
    activation-gradient prefix ``cum_dx[d - 1]``, is its backward time; the
    reforward prefix ``cum_re[d]`` is its reforward time. The search, the
    oracle and the reports all price strategies here (the search inlines the
    same additions in the same order), so they round identically; a
    strategy's total is ``t_backward + t_reforward``, in that order.

    ``profile`` is a ``latency.LatencyProfile`` or anything exposing
    ``t_dw``, ``cum_dx`` and ``cum_re`` indexable by backward index, such as
    the scheduler's float view of one (the same values as Python lists).
    Every value read passes through ``float()``, so both give the same two
    floats bit for bit.
    """
    if not selected:
        return 0.0, 0.0
    t_dw = profile.t_dw
    t_dw_sum = 0.0
    for b in selected:
        t_dw_sum += float(t_dw[b])
    d = selected[-1]
    return t_dw_sum + float(profile.cum_dx[d - 1]), float(profile.cum_re[d])


def closed_form_cost(profile, selected: tuple[int, ...]) -> StrategyCost:
    """``closed_form_parts`` as a ``StrategyCost``, built on the trusted path
    (``errors._derived``): its two fields are sums of floats."""
    t_backward, t_reforward = closed_form_parts(profile, selected)
    return _derived(StrategyCost, t_backward=t_backward, t_reforward=t_reforward)


def load_network(document: dict) -> Network:
    """Build a Network from a parsed network document.

    Layers listed with hyperparams get their costs derived (and checked
    against explicit values when both are present); layers without
    hyperparams must carry explicit costs.
    """
    document = convert(dict, document, "network document")
    reject_unknown(document, _NETWORK_FIELDS, "network")
    raw_layers = convert(list[dict], document.get("layers", []), "layers")
    if not raw_layers:
        raise InputError("empty network")
    element_width = convert(
        int, document.get("element_width", DEFAULT_ELEMENT_WIDTH), "element_width"
    )

    seen_ids = set()
    layers = []
    for raw in raw_layers:
        reject_unknown(raw, _LAYER_FIELDS, f"layer {raw.get('id')}")
        layer_id = convert(int, raw.get("id"), "layer id")
        if layer_id in seen_ids:
            raise InputError(f"duplicate layer id {layer_id}")
        seen_ids.add(layer_id)

        at = f"layer {layer_id}: "

        def optional(kind, key):
            return None if raw.get(key) is None else convert(kind, raw[key], at + key)

        explicit_mac = optional(int, "mac_count")
        explicit_mem = optional(int, "mem_traffic")
        fields = dict(
            id=layer_id,
            kind=convert(str, raw.get("kind"), at + "kind"),
            has_params=convert(bool, raw.get("has_params"), at + "has_params"),
            channels=convert(int, raw.get("channels"), at + "channels"),
            out_elements=convert(int, raw.get("out_elements"), at + "out_elements"),
            hyperparams=optional(dict, "hyperparams"),
        )
        probe = LayerSpec(
            **fields, mac_count=explicit_mac or 0, mem_traffic=explicit_mem or 0
        )
        if probe.hyperparams is not None:
            mac, mem = derive_costs(probe, element_width)
            for name, explicit, derived in (
                ("mac_count", explicit_mac, mac),
                ("mem_traffic", explicit_mem, mem),
            ):
                if explicit is not None and not math.isclose(
                    explicit, derived, rel_tol=COST_CONSISTENCY_RTOL
                ):
                    raise InputError(
                        f"layer {layer_id}: {name} {explicit} disagrees with "
                        f"hyperparam-derived value {derived}"
                    )
            probe = LayerSpec(**fields, mac_count=mac, mem_traffic=mem)
        elif explicit_mac is None or explicit_mem is None:
            raise InputError(
                f"layer {layer_id}: needs either explicit costs or hyperparams"
            )
        layers.append(probe)

    layers.sort(key=lambda l: l.id)
    return Network(
        name=convert(str, document.get("name", "unnamed"), "name"),
        layers=tuple(layers),
        element_width=element_width,
    )


def load_network_file(path) -> Network:
    return load_network(read_json(path))
