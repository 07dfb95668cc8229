"""Backpropagation-free layer importance.

Each layer's output distribution is summarized by its channel-wise means
and population variances. Importance is the divergence of the current
batch's embedding from an exponentially tracked history embedding: large
divergence marks a layer whose behaviour the new environment has drifted
away from, i.e. a layer worth updating.

An ``Embedding`` covers a whole chain at once: two flat per-channel arrays,
means and variances, over all layers in forward order, with the per-layer
channel widths beside them. It is the one type for a chain's moments: a
sampled batch, a stats file, a noise-free observation and a tracked history
are each one. There is no per-layer object: a layer is a slice of the flat
arrays, and a one-layer chain is the case of a single width. Every
divergence goes through one kernel, ``layer_divergences``, which computes
all channels' terms in one elementwise pass and reduces them per layer as
row sums of a (layers x width) block, one block per distinct width.

The divergence treats each channel's (mean, variance) pair as a Gaussian
and sums closed-form Gaussian KL over the layer's channels; it is
well-defined for arbitrary real means.

Public constructors validate; derivations from validated objects use the
trusted path. A constructor called with outside values checks every width,
shape, sign and finiteness fact. An object derived from objects that were
already checked (a blended history, a stats file's stacked layers) is built
by ``errors._derived``, which skips those checks; the derivation keeps one
check only where its arithmetic can first make a value go bad, such as an
overflow in a blend.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .errors import (
    InputError,
    _derived,
    _ordered_sum,
    convert,
    reject_unknown,
)
from .network import Network

# additive floor on every variance before a KL evaluation, so constant
# channels cannot divide by zero
VARIANCE_FLOOR = 1e-6

DEFAULT_ALPHA = 0.1

# analytic op-count model for the assessment overhead: extracting mean and
# population variance costs ~4 ops per sample per channel plus the two
# divisions; one channel's Gaussian KL costs a dozen more
_EXTRACT_OPS_PER_SAMPLE = 4
_EXTRACT_OPS_PER_CHANNEL = 2
_KL_OPS_PER_CHANNEL = 12


def _check_widths(widths, size: int) -> tuple[int, ...]:
    """Per-layer channel widths covering ``size`` channels; ``None`` is one
    layer of all of them."""
    if widths is None:
        return (size,)
    widths = tuple(map(int, widths))
    if not widths or min(widths) < 1:
        raise InputError("every layer must cover at least one channel")
    if sum(widths) != size:
        raise InputError(
            f"layer widths cover {sum(widths)} channels, arrays hold {size}"
        )
    return widths


@lru_cache(maxsize=64)
def _offsets(widths: tuple[int, ...]) -> tuple[int, ...]:
    """First channel of each layer, plus the total."""
    out = [0]
    for w in widths:
        out.append(out[-1] + w)
    return tuple(out)


@lru_cache(maxsize=64)
def _width_groups(widths: tuple[int, ...]):
    """Row layout of a flat per-channel array: ``None`` when every layer has
    the same width (a plain reshape), else one (layer indices, (k, w) array
    of element indices) pair per distinct width."""
    if len(set(widths)) == 1:
        return None
    starts = np.array(_offsets(widths)[:-1])
    groups = []
    for w in sorted(set(widths)):
        layers = np.array([i for i, x in enumerate(widths) if x == w])
        groups.append((layers, starts[layers][:, None] + np.arange(w)))
    return tuple(groups)


def _layer_sums(terms: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Per-layer sums of a flat per-channel array.

    Each layer's sum is a row sum of a C-contiguous 2-D block, which numpy
    reduces pairwise exactly as ``np.sum`` reduces the layer's own 1-D
    slice. ``np.add.reduceat`` sums sequentially and would round
    differently.
    """
    groups = _width_groups(widths)
    if groups is None:
        return terms.reshape(len(widths), -1).sum(axis=1)
    out = np.empty(len(widths))
    for layers, index in groups:
        out[layers] = terms[index].sum(axis=1)
    return out


@dataclass(frozen=True)
class Embedding:
    """Channel-wise means and population variances over a chain of layers
    in forward order: ``means`` and ``variances`` hold every layer's
    channels back to back, and layer ``i`` covers ``widths[i]`` channels
    (``None``: one layer)."""

    means: np.ndarray
    variances: np.ndarray
    widths: tuple[int, ...] | None = None

    def __post_init__(self):
        means = np.ascontiguousarray(self.means, dtype=float)
        variances = np.ascontiguousarray(self.variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise InputError("means and variances must be 1-D and equal length")
        if means.size == 0:
            raise InputError("stats must cover at least one channel")
        widths = _check_widths(self.widths, means.size)
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise InputError("stats must be finite")
        if (variances < 0).any():
            raise InputError("variances must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "widths", widths)

    @property
    def n_layers(self) -> int:
        return len(self.widths)


def _split_mismatch(name: str, widths: tuple[int, ...], current: tuple[int, ...]) -> str:
    """The message for a current chain split into layers other than
    ``name``'s, naming the first layer at fault."""
    for layer, (w, c) in enumerate(zip(widths, current)):
        if w != c:
            return f"layer {layer}: {name} has {w} channels, current has {c}"
    return (
        f"layer {min(len(widths), len(current))}: {name} has {len(widths)} "
        f"layers, current has {len(current)}"
    )


def layer_divergences(history: Embedding, current: Embedding) -> np.ndarray:
    """Per-layer Gaussian KL of the current embedding from the history
    embedding, in forward order."""
    widths = history.widths
    if widths != current.widths:
        raise InputError(_split_mismatch("history", widths, current.widths))
    sh2 = history.variances + VARIANCE_FLOOR
    se2 = current.variances + VARIANCE_FLOOR
    dmu = history.means - current.means
    # extreme statistics overflow to inf, which ImportanceVector rejects
    with np.errstate(over="ignore"):
        terms = 0.5 * np.log(se2 / sh2) + (sh2 + dmu * dmu) / (2.0 * se2) - 0.5
    sums = _layer_sums(terms, widths)
    # divergences are non-negative; clip float dust from the sums
    return np.where(sums > 0.0, sums, 0.0)


@dataclass(frozen=True)
class EmbeddingHistory:
    """The tracked history embedding of every layer, with its blending
    rate. ``embeddings`` is one chain embedding."""

    embeddings: Embedding
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InputError("alpha must lie in [0, 1]")

    @property
    def n_layers(self) -> int:
        return self.embeddings.n_layers

    @classmethod
    def seed(cls, current: Embedding, alpha: float = DEFAULT_ALPHA) -> EmbeddingHistory:
        """Start a history from the first observed batch, taken verbatim."""
        return cls(embeddings=current, alpha=alpha)

    def storage_bytes(self) -> int:
        """Bytes of the history held as fp32, as the paper stores it."""
        return 2 * self.embeddings.means.size * 4


def update_history(history: EmbeddingHistory, current: Embedding) -> EmbeddingHistory:
    """Blend the current batch into the history, weight ``alpha`` on the new
    environment."""
    past = history.embeddings
    if current.widths != past.widths:
        raise InputError(_split_mismatch("history", past.widths, current.widths))
    a = history.alpha
    # a blend of non-negative variances with alpha in [0, 1] stays
    # non-negative, but two huge values may round past the largest float
    with np.errstate(over="ignore"):
        means = a * current.means + (1.0 - a) * past.means
        variances = a * current.variances + (1.0 - a) * past.variances
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise InputError("embedding must be finite")
    blended = _derived(Embedding, means=means, variances=variances, widths=past.widths)
    return _derived(EmbeddingHistory, embeddings=blended, alpha=a)


def adaptation_loss(history: Embedding, current: Embedding) -> float:
    """Sum of per-layer divergences over all layers, the adaptation objective."""
    # the Python floats added layer by layer in forward order
    return _ordered_sum(layer_divergences(history, current).tolist())


@dataclass(frozen=True)
class ImportanceVector:
    """Per-layer importance, backward-indexed 1..N (slot 0 is 0).

    Parameter-free layers carry importance 0 by convention; they can never
    be selected, so any drift they register is unusable by the scheduler.
    ``total`` is computed once, at construction.
    """

    a: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise InputError("importance vector must be 1-D with slot 0 padding")
        if a[0] != 0.0:
            raise InputError("slot 0 of the importance vector is padding")
        # NaN fails both comparisons
        if not (a.min() >= 0.0 and a.max() < math.inf):
            raise InputError("importances must be finite and non-negative")
        object.__setattr__(self, "a", a)
        # ndarray.sum is np.sum's pairwise reduction without its dispatch
        object.__setattr__(self, "total", float(a.sum()))

    @property
    def n_layers(self) -> int:
        return self.a.size - 1


def assessment_flops(widths: Sequence[int], sample_counts: Sequence[int]) -> float:
    """Analytic op count of one assessment pass (moment extraction + KL)
    over a chain whose layer ``i`` has ``widths[i]`` channels of
    ``sample_counts[i]`` samples each; it depends on the chain's shape
    alone, so an episode prices it once."""
    total = 0.0
    for n_c, samples in zip(widths, sample_counts):
        total += n_c * (
            _EXTRACT_OPS_PER_SAMPLE * samples
            + _EXTRACT_OPS_PER_CHANNEL
            + _KL_OPS_PER_CHANNEL
        )
    return total


def assess(
    network: Network | None, history: EmbeddingHistory, current: Embedding
) -> tuple[ImportanceVector, float]:
    """Score every layer of the current batch against the history: the
    batch's one divergence pass.

    Returns the backward-indexed importance vector and the batch's
    adaptation loss against the history, summed from the same divergences
    (``adaptation_loss(history.embeddings, current)``, bit for bit). With a
    network, the current chain must match its layers' channel counts and
    parameter-free layers are forced to 0; without one (``None``) every
    layer is scored.
    """
    if network is not None:
        widths = tuple(layer.channels for layer in network.layers)
        if current.widths != widths:
            raise InputError(_split_mismatch("network", widths, current.widths))
    divergences = layer_divergences(history.embeddings, current)
    a = np.zeros(divergences.size + 1)
    a[1:] = divergences[::-1]
    if network is not None:
        a[~network.selectable] = 0.0
    return ImportanceVector(a=a), _ordered_sum(divergences.tolist())


_STATS_FIELDS = frozenset({"layer_id", "means", "vars", "samples"})


def load_stats_lines(text: str) -> Embedding:
    """Parse JSON-lines feature stats (one record per layer) into one
    forward-ordered chain. Each record's ``samples`` must be an integer
    >= 1; the chain keeps the moments only."""
    records = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        what = f"stats line {lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{what}: invalid JSON ({exc})") from None
        rec = convert(dict, rec, what)
        reject_unknown(rec, _STATS_FIELDS, what)
        layer_id = convert(int, rec.get("layer_id"), f"{what}: layer_id")
        means = convert(list[float], rec.get("means"), f"{what}: means")
        variances = convert(list[float], rec.get("vars"), f"{what}: vars")
        samples = convert(int, rec.get("samples"), f"{what}: samples")
        layer = Embedding(means, variances)
        if samples < 1:
            raise InputError("sample_count must be >= 1")
        if layer_id in records:
            raise InputError(f"{what}: duplicate layer {layer_id}")
        records[layer_id] = layer
    if not records:
        raise InputError("stats file contains no records")
    n = len(records)
    if set(records) != set(range(n)):
        raise InputError("stats layer ids must be contiguous from 0")
    layers = [records[i] for i in range(n)]
    # each layer was validated as it was read
    return _derived(
        Embedding,
        means=np.concatenate([l.means for l in layers]),
        variances=np.concatenate([l.variances for l in layers]),
        widths=sum((l.widths for l in layers), ()),
    )


def load_stats_file(path) -> Embedding:
    """The stats in the file at ``path``; a fault in it is an InputError
    naming the file."""
    try:
        # undecodable bytes read as U+FFFD, which then fails to parse as JSON
        with open(path, errors="replace") as fh:
            return load_stats_lines(fh.read())
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
