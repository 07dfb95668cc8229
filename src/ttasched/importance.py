"""Backpropagation-free layer importance.

Each layer's output distribution is summarized by an interleaved vector of
channel-wise means and population variances. Importance is the divergence of
the current batch's embedding from an exponentially tracked history
embedding: large divergence marks a layer whose behaviour the new
environment has drifted away from, i.e. a layer worth updating.

Statistics, embeddings and histories cover a whole chain at once: one flat
per-channel array over all layers in forward order, with the per-layer
channel widths beside it. A one-layer object is the case of a single width.
Every divergence goes through one kernel, ``layer_divergences``, which
computes all channels' terms in one elementwise pass and reduces them per
layer as row sums of a (layers x width) block, one block per distinct width.

Two divergence modes exist. The default ``gaussian`` mode treats each
channel's (mean, variance) pair as a Gaussian and sums closed-form Gaussian
KL over channels; it is well-defined for arbitrary real means. The
``elementwise`` mode softmax-normalizes each layer's embedding vector and
applies the discrete KL sum, kept for comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .errors import InputError, convert, json_text
from .network import Network

KL_MODES = ("gaussian", "elementwise")

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


def _softmax_rows(block: np.ndarray) -> np.ndarray:
    e = np.exp(block - block.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layer_softmax(values: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Softmax of each layer's slice of a flat array, as a flat array."""
    groups = _width_groups(widths)
    if groups is None:
        return _softmax_rows(values.reshape(len(widths), -1)).ravel()
    out = np.empty_like(values)
    for _, index in groups:
        out[index] = _softmax_rows(values[index])
    return out


class _Chain:
    """Layer access shared by the chain types: ``len`` is the layer count,
    an index gives a one-layer object and a slice a shorter chain."""

    @property
    def n_layers(self) -> int:
        return len(self.widths)

    def __len__(self) -> int:
        return len(self.widths)

    def __iter__(self):
        return (self[i] for i in range(len(self.widths)))

    def __getitem__(self, key):
        layers = range(len(self.widths))[key]
        if isinstance(layers, range):
            return type(self).concat([self[i] for i in layers])
        lo, hi = _offsets(self.widths)[layers : layers + 2]
        return self._layer(layers, lo, hi)


@dataclass(frozen=True, init=False)
class FeatureStats(_Chain):
    """Channel-wise first and second moments of one batch's outputs over a
    chain of layers, in forward order.

    ``means`` and ``variances`` hold every layer's channels back to back;
    layer ``i`` covers ``widths[i]`` channels and saw ``sample_counts[i]``
    samples per channel. Indexing by layer gives one-layer objects, slicing
    gives a shorter chain. ``sample_count`` may be one count for every layer
    or one per layer; ``widths=None`` makes a single layer.
    """

    means: np.ndarray
    variances: np.ndarray
    sample_counts: tuple[int, ...]
    widths: tuple[int, ...]

    def __init__(self, means, variances, sample_count, widths=None):
        means = np.ascontiguousarray(means, dtype=float)
        variances = np.ascontiguousarray(variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise InputError("means and variances must be 1-D and equal length")
        if means.size == 0:
            raise InputError("stats must cover at least one channel")
        widths = _check_widths(widths, means.size)
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise InputError("stats must be finite")
        if (variances < 0).any():
            raise InputError("variances must be non-negative")
        if isinstance(sample_count, (Sequence, np.ndarray)):
            counts = tuple(int(s) for s in sample_count)
            if len(counts) != len(widths):
                raise InputError(
                    f"{len(counts)} sample counts for {len(widths)} layers"
                )
        else:
            counts = (int(sample_count),) * len(widths)
        if min(counts) < 1:
            raise InputError("sample_count must be >= 1")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def concat(cls, parts: Sequence["FeatureStats"]) -> "FeatureStats":
        """Stack per-layer (or per-segment) stats into one chain."""
        if not parts:
            raise InputError("stats must cover at least one layer")
        return cls(
            means=np.concatenate([p.means for p in parts]),
            variances=np.concatenate([p.variances for p in parts]),
            sample_count=sum((p.sample_counts for p in parts), ()),
            widths=sum((p.widths for p in parts), ()),
        )

    @property
    def channels(self) -> int:
        """Channels over all layers (a one-layer object's width)."""
        return self.means.size

    @property
    def sample_count(self) -> int:
        """The sample count of a one-layer object."""
        if len(self.sample_counts) != 1:
            raise InputError("stats cover several layers; use sample_counts")
        return self.sample_counts[0]

    def _layer(self, layer: int, lo: int, hi: int) -> "FeatureStats":
        return FeatureStats(
            self.means[lo:hi], self.variances[lo:hi], self.sample_counts[layer]
        )


@dataclass(frozen=True)
class Embedding(_Chain):
    """Interleaved [mean, variance] pairs, one pair per channel, over a
    chain of layers in forward order; layer ``i`` covers ``widths[i]``
    channels (``None``: one layer). Indexing by layer gives one-layer
    embeddings."""

    values: np.ndarray
    widths: tuple[int, ...] | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0 or values.size % 2 != 0:
            raise InputError("embedding must be a non-empty even-length vector")
        widths = _check_widths(self.widths, values.size // 2)
        if not np.isfinite(values).all():
            raise InputError("embedding must be finite")
        if (values[1::2] < 0).any():
            raise InputError("variance slots must be non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "widths", widths)

    @property
    def channels(self) -> int:
        """Channels over all layers (a one-layer embedding's width)."""
        return self.values.size // 2

    @property
    def means(self) -> np.ndarray:
        return self.values[0::2]

    @property
    def variances(self) -> np.ndarray:
        return self.values[1::2]

    @classmethod
    def from_stats(cls, stats: FeatureStats) -> "Embedding":
        values = np.empty(2 * stats.channels)
        values[0::2] = stats.means
        values[1::2] = stats.variances
        return cls(values, stats.widths)

    @classmethod
    def concat(cls, parts: Sequence["Embedding"]) -> "Embedding":
        """Stack per-layer (or per-segment) embeddings into one chain."""
        if not parts:
            raise InputError("embedding must cover at least one layer")
        return cls(
            np.concatenate([p.values for p in parts]),
            sum((p.widths for p in parts), ()),
        )

    def _layer(self, layer: int, lo: int, hi: int) -> "Embedding":
        return Embedding(self.values[2 * lo : 2 * hi])


def embed(source) -> Embedding:
    """Embed raw per-channel samples of one layer, or precomputed
    FeatureStats.

    Raw input is a 2-D array-like of shape (channels, samples) or a sequence
    of per-channel sample vectors. Variances are population variances
    (divide by N, not N-1).
    """
    if isinstance(source, FeatureStats):
        return Embedding.from_stats(source)
    if isinstance(source, Embedding):
        return source
    rows = [np.asarray(row, dtype=float) for row in source]
    if not rows:
        raise InputError("no channels to embed")
    values = np.empty(2 * len(rows))
    for c, row in enumerate(rows):
        if row.size == 0:
            raise InputError(f"channel {c} has no samples")
        if not np.all(np.isfinite(row)):
            raise InputError(f"channel {c} contains non-finite samples")
        mu = float(np.mean(row))
        values[2 * c] = mu
        values[2 * c + 1] = float(np.mean((row - mu) ** 2))
    return Embedding(values)


def _chain(layers) -> Embedding:
    """One chain embedding from a chain object or a sequence of per-layer
    sources (embeddings, stats or raw samples), in forward order."""
    if isinstance(layers, (Embedding, FeatureStats)):
        return embed(layers)
    return Embedding.concat([embed(layer) for layer in layers])


def layer_divergences(
    history: Embedding, current: Embedding, mode: str = "gaussian"
) -> np.ndarray:
    """Per-layer divergence of the current embedding from the history
    embedding, in forward order."""
    if mode not in KL_MODES:
        raise InputError(f"unknown divergence mode {mode!r}")
    widths = history.widths
    if widths != current.widths:
        raise InputError(
            f"embedding length mismatch: history {history.values.size} values "
            f"over {len(widths)} layers, current {current.values.size} over "
            f"{len(current.widths)}"
        )
    if mode == "gaussian":
        sh2 = history.variances + VARIANCE_FLOOR
        se2 = current.variances + VARIANCE_FLOOR
        dmu = history.means - current.means
        # extreme statistics overflow to inf, which ImportanceVector rejects
        with np.errstate(over="ignore"):
            terms = 0.5 * np.log(se2 / sh2) + (sh2 + dmu * dmu) / (2.0 * se2) - 0.5
        sums = _layer_sums(terms, widths)
    else:
        pair_widths = tuple(2 * w for w in widths)
        p = _layer_softmax(history.values, pair_widths)
        q = _layer_softmax(current.values, pair_widths)
        # 0 log 0 is 0: an entry whose history weight underflowed adds
        # nothing; an underflowed current weight makes the term inf, which
        # ImportanceVector rejects
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
        sums = _layer_sums(terms, pair_widths)
    # divergences are non-negative; clip float dust from the sums
    return np.where(sums > 0.0, sums, 0.0)


def layer_importance(history: Embedding, current: Embedding, mode: str = "gaussian") -> float:
    """Divergence of a one-layer current embedding from its history."""
    divergences = layer_divergences(history, current, mode)
    if divergences.size != 1:
        raise InputError("layer_importance scores one layer; use layer_divergences")
    return float(divergences[0])


@dataclass(frozen=True)
class EmbeddingHistory:
    """The tracked history embedding of every layer, with its blending
    rate. ``embeddings`` is one chain embedding; index it by layer."""

    embeddings: Embedding
    alpha: float = DEFAULT_ALPHA
    batches_seen: int = 1

    def __post_init__(self):
        object.__setattr__(self, "embeddings", _chain(self.embeddings))
        if not (0.0 <= self.alpha <= 1.0):
            raise InputError("alpha must lie in [0, 1]")
        if self.batches_seen < 1:
            raise InputError("batches_seen must be >= 1")

    @property
    def n_layers(self) -> int:
        return self.embeddings.n_layers

    @classmethod
    def seed(cls, currents, alpha: float = DEFAULT_ALPHA) -> "EmbeddingHistory":
        """Start a history from the first observed batch, taken verbatim."""
        return cls(embeddings=currents, alpha=alpha)

    def storage_bytes(self, scalar_width: int = 4) -> int:
        return self.embeddings.values.size * scalar_width


def update_history(history: EmbeddingHistory, currents) -> EmbeddingHistory:
    """Blend the current batch into the history, weight ``alpha`` on the new
    environment."""
    current = _chain(currents)
    past = history.embeddings
    if current.n_layers != past.n_layers:
        raise InputError(
            f"history covers {past.n_layers} layers, got {current.n_layers}"
        )
    if current.widths != past.widths:
        raise InputError("embedding shape changed between batches")
    a = history.alpha
    return EmbeddingHistory(
        embeddings=Embedding(a * current.values + (1.0 - a) * past.values, past.widths),
        alpha=a,
        batches_seen=history.batches_seen + 1,
    )


def adaptation_loss(histories, currents, mode: str = "gaussian") -> float:
    """Sum of per-layer divergences over all layers, the adaptation objective."""
    histories = _chain(histories)
    currents = _chain(currents)
    if histories.n_layers != currents.n_layers:
        raise InputError(
            f"layer count mismatch: {histories.n_layers} history vs "
            f"{currents.n_layers} current"
        )
    # the builtin sum of Python floats, layer by layer in forward order
    return sum(layer_divergences(histories, currents, mode).tolist())


@dataclass(frozen=True)
class ImportanceVector:
    """Per-layer importance, backward-indexed 1..N (slot 0 is 0).

    Parameter-free layers carry importance 0 by convention; they can never
    be selected, so any drift they register is unusable by the scheduler.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise InputError("importance vector must be 1-D with slot 0 padding")
        if a[0] != 0.0:
            raise InputError("slot 0 of the importance vector is padding")
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise InputError("importances must be finite and non-negative")
        object.__setattr__(self, "a", a)

    @property
    def n_layers(self) -> int:
        return self.a.size - 1

    @property
    def total(self) -> float:
        return float(np.sum(self.a))


def _stats_chain(stats) -> FeatureStats:
    if isinstance(stats, FeatureStats):
        return stats
    return FeatureStats.concat(list(stats))


def assessment_flops(stats) -> float:
    """Analytic op count of one assessment pass (moment extraction + KL)
    over the layers the stats cover."""
    stats = _stats_chain(stats)
    total = 0.0
    for n_c, samples in zip(stats.widths, stats.sample_counts):
        total += n_c * (
            _EXTRACT_OPS_PER_SAMPLE * samples
            + _EXTRACT_OPS_PER_CHANNEL
            + _KL_OPS_PER_CHANNEL
        )
    return total


def assess(
    network: Network | None,
    history: EmbeddingHistory,
    current_stats,
    mode: str = "gaussian",
) -> tuple[ImportanceVector, float]:
    """Score every layer against the history.

    Returns the backward-indexed importance vector and the analytic op count
    of the assessment. With a network, the stats must match its layers'
    channel counts and parameter-free layers are forced to 0; without one
    (``None``) every layer is scored.
    """
    stats = _stats_chain(current_stats)
    n = network.n_layers if network is not None else stats.n_layers
    if history.n_layers != n:
        raise InputError(
            f"history covers {history.n_layers} layers, network has {n}"
        )
    if stats.n_layers != n:
        raise InputError(f"stats cover {stats.n_layers} layers, network has {n}")
    if network is not None:
        for layer, width in zip(network.layers, stats.widths):
            if width != layer.channels:
                raise InputError(
                    f"layer {layer.id}: stats cover {width} channels, "
                    f"layer has {layer.channels}"
                )
    divergences = layer_divergences(
        history.embeddings, Embedding.from_stats(stats), mode
    )
    a = np.zeros(n + 1)
    a[1:] = divergences[::-1]
    if network is not None:
        for layer in network.layers:
            if not layer.has_params:
                a[n - layer.id] = 0.0
    return ImportanceVector(a=a), assessment_flops(stats)


def load_stats_lines(text: str) -> FeatureStats:
    """Parse JSON-lines feature stats (one record per layer) into one
    forward-ordered chain."""
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
        layer_id = convert(int, rec.get("layer_id"), f"{what}: layer_id")
        stats = FeatureStats(
            means=convert(list[float], rec.get("means"), f"{what}: means"),
            variances=convert(list[float], rec.get("vars"), f"{what}: vars"),
            sample_count=convert(int, rec.get("samples"), f"{what}: samples"),
        )
        if layer_id in records:
            raise InputError(f"{what}: duplicate layer {layer_id}")
        records[layer_id] = stats
    if not records:
        raise InputError("stats file contains no records")
    n = len(records)
    if set(records) != set(range(n)):
        raise InputError("stats layer ids must be contiguous from 0")
    return FeatureStats.concat([records[i] for i in range(n)])


def load_stats_file(path) -> FeatureStats:
    # undecodable bytes read as U+FFFD, which then fails to parse as JSON
    with open(path, errors="replace") as fh:
        return load_stats_lines(fh.read())


def stats_to_lines(stats) -> str:
    return "".join(
        json_text(
            {
                "layer_id": layer_id,
                "means": [float(x) for x in st.means],
                "vars": [float(x) for x in st.variances],
                "samples": st.sample_count,
            },
            indent=None,
            sort_keys=False,
        )
        for layer_id, st in enumerate(stats)
    )
