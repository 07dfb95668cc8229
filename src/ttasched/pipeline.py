"""Discrete simulation of the adapt-while-serving pipeline.

An episode replays a drifting synthetic environment through the full loop:
per batch, channel statistics are sampled, layer importance is assessed
against the tracked history, a runtime latency profile is built from the
system-state trace, the scheduler picks the update strategy, and a
ground-truth executor (same latency physics, plus jitter and instantaneous
state sampling) runs the three phases. A full-update replay of the same
episode provides the speedup baseline; once the trace has no record ahead,
it runs its remaining batches as array blocks, bit for bit the executor's
arithmetic. The JSON and CSV reports take each record's texts from one
formatting pass (``report_texts``).

The model itself is a response-distribution proxy: updating a layer closes
a fraction of its gap to the current environment distribution. Real weights
and gradients are out of scope; importance capture and the adaptation loss
stand in for accuracy.

Public constructors validate; derivations from validated objects use the
trusted path. The per-batch objects of an episode (the sampled stats, the
observed embedding, the updated model) are derived from the scenario's
validated environment and model through ``errors._derived``, which
skips the constructors' width, shape and sign checks; the executor's
results are built the same way, with their totals taken in one reduction,
and so are the batch records, which have no checks. Each derivation keeps
a finiteness or positivity check where its own arithmetic can first make a
value go bad: the sampled and observed moments can overflow, and the
variance blend ``v + g * (e - v)`` can round to 0.0.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    InputError,
    _derived,
    _ordered_sum,
    convert,
    read_json,
    reject_unknown,
)
from .importance import (
    Embedding,
    EmbeddingHistory,
    _check_widths,
    _offsets,
    adaptation_loss,
    assess,
    assessment_flops,
    update_history,
)
from .latency import (
    DeviceSpec,
    LatencyTable,
    OfflineProfile,
    StateTrace,
    _table_for,
    build_profile,
    load_device_file,
    load_offline_profile_file,
    load_trace_file,
)
from .network import Network, UpdateStrategy, load_network_file
from .scheduler import SchedulerConfig, solve_dp


@dataclass(frozen=True)
class Shift:
    """A persistent environment change, active from ``batch_index`` on."""

    batch_index: int
    layers: tuple[int, ...]  # forward ids
    mean_offset_sigmas: float
    var_scale: float = 1.0

    def __post_init__(self):
        if self.batch_index < 0:
            raise InputError("shift batch_index must be non-negative")
        if not self.layers:
            raise InputError("shift must name at least one layer")
        ordered = sorted(self.layers)
        for layer, after in zip(ordered, ordered[1:]):
            if layer == after:
                raise InputError(f"shift names layer {layer} more than once")
        if not math.isfinite(self.mean_offset_sigmas):
            raise InputError("shift mean_offset_sigmas must be finite")
        if not 0.0 < self.var_scale < math.inf:
            raise InputError("var_scale must be finite and positive")


# A channel's sample count n enters the sampler as the float n - 1, which is
# exact up to 2**53.
MAX_SAMPLE_COUNT = 2**53


@dataclass(frozen=True)
class EnvironmentSpec:
    """Synthetic environment: per-layer channel distributions plus a shift
    schedule. Mean offsets are expressed in units of the base standard
    deviation of the affected channel.

    The parameters of every shift epoch are computed once, at construction,
    as read-only arrays flat over the chain; ``base_means`` and ``base_vars``
    become read-only per-layer views of the unshifted epoch."""

    channels: tuple[int, ...]
    positions: tuple[int, ...]
    base_means: tuple[np.ndarray, ...]
    base_vars: tuple[np.ndarray, ...]
    shifts: tuple[Shift, ...]
    batch_size: int

    def __post_init__(self):
        n = len(self.channels)
        if n == 0:
            raise InputError("environment must cover at least one layer")
        if not (len(self.positions) == len(self.base_means) == len(self.base_vars) == n):
            raise InputError("environment per-layer fields must share one length")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        for i, (c, p) in enumerate(zip(self.channels, self.positions)):
            if c < 1 or p < 1:
                raise InputError(f"layer {i}: channels and positions must be >= 1")
            if self.batch_size * p > MAX_SAMPLE_COUNT:
                raise InputError(
                    f"layer {i}: batch_size * positions = {self.batch_size * p} "
                    "samples per channel exceeds 2**53"
                )
        # integer widths: the sampled stats take theirs from the environment
        object.__setattr__(self, "channels", tuple(map(int, self.channels)))
        means = [np.asarray(m, dtype=float) for m in self.base_means]
        varis = [np.asarray(v, dtype=float) for v in self.base_vars]
        shapes = [(c,) for c in self.channels]
        if [m.shape for m in means] != shapes or [v.shape for v in varis] != shapes:
            i = next(
                i for i, shape in enumerate(shapes)
                if means[i].shape != shape or varis[i].shape != shape
            )
            raise InputError(f"layer {i}: base params must match channel count")
        # one flat read-only copy per moment, checked once over the chain
        mean = np.concatenate(means)
        var = np.concatenate(varis)
        mean.flags.writeable = var.flags.writeable = False
        bounds = _offsets(self.channels)
        if (var <= 0).any():
            first = int(np.flatnonzero(var <= 0)[0])
            raise InputError(
                f"layer {bisect_right(bounds, first) - 1}: base variances must be "
                "positive"
            )
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise InputError("environment base means and variances must be finite")
        spans = tuple(zip(bounds[:-1], bounds[1:]))
        object.__setattr__(self, "base_means", tuple(mean[lo:hi] for lo, hi in spans))
        object.__setattr__(self, "base_vars", tuple(var[lo:hi] for lo, hi in spans))
        indices = [s.batch_index for s in self.shifts]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise InputError("shift batch indices must be strictly increasing")
        for s in self.shifts:
            for layer in s.layers:
                if not 0 <= layer < n:
                    raise InputError(f"shift names unknown layer {layer}")
        # epoch k: the first k shifts applied in order, each to the channel
        # ranges of the layers it names
        epochs = [(mean, var)]
        sd = np.sqrt(var)
        for s in self.shifts:
            mean, var = mean.copy(), var.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                for layer in s.layers:
                    lo, hi = spans[layer]
                    mean[lo:hi] = mean[lo:hi] + s.mean_offset_sigmas * sd[lo:hi]
                    var[lo:hi] = var[lo:hi] * s.var_scale
            if not (np.isfinite(mean).all() and np.isfinite(var).all()):
                raise InputError(
                    f"shift at batch {s.batch_index} makes the environment "
                    "means or variances non-finite"
                )
            mean.flags.writeable = var.flags.writeable = False
            epochs.append((mean, var))
        object.__setattr__(self, "_shift_batches", tuple(indices))
        object.__setattr__(self, "_epochs", tuple(epochs))
        counts = tuple(self.batch_size * p for p in self.positions)
        object.__setattr__(self, "sample_counts", tuple(map(int, counts)))
        # per channel: its sample count n, and for the channels with n > 1,
        # their indices and chi-square degrees of freedom n - 1 (exact floats,
        # since n <= 2**53)
        samples = _frozen(np.repeat(np.array(counts, dtype=float), self.channels))
        chi2_index = np.flatnonzero(samples > 1)
        chi2_index.flags.writeable = False
        object.__setattr__(self, "_channel_samples", samples)
        object.__setattr__(self, "_chi2_index", chi2_index)
        object.__setattr__(self, "_chi2_df", _frozen(samples[chi2_index] - 1.0))

    @property
    def n_layers(self) -> int:
        return len(self.channels)

    def params_at(self, batch_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Environment (means, variances), each one read-only array over the
        chain, with all shifts up to and including ``batch_index`` applied."""
        return self._epochs[bisect_right(self._shift_batches, batch_index)]


def _frozen(values) -> np.ndarray:
    """A read-only float copy."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def gaussian_environment(
    network: Network, positions=None, shifts=(), batch_size: int = 1, mean=0.0, var=1.0
) -> EnvironmentSpec:
    """An environment over ``network`` whose every channel starts as
    N(mean, var). ``positions`` defaults to each layer's output elements
    per channel, at least 1."""
    if positions is None:
        positions = [max(1, l.out_elements // l.channels) for l in network.layers]
    widths = tuple(l.channels for l in network.layers)
    try:
        means = np.full(sum(widths), mean, dtype=float)
        varis = np.full(sum(widths), var, dtype=float)
    except (ValueError, MemoryError, OverflowError):  # "array is too big"
        widest = max(network.layers, key=lambda l: l.channels)
        raise InputError(
            f"layer {widest.id}: {widest.channels} channels do not fit in memory"
        ) from None
    bounds = _offsets(widths)
    spans = tuple(zip(bounds[:-1], bounds[1:]))
    return EnvironmentSpec(
        channels=widths,
        positions=tuple(positions),
        base_means=tuple(means[lo:hi] for lo, hi in spans),
        base_vars=tuple(varis[lo:hi] for lo, hi in spans),
        shifts=tuple(shifts),
        batch_size=batch_size,
    )


@dataclass(frozen=True)
class ModelResponseState:
    """Distribution the model currently reproduces, flat over the chain in
    forward order: layer ``i`` covers ``widths[i]`` channels. The observed
    feature distribution of a batch is the base distribution displaced by
    the model's remaining gap to the environment."""

    means: np.ndarray
    variances: np.ndarray
    widths: tuple[int, ...]
    adaptation_gain: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.adaptation_gain <= 1.0):
            raise InputError("adaptation_gain must lie in (0, 1]")
        means = np.ascontiguousarray(self.means, dtype=float)
        variances = np.ascontiguousarray(self.variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise InputError("model means and variances must be 1-D and equal length")
        object.__setattr__(self, "widths", _check_widths(self.widths, means.size))
        if (variances <= 0).any():
            raise InputError("model variances must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @classmethod
    def from_environment(cls, env: EnvironmentSpec, adaptation_gain: float = 1.0):
        """A model fully adapted to the unshifted base environment."""
        means, variances = env._epochs[0]
        return cls(means, variances, env.channels, adaptation_gain)


def observed_params(
    env: EnvironmentSpec,
    model: ModelResponseState,
    batch_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel (mean, variance) a batch actually exhibits, flat over the
    chain: the base distribution shifted by how far the model lags the
    environment."""
    env_means, env_vars = env.params_at(batch_index)
    base_means, base_vars = env._epochs[0]
    # extreme parameters overflow to inf or nan, which generate_batch and
    # observed_embeddings reject
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            base_means + (env_means - model.means),
            base_vars * env_vars / model.variances,
        )


def observed_embeddings(
    env: EnvironmentSpec, model: ModelResponseState, batch_index: int
) -> Embedding:
    """Noise-free chain embedding of the observed distributions."""
    means, varis = observed_params(env, model, batch_index)
    # the variances are products and quotients of positive ones
    if not (np.isfinite(means).all() and np.isfinite(varis).all()):
        raise InputError("embedding must be finite")
    return _derived(Embedding, means=means, variances=varis, widths=env.channels)


def generate_batch(
    env: EnvironmentSpec,
    model: ModelResponseState,
    batch_index: int,
    rng: np.random.Generator,
    exact: bool = False,
) -> Embedding:
    """Sample one batch's channel statistics over the chain, as the
    embedding that ``assess`` scores.

    Each channel of a layer sees ``n = batch_size * positions`` Gaussian
    samples, but only their mean and population variance are reported, so
    those two are drawn from their exact joint sampling distribution and no
    per-sample draws are made: the mean is ``N(mu, var / n)`` and, independent
    of it (Cochran's theorem), the variance is ``var * chi2(n - 1) / n``,
    exactly 0 when ``n == 1``. A batch makes two draws over the whole chain:
    one standard normal per channel, in forward order, then one chi-square
    per channel with ``n > 1``, in forward order (none when no channel has
    ``n > 1``).

    ``exact`` skips sampling and reports the underlying distribution
    parameters directly (the infinite-batch limit).
    """
    if batch_index < 0:
        raise InputError("batch_index must be non-negative")
    mu, var = observed_params(env, model, batch_index)
    if not exact:
        normals = rng.standard_normal(mu.size)
        chi2 = np.zeros(mu.size)
        if env._chi2_df.size:
            chi2[env._chi2_index] = rng.chisquare(env._chi2_df)
        n = env._channel_samples
        # an overflow to inf or nan is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            mu = mu + np.sqrt(var / n) * normals
            var = var * chi2 / n
    # the variances are non-negative: products and quotients of the
    # environment's and the model's positive variances and of chi-square
    # draws; the widths are the environment's
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise InputError("stats must be finite")
    return _derived(Embedding, means=mu, variances=var, widths=env.channels)


@dataclass(frozen=True)
class ExecutionResult:
    """Per-layer executed latencies (backward-indexed, slot 0 unused) and
    the phase totals, as ``_execution_result`` builds them."""

    f_exec: np.ndarray
    dw_exec: np.ndarray
    dx_exec: np.ndarray
    re_exec: np.ndarray
    start_ms: float
    finish_ms: float
    t_f_total: float
    t_b_total: float
    t_re_total: float
    t_total: float


def execute_ground_truth(
    table: LatencyTable,
    trace: StateTrace,
    strategy: UpdateStrategy,
    jitter_eps: float = 0.0,
    rng: np.random.Generator | None = None,
    t_start_ms: float = 0.0,
) -> ExecutionResult:
    """Run the three phases against the live state trace.

    Uses the same latency physics as the predictor (the table's blend of the
    factors in force), but takes the state at each layer's own execution
    instant and applies multiplicative jitter Uniform(1-eps, 1+eps), so
    prediction error is exactly zero only for a static state with eps=0.
    The state, and with it the table's factors, is read again only when the
    clock reaches the trace's next record time or passes its horizon, where
    ``state_at`` raises. Once a read finds no record ahead, the state holds
    for the rest of the call, and the remaining runs are one array product
    of their layers' scales under it (``LatencyTable.scales``), their
    offline latencies and their jitter, with the clock summed in run order.
    Latencies and the clock overflow to inf silently, as Python floats do.

    Layers run in this order: forward from backward index n down to 1; then,
    for each backward index b up to the deepest selected layer d, the
    activation gradient (if b < d) and the weight gradient (if b is
    selected); then the reforward from b = d down to 1. The input activation
    of the deepest updated layer is retained, so every layer before it is
    skipped and an empty strategy (d = 0) skips the whole pass; that is the
    span the closed form prices as ``cum_re[d]``. With an ``rng``, one
    jitter value per run is drawn up front, in that order.
    """
    if not (0.0 <= jitter_eps < 1.0):
        raise InputError("jitter_eps must lie in [0, 1)")
    if jitter_eps > 0 and rng is None:
        raise InputError("jitter requires an rng")
    n = table.n_layers
    steps, slots, layers, t_off = table._plan(strategy)
    if rng is not None:
        draws = rng.uniform(1.0 - jitter_eps, 1.0 + jitter_eps, len(steps))
    horizon = trace.horizon_ms
    now = t_start_ms
    state = trace.state_at(now)
    next_record = trace.next_record_ms(now)
    first = 0  # the first run left to the array product
    if next_record < math.inf:
        # the four phases' per-layer latencies back to back, as the steps'
        # slots index them
        out = [0.0] * (4 * (n + 1))
        jitters = [1.0] * len(steps) if rng is None else draws.tolist()
        p1, p2 = table.factors(state)
        for first, ((slot, t_run, w), jit) in enumerate(zip(steps, jitters)):
            if not (now < next_record and now <= horizon):
                state = trace.state_at(now)
                next_record = trace.next_record_ms(now)
                if next_record == math.inf:
                    break
                p1, p2 = table.factors(state)
            lat = (p1 if w is None else p2 + (p1 - p2) * w) * t_run * jit
            out[slot] = lat
            now += lat
        else:
            with np.errstate(over="ignore"):
                return _execution_result(np.array(out), n, t_start_ms, now)
        out = np.array(out)
    else:
        out = np.zeros(4 * (n + 1))
    with np.errstate(over="ignore"):
        latencies = table.scales(state)[layers[first:]] * t_off[first:]
        if rng is not None:
            latencies = latencies * draws[first:]
        # each run's start time, then the finish; accumulate adds in order
        clock = np.concatenate(([now], latencies)).cumsum()
        if clock[-2] > horizon:
            # the first run starting past the horizon: state_at raises there
            trace.state_at(float(clock[np.argmax(clock > horizon)]))
        out[slots[first:]] = latencies
        return _execution_result(out, n, t_start_ms, float(clock[-1]))


def _execution_result(
    out: np.ndarray, n: int, start_ms: float, finish_ms: float
) -> ExecutionResult:
    """The result of a call whose four phase arrays lie back to back in
    ``out``, the one builder of ``ExecutionResult``: each total is the
    pairwise reduction of its phases (``ndarray.sum``), taken as the row
    sums of the (4, n + 1) block, which overflow to inf under the caller's
    ``np.errstate``."""
    block = out.reshape(4, n + 1)
    f_exec, dw_exec, dx_exec, re_exec = block
    t_f_total, dw_total, dx_total, t_re_total = block.sum(axis=1).tolist()
    t_b_total = dw_total + dx_total
    return _derived(
        ExecutionResult,
        f_exec=f_exec,
        dw_exec=dw_exec,
        dx_exec=dx_exec,
        re_exec=re_exec,
        start_ms=start_ms,
        finish_ms=finish_ms,
        t_f_total=t_f_total,
        t_b_total=t_b_total,
        t_re_total=t_re_total,
        t_total=t_f_total + t_b_total + t_re_total,
    )


def apply_update(
    model: ModelResponseState,
    strategy: UpdateStrategy,
    env_means,
    env_vars,
) -> ModelResponseState:
    """Move each selected layer's response a fraction ``adaptation_gain``
    toward the current environment distribution, given flat over the chain
    as ``params_at`` gives it: one blend ``m + g * (e - m)`` over the chain,
    kept only on the selected layers' channels."""
    if strategy.is_empty:
        return model
    g = model.adaptation_gain
    selected = np.zeros(len(model.widths) + 1, dtype=bool)
    selected[list(strategy.selected)] = True
    hit = selected[_channel_backward(model.widths)]
    m, v = model.means, model.variances
    # a mean gap too wide for a float overflows to inf: discarded on the
    # unselected channels, and rejected downstream as non-finite statistics
    # on the selected ones
    with np.errstate(over="ignore"):
        means = np.where(hit, m + g * (env_means - m), m)
        varis = np.where(hit, v + g * (env_vars - v), v)
    # the blend of two positive variances can round to 0.0
    if not varis.min() > 0.0:
        raise InputError("model variances must be positive")
    return _derived(
        ModelResponseState,
        means=means,
        variances=varis,
        widths=model.widths,
        adaptation_gain=g,
    )


@lru_cache(maxsize=64)
def _channel_backward(widths: tuple[int, ...]) -> np.ndarray:
    """Backward index of the layer each channel of a flat chain belongs to."""
    n = len(widths)
    out = np.repeat(np.arange(n, 0, -1), widths)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ControllerConfig:
    enabled: bool = False
    target_r: float = 1.5
    sigma_min: float = 0.1
    sigma_max: float = 1.0
    window: int = 5
    decrease: float = 0.9
    increase: float = 1.1

    def __post_init__(self):
        if not (0.0 < self.sigma_min <= self.sigma_max <= 1.0):
            raise InputError("need 0 < sigma_min <= sigma_max <= 1")
        if not (isinstance(self.window, int) and self.window >= 1):
            raise InputError(
                f"controller window must be an integer >= 1, got {self.window!r}"
            )
        if not math.isfinite(self.target_r):
            raise InputError(f"controller target_r must be finite, got {self.target_r}")
        if not (0.0 < self.decrease < 1.0 < self.increase):
            raise InputError("need decrease < 1 < increase")


def sigma_controller(
    r_history,
    sigma: float,
    config: ControllerConfig = ControllerConfig(enabled=True),
) -> float:
    """Multiplicative turnaround controller: shrink the acceleration factor
    while the recent mean turnaround exceeds the target, grow it while
    below, and leave it alone on the deadband."""
    recent = list(r_history)[-config.window:]
    if not recent:
        return sigma
    mean_r = _ordered_sum(recent) / len(recent)
    if mean_r > config.target_r:
        sigma = sigma * config.decrease
    elif mean_r < config.target_r:
        sigma = sigma * config.increase
    return min(max(sigma, config.sigma_min), config.sigma_max)


# An episode keeps one record per batch (~1.9 KB; a record built on the
# trusted path holds its fields in a dict of its own). Formatting both
# reports in one pass peaks ~3.1 KB per batch above that: each record's JSON
# and CSV texts and the two joined texts, ~1.06 and ~0.40 KB per batch each
# (tracemalloc, 2,000-batch drift episode). At the bound, records and
# reports peak near 250 MB; the full-update replay's blocks add ~2 MB on a
# 24-layer chain.
MAX_BATCHES = 50_000


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str  # "sequential" | "parallel"
    seed: int
    batches: int
    environment: EnvironmentSpec
    network: Network
    offline: OfflineProfile
    device: DeviceSpec
    trace: StateTrace
    sigma: float = 0.33
    alpha: float = 0.1
    adaptation_gain: float = 1.0
    jitter_eps: float = 0.0
    inter_batch_ms: float | None = None
    exact_stats: bool = False
    controller: ControllerConfig = ControllerConfig()

    def __post_init__(self):
        if self.mode not in ("sequential", "parallel"):
            raise InputError(f"unknown mode {self.mode!r}")
        if not 1 <= self.batches <= MAX_BATCHES:
            raise InputError(
                f"batches must lie in 1..{MAX_BATCHES}, got {self.batches}"
            )
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if self.inter_batch_ms is not None and not 0.0 <= self.inter_batch_ms < math.inf:
            raise InputError(
                f"inter_batch_ms must be finite and non-negative, got {self.inter_batch_ms}"
            )
        if self.environment.n_layers != self.network.n_layers:
            raise InputError(
                f"environment covers {self.environment.n_layers} layers, "
                f"network has {self.network.n_layers}"
            )
        for env_c, layer in zip(self.environment.channels, self.network.layers):
            if env_c != layer.channels:
                raise InputError(
                    f"layer {layer.id}: environment channels {env_c} disagree "
                    f"with network channels {layer.channels}"
                )


@dataclass(frozen=True)
class BatchRecord:
    index: int
    arrival_ms: float
    start_ms: float
    wait_ms: float
    sigma: float
    budget_ms: float
    budget_clipped: bool
    selected: tuple[int, ...]
    deepest: int
    importance_total: float
    importance_captured: float
    capture_ratio: float
    assess_flops: float
    predicted_f_ms: float
    predicted_b_ms: float
    predicted_re_ms: float
    predicted_total_ms: float
    executed_f_ms: float
    executed_b_ms: float
    executed_re_ms: float
    executed_total_ms: float
    rel_error: float
    loss_before: float
    loss_after: float
    r: float
    staleness: int
    finish_ms: float


@dataclass(frozen=True)
class EpisodeAggregates:
    batches: int
    mean_executed_total_ms: float
    replay_mean_total_ms: float
    latency_ratio_vs_full: float
    speedup_vs_full: float
    mean_capture_ratio: float
    mean_rel_error: float
    mean_r: float
    total_wait_ms: float
    final_sigma: float


@dataclass(frozen=True)
class EpisodeReport:
    scenario: str
    mode: str
    seed: int
    records: tuple[BatchRecord, ...]
    aggregates: EpisodeAggregates


def _check_finish(finish_ms: float, batch: str) -> None:
    """Reject an executed batch whose clock overflowed: every later start,
    wait and total of the episode would be inf or NaN. A finite finish
    bounds the batch's totals, since every run takes a non-negative time."""
    if not finish_ms < math.inf:
        raise InputError(
            f"{batch}: the executed pipeline finishes at {finish_ms} ms, "
            "past the float range"
        )


# batches per block of the full-update replay: its arrays peak near 2 MB on
# a 24-layer chain, 87 runs per batch (tracemalloc)
_REPLAY_ROWS = 512


def _replay_full_updates(
    scenario: Scenario, rng: np.random.Generator, table: LatencyTable, inter: float
) -> float:
    """Mean per-batch executed latency when every selectable layer is
    updated every batch, on the same arrival process: one batch every
    ``inter`` ms, each starting at ``max(arrival, previous finish)``.

    A batch whose start has a trace record ahead runs through
    ``execute_ground_truth``. From the first batch with none ahead, the
    state holds for the rest of the replay, and the remaining B batches of
    R runs each are one block with the executor's arithmetic, bit for bit:
    one (B, R) jitter draw (the stream of B draws of R), the runs'
    latencies as one product of the layers' scales, offline latencies and
    jitter, the phase totals as the row sums of a (B, 4, n + 1) block, and
    each batch's clock summed in run order from its own start. Each batch
    keeps the executor's horizon check, which raises ``TraceExhausted`` at
    the first run starting past the horizon, and ``_check_finish``. Blocks
    hold at most ``_REPLAY_ROWS`` batches, drawn one after another from the
    same stream.
    """
    network = scenario.network
    n = network.n_layers
    full = UpdateStrategy(n, network.selectable_backward())
    trace = scenario.trace
    eps = scenario.jitter_eps
    batches = scenario.batches
    prev_finish = 0.0
    total = 0.0
    for first in range(batches):
        start = max(first * inter, prev_finish)
        if trace.next_record_ms(start) == math.inf:
            break
        execd = execute_ground_truth(
            table, trace, full, jitter_eps=eps, rng=rng, t_start_ms=start
        )
        _check_finish(execd.finish_ms, f"full-update replay batch {first}")
        total += execd.t_total
        prev_finish = execd.finish_ms
    else:
        return total / batches
    state = trace.state_at(start)  # past the horizon, raises as the executor
    _, slots, layers, t_off = table._plan(full)
    runs = len(slots)
    horizon = trace.horizon_ms
    with np.errstate(over="ignore"):
        scaled = table.scales(state)[layers] * t_off
        for lo in range(first, batches, _REPLAY_ROWS):
            rows = min(batches - lo, _REPLAY_ROWS)
            latencies = scaled * rng.uniform(1.0 - eps, 1.0 + eps, (rows, runs))
            out = np.zeros((rows, 4 * (n + 1)))
            out[:, slots] = latencies
            phase_totals = out.reshape(rows, 4, n + 1).sum(axis=2).tolist()
            # per batch, its start and then its runs' latencies, accumulated
            # in place into each run's start time and then the finish
            clocks = np.empty((rows, runs + 1))
            clocks[:, 1:] = latencies
            for i, clock, (t_f, t_dw, t_dx, t_re) in zip(
                range(lo, lo + rows), clocks, phase_totals
            ):
                clock[0] = max(i * inter, prev_finish)
                clock.cumsum(out=clock)
                if clock[-2] > horizon:
                    trace.state_at(float(clock[np.argmax(clock > horizon)]))
                prev_finish = float(clock[-1])
                _check_finish(prev_finish, f"full-update replay batch {i}")
                total += t_f + (t_dw + t_dx) + t_re
    return total / batches


def run_episode(scenario: Scenario) -> EpisodeReport:
    """Simulate one episode and its full-update replay baseline."""
    network = scenario.network
    seq = np.random.SeedSequence(scenario.seed)
    rng_env, rng_exec, rng_replay = (np.random.default_rng(s) for s in seq.spawn(3))

    env = scenario.environment
    table = _table_for(network, scenario.offline, scenario.device)
    model = ModelResponseState.from_environment(env, scenario.adaptation_gain)
    history: EmbeddingHistory | None = None
    sigma = scenario.sigma
    inter = scenario.inter_batch_ms
    if inter is None:
        inter = float(np.sum(scenario.offline.t_f))
    sequential = scenario.mode == "sequential"

    prev_finish = 0.0
    # the controller's window of turnarounds; no window outlasts the episode
    r_recent: deque[float] = deque(
        maxlen=min(scenario.controller.window, scenario.batches)
    )
    # (batch index, adaptation finish) of the adaptations still running at
    # the latest arrival; finish times never decrease, so those finished by
    # an arrival leave from the front
    running: deque[tuple[int, float]] = deque()
    latest = -1  # the last batch whose adaptation has finished
    records: list[BatchRecord] = []
    # the assessment's op count depends on the chain's shape alone
    assess_flops = assessment_flops(env.channels, env.sample_counts)

    for i in range(scenario.batches):
        arrival = i * inter
        start = max(arrival, prev_finish)
        wait = start - arrival if sequential else 0.0
        staleness = 0
        if not sequential:
            while running and running[0][1] <= arrival:
                latest = running.popleft()[0]
            staleness = i - 1 - latest

        embeddings = generate_batch(env, model, i, rng_env, exact=scenario.exact_stats)
        if history is None:
            # batch 0 scores against its own seed: every divergence is 0
            history = EmbeddingHistory.seed(embeddings, alpha=scenario.alpha)
        vector, loss_before = assess(network, history, embeddings)

        state = scenario.trace.state_at(start)
        profile = build_profile(network, scenario.offline, scenario.device, state)
        sched = solve_dp(vector, profile, SchedulerConfig(sigma=sigma))
        execd = execute_ground_truth(
            table,
            scenario.trace,
            sched.strategy,
            jitter_eps=scenario.jitter_eps,
            rng=rng_exec,
            t_start_ms=start,
        )
        _check_finish(execd.finish_ms, f"batch {i}")

        env_means, env_vars = env.params_at(i)
        model = apply_update(model, sched.strategy, env_means, env_vars)
        loss_after = adaptation_loss(
            history.embeddings, observed_embeddings(env, model, i)
        )
        history = update_history(history, embeddings)

        predicted_total = profile.t_f_total + sched.predicted_extra.t_total_extra
        executed_total = execd.t_total
        rel_error = (
            abs(executed_total - predicted_total) / predicted_total
            if predicted_total > 0
            else 0.0
        )
        t_adapt = execd.t_f_total + execd.t_b_total
        denom = t_adapt + execd.t_re_total
        r = (wait + denom) / denom if denom > 0 else 1.0
        capture = (
            sched.achieved_importance / vector.total if vector.total > 0 else 1.0
        )

        prev_finish = execd.finish_ms
        if not sequential:
            running.append((i, execd.finish_ms))
        records.append(
            _derived(
                BatchRecord,
                index=i,
                arrival_ms=arrival,
                start_ms=start,
                wait_ms=wait,
                sigma=sigma,
                budget_ms=sched.budget_ms,
                budget_clipped=sched.budget_clipped,
                selected=sched.strategy.selected,
                deepest=sched.strategy.deepest,
                importance_total=vector.total,
                importance_captured=sched.achieved_importance,
                capture_ratio=capture,
                assess_flops=assess_flops,
                predicted_f_ms=profile.t_f_total,
                predicted_b_ms=sched.predicted_extra.t_backward,
                predicted_re_ms=sched.predicted_extra.t_reforward,
                predicted_total_ms=predicted_total,
                executed_f_ms=execd.t_f_total,
                executed_b_ms=execd.t_b_total,
                executed_re_ms=execd.t_re_total,
                executed_total_ms=executed_total,
                rel_error=rel_error,
                loss_before=loss_before,
                loss_after=loss_after,
                r=r,
                staleness=staleness,
                finish_ms=execd.finish_ms,
            )
        )

        r_recent.append(r)
        if scenario.controller.enabled:
            sigma = sigma_controller(r_recent, sigma, scenario.controller)

    replay_mean = _replay_full_updates(scenario, rng_replay, table, inter)
    mean_total = _ordered_sum(rec.executed_total_ms for rec in records) / len(records)
    aggregates = EpisodeAggregates(
        batches=len(records),
        mean_executed_total_ms=mean_total,
        replay_mean_total_ms=replay_mean,
        latency_ratio_vs_full=mean_total / replay_mean if replay_mean > 0 else 1.0,
        speedup_vs_full=replay_mean / mean_total if mean_total > 0 else 1.0,
        mean_capture_ratio=_ordered_sum(r.capture_ratio for r in records) / len(records),
        mean_rel_error=_ordered_sum(r.rel_error for r in records) / len(records),
        mean_r=_ordered_sum(r.r for r in records) / len(records),
        total_wait_ms=_ordered_sum(r.wait_ms for r in records),
        final_sigma=sigma,
    )
    return EpisodeReport(
        scenario=scenario.name,
        mode=scenario.mode,
        seed=scenario.seed,
        records=tuple(records),
        aggregates=aggregates,
    )


# --- report serialization ---------------------------------------------------


# ``report_texts`` writes the text ``json_text`` writes for the report as a
# document (indent 2, sorted keys) and the text ``csv.writer`` writes for the
# records' rows, formatting each number once for both. A NaN or an infinity,
# which the CSV writes and JSON cannot, is an InputError naming the batch and
# the field; a value of no JSON number type is ``json``'s TypeError, and so
# is a flag that is not a bool or a selection that is not a tuple.


def _object_format(cls, depth: int) -> tuple[tuple[str, ...], str]:
    """The sorted field names of dataclass ``cls``, and a format with one
    ``%s`` per field, in that order, that writes an instance as ``json``
    writes the object at nesting ``depth``."""
    names = tuple(sorted(cls.__dataclass_fields__))
    pad = "  " * (depth + 1)
    body = ",\n".join(f"{pad}{json.dumps(name)}: %s" for name in names)
    return names, f"{{\n{body}\n{'  ' * depth}}}"


_AGGREGATE_FIELDS, _AGGREGATE_FORMAT = _object_format(EpisodeAggregates, 1)
_aggregate_numbers = operator.itemgetter(*_AGGREGATE_FIELDS)
# the report's numbers outside its records, as ``report_texts`` reads them
_REPORT_NUMBERS = tuple(f"aggregates.{name}" for name in _AGGREGATE_FIELDS) + ("seed",)
_RECORD_FIELDS, _RECORD_FORMAT = _object_format(BatchRecord, 2)
_RECORD_COLUMNS = tuple(BatchRecord.__dataclass_fields__)
_CSV_HEADER = ",".join(_RECORD_COLUMNS) + "\n"
# ``_record_texts`` reads the numbers, then the two fields that the JSON and
# the CSV write differently, and puts them in each writer's field order
_NUMBER_COLUMNS = tuple(
    name for name in _RECORD_COLUMNS if name not in ("budget_clipped", "selected")
)
_numbers = operator.itemgetter(*_NUMBER_COLUMNS)
_READ_ORDER = _NUMBER_COLUMNS + ("budget_clipped", "selected")
_csv_order = operator.itemgetter(*map(_READ_ORDER.index, _RECORD_COLUMNS))
_json_order = operator.itemgetter(*map(_READ_ORDER.index, _RECORD_FIELDS))
_REPR = {float: float.__repr__, int: int.__repr__}
_ITEM_PAD = "  " * 4  # an item of a list at nesting 2
_ITEM_SEP = ",\n" + _ITEM_PAD


def _not_serializable(value) -> TypeError:
    return TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_number(value) -> str:
    """``json``'s rule for a value whose exact type the ``repr`` table
    lacks: a float or int subclass (numpy's float64, say) takes its base's
    ``repr``, and anything else is a TypeError."""
    for kind, text in _REPR.items():
        if isinstance(value, kind):
            return text(value)
    raise _not_serializable(value)


def _texts(values) -> list[str]:
    """Each number's text, looked up in the ``repr`` table by exact type,
    and by ``_json_number`` only when a lookup misses."""
    try:
        return [_REPR[type(value)](value) for value in values]
    except KeyError:
        return [_json_number(value) for value in values]


def _check_finite(where: str, names, texts) -> None:
    """Reject a NaN or an infinity, which have no JSON form. A finite
    float's or an int's text has no letter ``n``, while ``nan``, ``inf`` and
    ``-inf`` do."""
    for name, text in zip(names, texts):
        if "n" in text:
            raise InputError(
                f"{where}: {name} is {text}; "
                "Out of range float values are not JSON compliant"
            )


def _record_texts(rec: BatchRecord) -> tuple[list[str], str]:
    """The record's texts in ``_READ_ORDER``, as the CSV writes them, and its
    CSV line."""
    fields = rec.__dict__
    clipped, selected = fields["budget_clipped"], fields["selected"]
    if type(clipped) is not bool:
        raise _not_serializable(clipped)
    if type(selected) is not tuple:
        raise _not_serializable(selected)
    cells = _texts(_numbers(fields))
    cells += ["1" if clipped else "0", "|".join(_texts(selected))]
    return cells, ",".join(_csv_order(cells)) + "\n"


def report_texts(report: EpisodeReport) -> tuple[str, str]:
    """``(report_json(report), report_csv(report))``, from one formatting
    pass over the report's numbers. A NaN or an infinity in the report is an
    InputError, which the CLI reports with exit code 2."""
    records, lines = [], []
    for rec in report.records:
        cells, line = _record_texts(rec)
        if "n" in line:
            _check_finite(f"batch {rec.index}", _READ_ORDER, cells)
        lines.append(line)
        items = cells[-1]
        cells[-2] = "true" if cells[-2] == "1" else "false"
        cells[-1] = f"[\n{_ITEM_PAD}{items.replace('|', _ITEM_SEP)}\n      ]" if items else "[]"
        records.append(_RECORD_FORMAT % _json_order(cells))
    numbers = _texts(_aggregate_numbers(report.aggregates.__dict__) + (report.seed,))
    _check_finite("report", _REPORT_NUMBERS, numbers)
    batches = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    text = (
        f'{{\n  "aggregates": {_AGGREGATE_FORMAT % tuple(numbers[:-1])},\n'
        f'  "batches": {batches},\n'
        f'  "mode": {json.dumps(report.mode)},\n'
        f'  "scenario": {json.dumps(report.scenario)},\n'
        f'  "seed": {numbers[-1]}\n}}\n'
    )
    return text, _CSV_HEADER + "".join(lines)


def report_json(report: EpisodeReport) -> str:
    """The report as JSON text, indented by 2 with sorted keys and ending
    in a newline."""
    return report_texts(report)[0]


def report_csv(report: EpisodeReport) -> str:
    """The records as CSV text: a header of the field names, then one line
    per record. NaN and infinities are written as ``nan``, ``inf`` and
    ``-inf``, as ``csv.writer`` writes them."""
    return _CSV_HEADER + "".join([_record_texts(rec)[1] for rec in report.records])


# --- scenario files ----------------------------------------------------------

_SCENARIO_FIELDS = frozenset(
    {
        "name", "mode", "seed", "batches", "batch_size", "inter_batch_ms",
        "network", "offline_profile", "device", "state_trace", "scheduler",
        "alpha", "adaptation_gain", "jitter", "exact_stats",
        "controller", "environment",
    }
)
_ENV_FIELDS = frozenset({"base_mean", "base_var", "positions", "shifts"})
_SHIFT_FIELDS = frozenset({"batch", "layers", "mean_offset_sigmas", "var_scale"})


def environment_from_config(network: Network, cfg: dict, batch_size: int) -> EnvironmentSpec:
    reject_unknown(cfg, _ENV_FIELDS, "environment")
    n = network.n_layers
    positions = cfg.get("positions", 1)
    if isinstance(positions, (int, float)):
        positions = [positions] * n
    positions = convert(list[int], positions, "environment.positions")
    if len(positions) != n:
        raise InputError(f"environment.positions must cover {n} layers")
    shifts = []
    raw_shifts = convert(list[dict], cfg.get("shifts", []), "environment.shifts")
    for k, raw in enumerate(raw_shifts):
        name = f"environment.shifts[{k}]"
        reject_unknown(raw, _SHIFT_FIELDS, name)
        shifts.append(
            Shift(
                batch_index=convert(int, raw.get("batch"), f"{name}.batch"),
                layers=tuple(convert(list[int], raw.get("layers"), f"{name}.layers")),
                mean_offset_sigmas=convert(
                    float, raw.get("mean_offset_sigmas"), f"{name}.mean_offset_sigmas"
                ),
                var_scale=convert(float, raw.get("var_scale", 1.0), f"{name}.var_scale"),
            )
        )
    return gaussian_environment(
        network,
        positions,
        shifts,
        batch_size,
        mean=convert(float, cfg.get("base_mean", 0.0), "environment.base_mean"),
        var=convert(float, cfg.get("base_var", 1.0), "environment.base_var"),
    )


def load_scenario_file(path) -> Scenario:
    path = Path(path)
    cfg = convert(dict, read_json(path), f"{path}: scenario")
    reject_unknown(cfg, _SCENARIO_FIELDS, str(path))

    def read(kind, key, default=None):
        return convert(kind, cfg.get(key, default), f"{path}: {key}")

    def config(cls, key):
        # a ``cls`` dataclass from the object ``key``, each of whose fields
        # converts to the type of the field's default
        obj = read(dict, key, {})
        reject_unknown(obj, cls.__dataclass_fields__, f"{path}: {key}")
        return cls(**{
            k: convert(type(getattr(cls, k)), v, f"{path}: {key}.{k}")
            for k, v in obj.items()
        })

    base = path.parent
    network = load_network_file(base / read(str, "network"))
    offline = load_offline_profile_file(
        base / read(str, "offline_profile"), network.n_layers
    )
    device = load_device_file(base / read(str, "device"))
    trace = load_trace_file(base / read(str, "state_trace"))
    environment = environment_from_config(
        network, read(dict, "environment"), read(int, "batch_size", 1)
    )
    return Scenario(
        name=read(str, "name", path.stem),
        mode=read(str, "mode"),
        seed=read(int, "seed", 0),
        batches=read(int, "batches"),
        environment=environment,
        network=network,
        offline=offline,
        device=device,
        trace=trace,
        sigma=config(SchedulerConfig, "scheduler").sigma,
        alpha=read(float, "alpha", 0.1),
        adaptation_gain=read(float, "adaptation_gain", 1.0),
        jitter_eps=read(float, "jitter", 0.0),
        inter_batch_ms=(
            None if cfg.get("inter_batch_ms") is None else read(float, "inter_batch_ms")
        ),
        exact_stats=read(bool, "exact_stats", False),
        controller=config(ControllerConfig, "controller"),
    )
