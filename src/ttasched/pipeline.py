"""Discrete simulation of the adapt-while-serving pipeline.

An episode replays a drifting synthetic environment through the full loop:
per batch, channel statistics are sampled, layer importance is assessed
against the tracked history, a runtime latency profile is built from the
system-state trace, the scheduler picks the update strategy, and a
ground-truth executor (same latency physics, plus jitter and instantaneous
state sampling) runs the three phases. A full-update replay of the same
episode provides the speedup baseline.

The model itself is a response-distribution proxy: updating a layer closes
a fraction of its gap to the current environment distribution. Real weights
and gradients are out of scope; importance capture and the adaptation loss
stand in for accuracy.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, convert, json_text, read_json
from .importance import (
    KL_MODES,
    Embedding,
    EmbeddingHistory,
    FeatureStats,
    ImportanceVector,
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
        if not math.isfinite(self.mean_offset_sigmas):
            raise InputError("shift mean_offset_sigmas must be finite")
        if not 0.0 < self.var_scale < math.inf:
            raise InputError("var_scale must be finite and positive")


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
        means = []
        varis = []
        for i in range(n):
            if self.channels[i] < 1 or self.positions[i] < 1:
                raise InputError(f"layer {i}: channels and positions must be >= 1")
            m = np.asarray(self.base_means[i], dtype=float)
            v = np.asarray(self.base_vars[i], dtype=float)
            if m.shape != (self.channels[i],) or v.shape != (self.channels[i],):
                raise InputError(f"layer {i}: base params must match channel count")
            if np.any(v <= 0):
                raise InputError(f"layer {i}: base variances must be positive")
            means.append(m)
            varis.append(v)
        mean = _frozen(np.concatenate(means))
        var = _frozen(np.concatenate(varis))
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise InputError("environment base means and variances must be finite")
        bounds = _offsets(tuple(self.channels))
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
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(
            self, "_channel_samples", _frozen(np.repeat(np.array(counts, dtype=float), self.channels))
        )
        object.__setattr__(self, "_spans", spans)

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

    def full(layer, value):
        try:
            return np.full(layer.channels, value)
        except (ValueError, MemoryError):  # numpy's "array is too big"
            raise InputError(
                f"layer {layer.id}: {layer.channels} channels do not fit in memory"
            ) from None

    return EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=tuple(positions),
        base_means=tuple(full(l, mean) for l in network.layers),
        base_vars=tuple(full(l, var) for l in network.layers),
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
    # extreme parameters overflow to inf or nan, which FeatureStats and
    # Embedding reject
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
    values = np.empty(2 * means.size)
    values[0::2] = means
    values[1::2] = varis
    return Embedding(values, env.channels)


def generate_batch(
    env: EnvironmentSpec,
    model: ModelResponseState,
    batch_index: int,
    rng: np.random.Generator,
    exact: bool = False,
) -> FeatureStats:
    """Sample one batch's channel statistics over the chain.

    Each channel of a layer sees ``n = batch_size * positions`` Gaussian
    samples, but only their mean and population variance are reported, so
    those two are drawn from their exact joint sampling distribution and no
    per-sample draws are made: the mean is ``N(mu, var / n)`` and, independent
    of it (Cochran's theorem), the variance is ``var * chi2(n - 1) / n``,
    exactly 0 when ``n == 1``. Layers are drawn in forward order; per layer,
    one standard normal per channel, then (if ``n > 1``) one chi-square per
    channel.

    ``exact`` skips sampling and reports the underlying distribution
    parameters directly (the infinite-batch limit).
    """
    if batch_index < 0:
        raise InputError("batch_index must be non-negative")
    means, varis = observed_params(env, model, batch_index)
    if exact:
        return FeatureStats(means, varis, env.sample_counts, env.channels)
    normals = np.empty(means.size)
    chi2 = np.zeros(means.size)
    for (lo, hi), n_samples in zip(env._spans, env.sample_counts):
        normals[lo:hi] = rng.standard_normal(hi - lo)
        if n_samples > 1:
            chi2[lo:hi] = rng.chisquare(n_samples - 1, hi - lo)
    n = env._channel_samples
    mu = means + np.sqrt(varis / n) * normals
    var = varis * chi2 / n
    return FeatureStats(mu, var, env.sample_counts, env.channels)


@dataclass(frozen=True)
class ExecutionResult:
    """Per-layer executed latencies (backward-indexed, slot 0 unused); the
    phase totals are computed once, at construction."""

    f_exec: np.ndarray
    dw_exec: np.ndarray
    dx_exec: np.ndarray
    re_exec: np.ndarray
    start_ms: float
    finish_ms: float
    t_f_total: float = field(init=False)
    t_b_total: float = field(init=False)
    t_re_total: float = field(init=False)
    t_total: float = field(init=False)

    def __post_init__(self):
        # ndarray.sum is np.sum's pairwise reduction without its dispatch
        t_f_total = float(self.f_exec.sum())
        t_b_total = float(self.dw_exec.sum() + self.dx_exec.sum())
        t_re_total = float(self.re_exec.sum())
        object.__setattr__(self, "t_f_total", t_f_total)
        object.__setattr__(self, "t_b_total", t_b_total)
        object.__setattr__(self, "t_re_total", t_re_total)
        object.__setattr__(self, "t_total", t_f_total + t_b_total + t_re_total)


def execute_ground_truth(
    table: LatencyTable,
    trace: StateTrace,
    strategy: UpdateStrategy,
    jitter_eps: float = 0.0,
    rng: np.random.Generator | None = None,
    t_start_ms: float = 0.0,
) -> ExecutionResult:
    """Run the three phases against the live state trace.

    Uses the same latency physics as the predictor (the table's per-layer
    scale under the state in force), but takes the state at each layer's own
    execution instant and applies multiplicative jitter Uniform(1-eps, 1+eps),
    so prediction error is exactly zero only for a static state with eps=0.
    The state is read again only when the clock reaches the trace's next
    record time or passes its horizon, where ``state_at`` raises.

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
    strategy.validate_against(table.network)
    f_exec = [0.0] * (n + 1)
    dw_exec = [0.0] * (n + 1)
    dx_exec = [0.0] * (n + 1)
    re_exec = [0.0] * (n + 1)

    # (output list, backward index, offline latency), in execution order
    t_f, t_dw, t_dx, t_re = table.t_f, table.t_dw, table.t_dx, table.t_re
    steps = [(f_exec, b, t_f[b]) for b in range(n, 0, -1)]
    d = strategy.deepest
    selected = set(strategy.selected)
    for b in range(1, d + 1):
        if b < d:
            steps.append((dx_exec, b, t_dx[b]))
        if b in selected:
            steps.append((dw_exec, b, t_dw[b]))
    steps.extend((re_exec, b, t_re[b]) for b in range(d, 0, -1))

    if rng is None:
        jitters = [1.0] * len(steps)
    else:
        jitters = rng.uniform(1.0 - jitter_eps, 1.0 + jitter_eps, len(steps)).tolist()

    horizon = trace.horizon_ms
    now = t_start_ms
    next_record = -math.inf  # forces a read before the first run
    for (out, b, t_off), jit in zip(steps, jitters):
        if not (now < next_record and now <= horizon):
            scale = table.layer_scales(trace.state_at(now))
            next_record = trace.next_record_ms(now)
        lat = scale[b] * t_off * jit
        out[b] = lat
        now += lat

    return ExecutionResult(
        f_exec=np.array(f_exec),
        dw_exec=np.array(dw_exec),
        dx_exec=np.array(dx_exec),
        re_exec=np.array(re_exec),
        start_ms=t_start_ms,
        finish_ms=now,
    )


def apply_update(
    model: ModelResponseState,
    strategy: UpdateStrategy,
    env_means,
    env_vars,
) -> ModelResponseState:
    """Move each selected layer's response a fraction ``adaptation_gain``
    toward the current environment distribution, given flat over the chain
    as ``params_at`` gives it."""
    if strategy.is_empty:
        return model
    g = model.adaptation_gain
    n = len(model.widths)
    bounds = _offsets(model.widths)
    means = model.means.copy()
    varis = model.variances.copy()
    for b in strategy.selected:
        lo, hi = bounds[n - b], bounds[n - b + 1]
        means[lo:hi] = means[lo:hi] + g * (env_means[lo:hi] - means[lo:hi])
        varis[lo:hi] = varis[lo:hi] + g * (env_vars[lo:hi] - varis[lo:hi])
    return ModelResponseState(means, varis, model.widths, g)


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
    mean_r = sum(recent) / len(recent)
    if mean_r > config.target_r:
        sigma = sigma * config.decrease
    elif mean_r < config.target_r:
        sigma = sigma * config.increase
    return min(max(sigma, config.sigma_min), config.sigma_max)


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
    kl_mode: str = "gaussian"
    adaptation_gain: float = 1.0
    jitter_eps: float = 0.0
    inter_batch_ms: float | None = None
    exact_stats: bool = False
    controller: ControllerConfig = ControllerConfig()

    def __post_init__(self):
        if self.mode not in ("sequential", "parallel"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.kl_mode not in KL_MODES:
            raise InputError(f"unknown divergence mode {self.kl_mode!r}")
        if self.batches < 1:
            raise InputError("episode needs at least one batch")
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


def _replay_full_updates(
    scenario: Scenario, rng: np.random.Generator, table: LatencyTable, inter: float
) -> float:
    """Mean per-batch executed latency when every selectable layer is
    updated every batch, on the same arrival process: one batch every
    ``inter`` ms."""
    network = scenario.network
    full = UpdateStrategy(network.n_layers, network.selectable_backward())
    prev_finish = 0.0
    total = 0.0
    for i in range(scenario.batches):
        arrival = i * inter
        start = max(arrival, prev_finish)
        execd = execute_ground_truth(
            table,
            scenario.trace,
            full,
            jitter_eps=scenario.jitter_eps,
            rng=rng,
            t_start_ms=start,
        )
        total += execd.t_total
        prev_finish = execd.finish_ms
    return total / scenario.batches


def run_episode(scenario: Scenario) -> EpisodeReport:
    """Simulate one episode and its full-update replay baseline."""
    network = scenario.network
    n = network.n_layers
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
    r_history: list[float] = []
    adapt_log: list[tuple[int, float]] = []  # (batch index, adaptation finish)
    records: list[BatchRecord] = []

    for i in range(scenario.batches):
        arrival = i * inter
        start = max(arrival, prev_finish)
        wait = start - arrival if sequential else 0.0
        staleness = 0
        if not sequential:
            fresh = [idx for idx, finish in adapt_log if finish <= arrival]
            latest = fresh[-1] if fresh else -1
            staleness = i - 1 - latest

        stats = generate_batch(env, model, i, rng_env, exact=scenario.exact_stats)
        embeddings = Embedding.from_stats(stats)
        if history is None:
            history = EmbeddingHistory.seed(embeddings, alpha=scenario.alpha)
            vector = ImportanceVector(a=np.zeros(n + 1))
            flops = assessment_flops(stats)
        else:
            vector, flops = assess(network, history, stats, mode=scenario.kl_mode)
        loss_before = adaptation_loss(
            history.embeddings, embeddings, mode=scenario.kl_mode
        )

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

        env_means, env_vars = env.params_at(i)
        model = apply_update(model, sched.strategy, env_means, env_vars)
        loss_after = adaptation_loss(
            history.embeddings,
            observed_embeddings(env, model, i),
            mode=scenario.kl_mode,
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
        adapt_log.append((i, execd.finish_ms))
        records.append(
            BatchRecord(
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
                assess_flops=flops,
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

        r_history.append(r)
        if scenario.controller.enabled:
            sigma = sigma_controller(r_history, sigma, scenario.controller)

    replay_mean = _replay_full_updates(scenario, rng_replay, table, inter)
    mean_total = sum(rec.executed_total_ms for rec in records) / len(records)
    aggregates = EpisodeAggregates(
        batches=len(records),
        mean_executed_total_ms=mean_total,
        replay_mean_total_ms=replay_mean,
        latency_ratio_vs_full=mean_total / replay_mean if replay_mean > 0 else 1.0,
        speedup_vs_full=replay_mean / mean_total if mean_total > 0 else 1.0,
        mean_capture_ratio=sum(r.capture_ratio for r in records) / len(records),
        mean_rel_error=sum(r.rel_error for r in records) / len(records),
        mean_r=sum(r.r for r in records) / len(records),
        total_wait_ms=sum(r.wait_ms for r in records),
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


def _record_row(rec: BatchRecord) -> list:
    """The record's values in field order, as the CSV writes them."""
    row = []
    for name, value in rec.__dict__.items():
        if name == "selected":
            row.append("|".join(str(b) for b in value))
        elif isinstance(value, bool):
            row.append(int(value))
        else:
            row.append(value)
    return row


def report_to_document(report: EpisodeReport) -> dict:
    return {
        "scenario": report.scenario,
        "mode": report.mode,
        "seed": report.seed,
        "aggregates": dict(report.aggregates.__dict__),
        "batches": [
            {
                **{
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in rec.__dict__.items()
                }
            }
            for rec in report.records
        ],
    }


def report_json(report: EpisodeReport) -> str:
    return json_text(report_to_document(report))


def report_csv(report: EpisodeReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(BatchRecord.__dataclass_fields__))
    writer.writerows(_record_row(rec) for rec in report.records)
    return buf.getvalue()


# --- scenario files ----------------------------------------------------------

_SCENARIO_FIELDS = frozenset(
    {
        "name", "mode", "seed", "batches", "batch_size", "inter_batch_ms",
        "network", "offline_profile", "device", "state_trace", "scheduler",
        "alpha", "kl_mode", "adaptation_gain", "jitter", "exact_stats",
        "controller", "environment",
    }
)
_ENV_FIELDS = frozenset({"base_mean", "base_var", "positions", "shifts"})


def environment_from_config(network: Network, cfg: dict, batch_size: int) -> EnvironmentSpec:
    unknown = set(cfg) - _ENV_FIELDS
    if unknown:
        raise InputError(f"environment: unknown fields {sorted(unknown)}")
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
    unknown = set(cfg) - _SCENARIO_FIELDS
    if unknown:
        raise InputError(f"{path}: unknown fields {sorted(unknown)}")

    def read(kind, key, default=None):
        return convert(kind, cfg.get(key, default), f"{path}: {key}")

    def config(cls, key):
        # a ``cls`` dataclass from the object ``key``, each of whose fields
        # converts to the type of the field's default
        obj = read(dict, key, {})
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputError(f"{path}: {key}: unknown fields {sorted(unknown)}")
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
        kl_mode=read(str, "kl_mode", "gaussian"),
        adaptation_gain=read(float, "adaptation_gain", 1.0),
        jitter_eps=read(float, "jitter", 0.0),
        inter_batch_ms=(
            None if cfg.get("inter_batch_ms") is None else read(float, "inter_batch_ms")
        ),
        exact_stats=read(bool, "exact_stats", False),
        controller=config(ControllerConfig, "controller"),
    )
