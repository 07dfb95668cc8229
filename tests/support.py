"""Helpers that only the tests and the fixture generator call.

The calibration fit of the process-switch slope, the per-layer split of a
flat chain array, the JSON-lines writer of feature statistics, the
shift-recovery experiment behind acceptance criterion 6, the statistics of
one batch through the ResNet-50-shaped chain and a time-varying state
trace. The package itself never calls them.
"""

import json
import math

import numpy as np

from ttasched.errors import InputError, _ordered_sum
from ttasched.importance import Embedding, EmbeddingHistory, assess
from ttasched.latency import StateTrace
from ttasched.pipeline import ModelResponseState, Shift, gaussian_environment, generate_batch
from ttasched.presets import recovery_network, resnet50_shaped, resource_conditions


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
    num = _ordered_sum(n * (s - 1.0) for n, s in pairs)
    den = sum(n * n for n, _ in pairs)
    k = num / den
    if k < 0:
        raise InputError(
            f"calibration fit produced a negative slope ({k:.4g}); "
            "slowdowns must grow with process count"
        )
    return k


def split_layers(flat, widths) -> list:
    """The per-layer pieces of a flat chain array laid out by ``widths``:
    per-channel values, or a fixed number of values per channel, such as
    [mean, variance] pairs."""
    per_channel = flat.size // sum(widths)
    return np.split(flat, per_channel * np.cumsum(widths)[:-1])


def stats_to_lines(stats: Embedding, sample_counts) -> str:
    """``stats`` as the JSON-lines text that ``load_stats_lines`` reads;
    layer ``i`` saw ``sample_counts[i]`` samples per channel."""
    layers = zip(
        split_layers(stats.means, stats.widths),
        split_layers(stats.variances, stats.widths),
        sample_counts,
        strict=True,
    )
    return "".join(
        json.dumps(
            {
                "layer_id": layer_id,
                "means": [float(x) for x in means],
                "vars": [float(x) for x in variances],
                "samples": samples,
            },
            allow_nan=False,
        )
        + "\n"
        for layer_id, (means, variances, samples) in enumerate(layers)
    )


def importance_recovery_rate(
    trials: int = 50,
    seed: int = 0,
    n_layers: int = 20,
    shifted_layers: int = 3,
    offset_sigmas: float = 2.0,
    batch_size: int = 8,
) -> float:
    """Fraction of trials where the top-k importance indices exactly recover
    a random k-layer set shifted by ``offset_sigmas`` standard deviations.

    Each trial seeds the history from one clean batch and assesses one
    shifted batch, so recovery must beat per-channel sampling noise.
    """
    rng = np.random.default_rng(seed)
    network = recovery_network(n_layers)
    hits = 0
    for _ in range(trials):
        targets = tuple(
            sorted(rng.choice(n_layers, size=shifted_layers, replace=False).tolist())
        )
        env = gaussian_environment(
            network,
            shifts=(
                Shift(batch_index=1, layers=targets, mean_offset_sigmas=offset_sigmas),
            ),
            batch_size=batch_size,
        )
        model = ModelResponseState.from_environment(env)
        history = EmbeddingHistory.seed(generate_batch(env, model, 0, rng))
        current = generate_batch(env, model, 1, rng)
        vector, _ = assess(network, history, current)
        order = np.argsort(vector.a[1:])[::-1] + 1  # backward indices, best first
        top = {n_layers - int(b) for b in order[:shifted_layers]}
        if top == set(targets):
            hits += 1
    return hits / trials


def resnet50_batch_stats(batch_size: int = 16) -> tuple[Embedding, list[int]]:
    """Unit-Gaussian channel statistics for one batch through the shaped
    chain, and each layer's sample count per channel, sized by its spatial
    extent."""
    net = resnet50_shaped()
    widths = tuple(layer.channels for layer in net.layers)
    stats = Embedding(np.zeros(sum(widths)), np.ones(sum(widths)), widths)
    return stats, [batch_size * (l.out_elements // l.channels) for l in net.layers]


def cycling_trace(scenario, until_ms: float, horizon_ms: float = math.inf) -> StateTrace:
    """The five resource conditions in turn, one record every third of the
    scenario's forward pass, up to ``until_ms``."""
    conditions = list(resource_conditions().values())
    step = float(np.sum(scenario.offline.t_f)) / 3
    records = tuple(
        (k * step, conditions[k % len(conditions)])
        for k in range(int(until_ms // step) + 1)
    )
    return StateTrace(records=records, horizon_ms=horizon_ms)
