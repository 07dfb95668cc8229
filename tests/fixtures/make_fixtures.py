"""Regenerate the committed fixture tree and pilot measurements.

Run from the repository root:

    python tests/fixtures/make_fixtures.py [OUT_DIR]

OUT_DIR defaults to this directory. Outputs are deterministic, and
``tests/test_golden.py`` checks that they equal the committed files; the
pilot JSON records the measured values that justify the thresholds asserted
by the acceptance suite (recovery rate, latency ratio, capture ratio).
"""

import sys
from pathlib import Path

import numpy as np

from ttasched.errors import json_text
from ttasched.pipeline import generate_batch, ModelResponseState, run_episode
from ttasched.presets import (
    drift_scenario,
    network_to_document,
    recovery_network,
    write_fixture_tree,
)
from ttasched.pipeline import EnvironmentSpec, Shift

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))  # the tests' own helpers
from support import importance_recovery_rate, stats_to_lines  # noqa: E402


def write_assess_stats(out: Path) -> None:
    """History and current stats for a 10-layer chain with a 2-sigma shift
    on forward layers 3 and 7, for command-line drift scoring tests."""
    network = recovery_network(n_layers=10)
    env = EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=tuple(max(1, l.out_elements // l.channels) for l in network.layers),
        base_means=tuple(np.zeros(l.channels) for l in network.layers),
        base_vars=tuple(np.ones(l.channels) for l in network.layers),
        shifts=(Shift(batch_index=1, layers=(3, 7), mean_offset_sigmas=2.0),),
        batch_size=8,
    )
    model = ModelResponseState.from_environment(env)
    rng = np.random.default_rng(2024)
    history = generate_batch(env, model, 0, rng)
    current = generate_batch(env, model, 1, rng)
    (out / "stats_history.jsonl").write_text(stats_to_lines(history, env.sample_counts))
    (out / "stats_current.jsonl").write_text(stats_to_lines(current, env.sample_counts))
    (out / "network_recovery10.json").write_text(
        json_text(network_to_document(network))
    )


def run_pilots(out: Path) -> None:
    recovery = {
        f"seed_{seed}": importance_recovery_rate(trials=50, seed=seed)
        for seed in (0, 1, 2)
    }
    report = run_episode(drift_scenario())
    agg = report.aggregates
    pilot = {
        "importance_recovery": {
            "trials_per_seed": 50,
            "network_layers": 20,
            "shifted_layers": 3,
            "offset_sigmas": 2.0,
            "observed_rates": recovery,
            "pinned_threshold": 0.90,
        },
        "drift_scenario": {
            "scenario": report.scenario,
            "seed": report.seed,
            "observed_latency_ratio_vs_full": agg.latency_ratio_vs_full,
            "observed_mean_capture_ratio": agg.mean_capture_ratio,
            "observed_speedup_vs_full": agg.speedup_vs_full,
            "pinned_latency_ratio_max": 0.5,
            "pinned_capture_ratio_min": 0.6,
        },
    }
    (out / "pilot_results.json").write_text(json_text(pilot))


def main(out: Path = HERE) -> None:
    write_fixture_tree(out)
    write_assess_stats(out)
    run_pilots(out)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE
    main(out)
    print(f"fixtures written under {out}")
