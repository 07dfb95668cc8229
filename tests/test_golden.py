"""Golden reports: ``simulate`` output pinned byte for byte.

The digests in ``fixtures/golden_reports.json`` are sha256 sums of episode
reports (JSON and CSV) and of the bundled networks' documents. A refactor of the simulator's hot path must leave
them unchanged; a deliberate change of the random streams or of the report
arithmetic must regenerate the digests it changes, and only those, and say
why. Re-record the cases whose names start with given prefixes with::

    PYTHONPATH=src python tests/test_golden.py --write episode/ simulate/

Every other recorded digest is kept as it is, and each changed digest is
printed as ``old -> new``.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden_reports.json"

SIMULATE_SCENARIOS = ("scenario_drift.json", "scenario_zero_shift.json")
SIMULATE_SEEDS = (0, 1, 2, 3)

# per-layer channel widths of the odd-width chain: single-channel layers,
# widths on both sides of numpy's 8-wide pairwise-summation unroll, and one
# past its 128-element block
ODD_WIDTHS = (1, 7, 8, 9, 129, 8, 7, 1, 9, 129, 8, 8)

# preset chain lengths pinned by their network documents: every phase of the
# conv / batchnorm / activation triplet before the pool and head, and both
# parities of the conv / batchnorm alternation
SYNTHETIC_LAYERS = (4, 6, 9, 10, 12, 24, 120)
RECOVERY_LAYERS = (1, 2, 3, 4, 10, 20, 21)
RECOVERY_CHANNELS = (4, 8)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _simulate_digests(scenario: str, seed: int, tmp: Path) -> dict:
    from ttasched.cli import main

    out = tmp / f"{scenario}.{seed}.json"
    csv = tmp / f"{scenario}.{seed}.csv"
    rc = main(
        ["simulate", str(FIXTURES / scenario), "--seed", str(seed),
         "--out", str(out), "--csv", str(csv)]
    )
    assert rc == 0
    return {"json": _sha(out.read_text()), "csv": _sha(csv.read_text())}


def _episode_digests(scenario) -> dict:
    from ttasched.pipeline import report_csv, report_json, run_episode

    report = run_episode(scenario)
    return {"json": _sha(report_json(report)), "csv": _sha(report_csv(report))}


def _ragged_scenario(network, name: str):
    """A shifting episode over a chain whose layers differ in width."""
    from ttasched.pipeline import EnvironmentSpec, Scenario, Shift
    from ttasched.presets import (
        demo_edge_device,
        offline_from_costs,
        resource_conditions,
        static_trace,
    )

    device = demo_edge_device()
    n = network.n_layers
    env = EnvironmentSpec(
        channels=tuple(l.channels for l in network.layers),
        positions=tuple(max(1, l.out_elements // l.channels) for l in network.layers),
        base_means=tuple(np.zeros(l.channels) for l in network.layers),
        base_vars=tuple(np.ones(l.channels) for l in network.layers),
        shifts=(
            Shift(batch_index=3, layers=(n // 4, n // 2, n - 2), mean_offset_sigmas=2.0),
            Shift(batch_index=7, layers=(1, n - 1), mean_offset_sigmas=-1.0, var_scale=1.5),
        ),
        batch_size=8,
    )
    return Scenario(
        name=name,
        mode="sequential",
        seed=5,
        batches=12,
        environment=env,
        network=network,
        offline=offline_from_costs(network, device),
        device=device,
        trace=static_trace(resource_conditions()["offline"]),
        sigma=0.33,
        jitter_eps=0.02,
    )


def _odd_width_network():
    from ttasched.presets import recovery_network

    base = recovery_network(len(ODD_WIDTHS))
    layers = tuple(
        dataclasses.replace(layer, channels=w, out_elements=w * 16)
        for layer, w in zip(base.layers, ODD_WIDTHS)
    )
    return dataclasses.replace(base, name="odd-widths", layers=layers)


def _time_varying_drift():
    """The drift episode under a trace that cycles the five resource
    conditions every third of a forward pass (with one duplicate timestamp),
    so states change inside executor calls; jitter stays on."""
    from ttasched.latency import StateTrace
    from ttasched.presets import drift_scenario, resource_conditions

    scenario = drift_scenario(seed=4)
    conditions = list(resource_conditions().values())
    step = float(np.sum(scenario.offline.t_f)) / 3
    records = [(k * step, conditions[k % len(conditions)]) for k in range(800)]
    records.insert(11, (10 * step, conditions[4]))
    trace = StateTrace(records=tuple(records), horizon_ms=1e6)
    return dataclasses.replace(scenario, name="drift-time-varying", trace=trace)


def _network_digests(network) -> dict:
    from ttasched.errors import json_text
    from ttasched.presets import network_to_document

    return {"json": _sha(json_text(network_to_document(network)))}


def golden_cases() -> dict:
    """Name -> function of a scratch directory returning that case's
    digests."""
    from ttasched.presets import (
        recovery_network,
        resnet50_shaped,
        synthetic_network,
    )

    cases = {}
    for scenario in SIMULATE_SCENARIOS:
        for seed in SIMULATE_SEEDS:
            cases[f"simulate/{scenario}/seed{seed}"] = (
                lambda tmp, s=scenario, k=seed: _simulate_digests(s, k, tmp)
            )
    cases["episode/drift-time-varying-trace"] = lambda tmp: _episode_digests(
        _time_varying_drift()
    )
    cases["episode/resnet50-shaped-gaussian"] = lambda tmp: _episode_digests(
        _ragged_scenario(resnet50_shaped(), "resnet50-ragged")
    )
    cases["episode/odd-widths-gaussian"] = lambda tmp: _episode_digests(
        _ragged_scenario(_odd_width_network(), "odd-widths")
    )
    # the bundled chains, whose layer costs every latency figure derives from
    for n in SYNTHETIC_LAYERS:
        cases[f"network/synthetic/n{n}"] = (
            lambda tmp, n=n: _network_digests(synthetic_network(n))
        )
    for n in RECOVERY_LAYERS:
        for c in RECOVERY_CHANNELS:
            cases[f"network/recovery/n{n}-c{c}"] = (
                lambda tmp, n=n, c=c: _network_digests(recovery_network(n, channels=c))
            )
    return cases


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_report_matches_golden_digest(case, tmp_path):
    assert case in GOLDEN_DIGESTS, f"no golden digest recorded for {case}"
    assert golden_cases()[case](tmp_path) == GOLDEN_DIGESTS[case]


def test_write_recomputes_only_the_named_prefixes(monkeypatch):
    real = GOLDEN_DIGESTS["network/recovery/n1-c4"]["json"]
    tampered = dict(GOLDEN_DIGESTS)
    tampered["network/recovery/n1-c4"] = {"json": "0" * 64}
    tampered["simulate/scenario_drift.json/seed0"] = {"json": "1" * 64, "csv": "2" * 64}
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIGESTS", tampered)
    lines = []
    digests = write_digests(["network/recovery/n1-"], out=lines.append)
    assert lines == [
        f"network/recovery/n1-c4 [json]: {'0' * 64} -> {real}",
        f"recomputed 2 of {len(tampered)} digests",
    ]
    # a key outside the prefixes keeps its recorded (here: tampered) digest
    assert digests == {**tampered, "network/recovery/n1-c4": {"json": real}}


def test_fixture_generator_reproduces_the_committed_files(tmp_path):
    # every file ``fixtures/make_fixtures.py`` writes is committed as it
    # writes it, so the fixtures can be regenerated without changing them
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_fixtures", FIXTURES / "make_fixtures.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.main(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert len(written) == 11
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def write_digests(prefixes, out=print) -> dict:
    """Recompute the cases whose names start with one of ``prefixes``, keep
    every other recorded digest, and return the merged table; report each
    changed digest through ``out``."""
    import tempfile

    cases = golden_cases()
    unmatched = [p for p in prefixes if not any(name.startswith(p) for name in cases)]
    if unmatched:
        raise SystemExit(f"no golden case starts with {unmatched}")
    chosen = sorted(name for name in cases if name.startswith(tuple(prefixes)))
    digests = {
        name: value for name, value in GOLDEN_DIGESTS.items()
        if not name.startswith(tuple(prefixes))
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name in chosen:
            digests[name] = cases[name](Path(tmp))
            old = GOLDEN_DIGESTS.get(name, {})
            for part, new in sorted(digests[name].items()):
                if old.get(part) != new:
                    out(f"{name} [{part}]: {old.get(part, '(none)')} -> {new}")
    for name in sorted(set(GOLDEN_DIGESTS) - set(digests)):
        out(f"{name}: dropped, no such case")
    out(f"recomputed {len(chosen)} of {len(digests)} digests")
    return digests


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Re-record golden digests.")
    parser.add_argument(
        "--write", nargs="+", metavar="PREFIX", required=True,
        help="re-record the cases whose names start with a PREFIX "
        "(e.g. episode/ simulate/; '' names every case)",
    )
    digests = write_digests(parser.parse_args().write)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
