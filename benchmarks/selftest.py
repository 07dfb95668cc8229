#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

1. A tiny smoke pass of every workload, untraced and traced. The workloads
   are shrunk in-process for the pass: a 24-layer deep chain, a small oracle
   pool and a low decision floor. It checks that the last line of output
   holds every metric named in ``BENCHMARK.json`` with its unit, and that
   the run's own checks pass.
2. The failure counters: a corrupted oracle result and a corrupted episode
   report, fed to the benchmark's own checking functions, must be counted
   as failures.
3. Without the sources, the benchmark must exit non-zero and print no
   result.

Exits 0 when every check passes, 1 otherwise.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def shrink(workloads) -> None:
    workloads.MIN_DECISIONS = 12
    workloads.Drift24.quality_episodes = 1
    deep = workloads.Deep96
    deep.n_layers, deep.batches, deep.quality_episodes, deep.decide_share = 24, 4, 1, 0.3
    oracle = workloads.Oracle14
    oracle.sizes, oracle.per_size = (4, 5, 6), 2


def smoke(spec: dict) -> None:
    import workloads

    shrink(workloads)
    for name in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
                )
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            label = f"{name} --trace {trace}"
            expect(code == 0, f"{label}: exit code 0")
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys",
            )
            expect(result["correct"] is True, f"{label}: output checks pass")
            expect(result["attempted"] >= 1, f"{label}: attempted >= 1")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: every {section} metric with its unit")
            expect(
                all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                f"{label}: numeric values",
            )


def counters() -> None:
    import numpy as np

    import workloads
    from ttasched.network import StrategyCost, UpdateStrategy

    wl = workloads.Oracle14()
    wl.setup(5, run.ROOT / ".bench_run" / "selftest")
    dp, bf = wl.run_op(0)
    expect(wl.check(0, (dp, bf)).failed == 0, "a true oracle result is not a failure")

    # the oracle claims a different selection with a higher gain
    n = bf.strategy.n_layers
    other = tuple(b for b in range(1, n + 1) if b not in bf.strategy.selected)[:1] or (1,)
    corrupted = dataclasses.replace(
        bf,
        strategy=UpdateStrategy(n_layers=n, selected=other),
        achieved_importance=bf.achieved_importance + 1.0,
    )
    outcome = wl.check(wl.pool_size, (dp, corrupted))  # instance 0 again
    kind = wl.pool[0][0]
    assert (kind, wl.pool[1][0]) == ("dyadic", "float")
    expect(
        outcome.failed == 1 and wl.tally[f"mismatches.{kind}"] == 1,
        "a corrupted oracle result counts as a mismatch",
    )
    expect(
        bool(outcome.failures) and "instance" in outcome.failures[0],
        "the mismatch is recorded with its serialised instance",
    )
    fdp, fbf = wl.run_op(1)  # a float instance: its failures are the known defect
    outcome = wl.check(1, (fdp, dataclasses.replace(fbf, achieved_importance=fbf.achieved_importance + 1.0)))
    expect(
        (outcome.failed, outcome.known) == (0, 1) and wl.tally["mismatches.float"] == 1,
        "a float-instance mismatch counts as the known defect, outside failed",
    )
    over = dataclasses.replace(
        dp, predicted_extra=StrategyCost(dp.budget_ms + 1.0, 0.0)
    )
    expect(
        "violation" in workloads.oracle_failures(over, over),
        "a search result over its budget counts as a violation",
    )

    batch = {"index": 0, "predicted_b_ms": 2.0, "predicted_re_ms": 1.0, "budget_ms": 2.5}
    text = json.dumps(
        {
            "aggregates": {"speedup_vs_full": 1.0},
            "batches": [batch, {**batch, "index": 1, "budget_ms": 3.0}, {**batch, "index": 2, "budget_ms": 9.0, "loss_after": float(np.nan)}],
        }
    )
    outcome, _ = workloads.check_report(text, "selftest")
    expect(
        (outcome.attempted, outcome.failed) == (3, 2),
        "an over-budget batch and a NaN batch count as failed",
    )


def without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_run") as bare:
        shutil.copytree(run.HERE, f"{bare}/{run.HERE.name}", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "drift24", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit, no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    (run.ROOT / ".bench_run").mkdir(exist_ok=True)
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    smoke(spec)
    counters()
    without_sources()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
