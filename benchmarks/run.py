#!/usr/bin/env python3
"""ttasched benchmark: one workload, one pass, every metric.

    python3 benchmarks/run.py --workload drift24 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` measures untraced throughput, then traced throughput with a
span around every call into a ttasched layer, and prints the per-layer
metrics and the scheduler sweep. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The lines before
it print the same metrics as a table, the failure share and the host facts.
``failed`` leaves out the failures of the known float defect on
``oracle14``; the table's ``failed_share`` counts them with the rest.
Spans, failures and the full result go to ``.bench_run/<workload>/``.

Everything runs in this one process and one thread; the BLAS and OpenMP
pools are pinned to one thread before numpy loads.
"""

import os
import sys

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("drift24", "deep96", "oracle14")

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
FAILURE_RECORDS = 200  # failures written out per run; all are counted


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# --- set-up time ----------------------------------------------------------------


def setup_probe(args, workdir: Path) -> int:
    """Time ``import ttasched`` plus the workload's input build in this
    fresh interpreter and print the seconds."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import ttasched  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[args.workload]().setup(args.seed, workdir)
    print(repr(time.perf_counter() - start))
    return 0


def measure_setup(args, workdir: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    shutil.rmtree(workdir / "probe", ignore_errors=True)
    return samples


# --- the closed loop ---------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0  # failures from the known float defect, not in ``failed``
        self.completed = 0  # operations whose call returned
        self.busy_ns = 0
        self.calls = 0
        self.failures: list = []

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.known += outcome.known
        room = FAILURE_RECORDS - len(self.failures)
        self.failures.extend(outcome.failures[: max(room, 0)])

    @property
    def ops_per_s(self) -> float:
        return self.completed / (self.busy_ns / 1e9)


class Replay:
    """Recorded decisions, replayed in whole cycles by direct calls between
    operations until they hold ``share`` of the measured time."""

    def __init__(self, decisions, share: float):
        self.decisions = decisions
        self.share = share
        self.samples: list[int] = []
        self.busy_ns = 0
        self.reproduced = True

    def behind(self, op_busy_ns: int) -> bool:
        return self.busy_ns < self.share * (self.busy_ns + op_busy_ns)

    def short(self) -> bool:
        from workloads import MIN_DECISIONS

        return len(self.samples) < MIN_DECISIONS

    def cycle(self) -> None:
        from workloads import decide

        for decision in self.decisions:
            start = time.perf_counter_ns()
            result = decide(decision)
            elapsed = time.perf_counter_ns() - start
            self.samples.append(elapsed)
            self.busy_ns += elapsed
            if result.strategy.selected != decision.selected:
                self.reproduced = False


def closed_loop(wl, tally: Tally, seconds: float, min_calls: int, call=None, outputs=None, replay=None):
    """Issue operations back to back, interleaved with ``replay`` cycles,
    until ``seconds`` have passed, at least ``min_calls`` operations were
    made and the replay has its samples. Only the calls themselves are
    timed; the output checks run between them."""
    call = call or wl.run_op
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        late = time.perf_counter() >= deadline
        ops_short = k < min_calls
        if late and not ops_short and not (replay and replay.short()):
            break
        if replay and (replay.behind(tally.busy_ns) or (late and not ops_short)):
            replay.cycle()
            continue
        start = time.perf_counter_ns()
        try:
            raw = call(k)
        except Exception:  # counted with its traceback, not fatal
            tally.add(wl.raised(k))
            k += 1
            continue
        tally.busy_ns += time.perf_counter_ns() - start
        output = wl.output(k, raw)
        if outputs is not None and k == 0:
            outputs.append(output)
        outcome = wl.check(k, output)
        tally.add(outcome)
        tally.completed += outcome.attempted
        tally.calls += 1
        k += 1


def percentile_ms(samples_ns, q: int) -> float:
    return statistics.quantiles(samples_ns, n=100)[q - 1] / 1e6


def untraced_pass(wl, args, workdir, setup_samples):
    wl.setup(args.seed, workdir)
    tally = Tally()
    checks: dict[str, bool] = {}
    if wl.episodic:
        reference, decisions = wl.record()
        replay = Replay(decisions, wl.decide_share)
        firsts: list = []
        closed_loop(wl, tally, args.seconds, wl.quality_episodes, outputs=firsts, replay=replay)
        checks["same_seed_report_identical"] = firsts == [reference]
        checks["replay_reproduces_selection"] = replay.reproduced
        decide_ns = replay.samples
    else:
        closed_loop(wl, tally, args.seconds, wl.pool_size)
        checks["same_instance_result_identical"] = wl.repeatable
        decide_ns = wl.decide_ns
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (tally.ops_per_s, "ops/s"),
        "decide_ms_p50": (statistics.median(decide_ns) / 1e6, "ms"),
        "decide_ms_p90": (percentile_ms(decide_ns, 90), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    quality = wl.quality_metrics()
    metrics["speedup_vs_full"] = (quality["speedup_vs_full"], "x")
    metrics["capture_ratio"] = (quality["capture_ratio"], "ratio")
    samples = {
        "setup_probes": len(setup_samples),
        "decisions": len(decide_ns),
        "calls": tally.calls,
        "operations": tally.completed,
        "quality_samples": len(wl.quality),
    }
    extra = {"rel_error": quality.get("rel_error")}
    return metrics, tally, checks, samples, extra


def traced_pass(wl, args, workdir):
    from sweep import scheduler_sweep
    from tracing import Tracer, patched, traced_replacements

    setup_tracer = Tracer()
    with patched(traced_replacements(setup_tracer)):
        wl.setup(args.seed, workdir)
    checks: dict[str, bool] = {}
    min_calls = wl.quality_episodes if wl.episodic else 1
    plain = Tally()
    plain_firsts: list = []
    closed_loop(wl, plain, args.seconds / 2, min_calls, outputs=plain_firsts)

    tracer = Tracer()
    op_span = tracer.wrap("bench.op", wl.run_op)

    def traced_op(k):
        tracer.op_id = k
        return op_span(k)

    traced = Tally()
    traced_firsts: list = []
    with patched(traced_replacements(tracer)):
        closed_loop(wl, traced, args.seconds / 2, min_calls, call=traced_op, outputs=traced_firsts)
    checks["traced_output_identical"] = plain_firsts == traced_firsts
    tracer.write(workdir / "spans.jsonl")

    from layers import layer_metrics

    metrics = layer_metrics(
        wl,
        tracer,
        setup_tracer,
        traced,
        overhead=1.0 - traced.ops_per_s / plain.ops_per_s,
        sweep=scheduler_sweep(args.seed),
    )
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.known += part.known
        tally.failures.extend(part.failures)
    samples = {
        "untraced_operations": plain.completed,
        "traced_operations": traced.completed,
        "spans": len(tracer.spans),
    }
    return metrics, tally, checks, samples, {"top_self_ms": _top_self(tracer)}


def _top_self(tracer, count=8):
    totals = tracer.totals()
    rows = sorted(
        ((row[2] / 1e6, name) for name, row in totals.items() if name != "bench.op"),
        reverse=True,
    )
    return [[name, ms] for ms, name in rows[:count]]


# --- host facts ------------------------------------------------------------------


def host_facts(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttasched" / "__init__.py").is_file():
        print(f"error: no ttasched sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / args.workload
    if args.setup_probe:
        return setup_probe(args, workdir / "probe")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    if args.trace:
        metrics, tally, checks, samples, extra = traced_pass(wl, args, workdir)
    else:
        setup_samples = measure_setup(args, workdir)
        metrics, tally, checks, samples, extra = untraced_pass(
            wl, args, workdir, setup_samples
        )
    facts = host_facts(args)
    facts["samples"] = samples
    correct = all(checks.values())
    with open(workdir / "failures.jsonl", "w") as fh:
        for record in tally.failures:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    full = {
        "facts": facts,
        "checks": checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_defect": tally.known,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    (workdir / "result.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    print("# checks " + json.dumps(checks, sort_keys=True))
    for key, value in extra.items():
        print(f"# {key} " + json.dumps(value))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    failed = tally.failed + tally.known
    share = failed / tally.attempted if tally.attempted else 0.0
    print(
        f"{'failed_share':<44} {share:>16.6g} ratio "
        f"({failed} of {tally.attempted} failed, {tally.known} of them the known "
        f"float defect; see {workdir.relative_to(ROOT)}/failures.jsonl)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": full["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
