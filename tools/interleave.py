#!/usr/bin/env python3
"""Interleaved A/B timing of two ttasched source trees in one process.

    python3 tools/interleave.py PARENT_SRC CHANGE_SRC [--workload W] [--ops N] [--seed S]

PARENT_SRC and CHANGE_SRC are directories holding a ``ttasched`` package
(a checkout's ``src``). Both are imported side by side under distinct
package names, so the two versions share one interpreter, one heap and the
same moments of host noise. Each of the ``N`` pairs times both sides, in
alternating order. With ``--workload drift24`` (the default) a pair times:

* the drift24 operation: ``ttasched simulate`` on the bundled drift scenario
  (load, ``run_episode``, the JSON and CSV reports), one seed per pair;
* a replay of one recorded drift episode's decisions by direct calls
  (``assess``, ``build_profile``, ``solve_dp``), each decision timed.

The two sides must write the same report JSON and CSV, byte for byte; the
tool stops at the first pair where they do not.

With ``--workload deep96`` each side builds the benchmark's deep96 scenario
from its own modules, as ``Deep96.setup`` and ``deep96_trace`` in
``benchmarks/workloads.py`` build it: ``synthetic_network(96)``, 16
sequential batches and a time-varying state trace drawn from ``--seed``, the
only workload whose executor walks a trace with records ahead. A pair times
``run_episode`` plus ``report_json`` for one seed, and replays one recorded
episode's decisions as drift24 does. The two sides must return the same
report JSON, byte for byte.

With ``--workload oracle14`` each side draws the same ``certify``-style
instance stream from its own ``scheduler.random_instance`` (4 to 14 layers,
dyadic and float instances alternating), and a pair times one instance's
``solve_dp`` plus ``brute_force`` (the operation) and the fastest of
``DECIDE_REPEATS`` timings of its ``solve_dp``, the first being the one
inside the operation (the decision): one call takes tens of microseconds,
too short to time once against host noise. The two sides must return the same selections, gains
(by ``repr``) and counts; the tool stops at the first pair where they do
not.

It prints each side's median operation and decision times, the median of
the per-pair ratios change/parent and how many pairs the change won. Only
the standard library and numpy are used. ``tests/test_tools.py`` runs it
A/A (one tree against itself, two pairs) on every workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

DECIDE_REPEATS = 5  # oracle14 solve_dp timings per side per pair, fastest kept


def load(src: str, name: str):
    """The ``ttasched`` package under ``src``, imported as ``name``; its
    modules import one another relatively, so they stay within the tree."""
    init = Path(src).resolve() / "ttasched" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no ttasched package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class DriftSide:
    """One source tree: its fixture files, its drift operation and one
    recorded episode's decisions."""

    def __init__(self, label: str, src: str, workdir: Path, seed: int):
        self.label = label
        name = f"ttasched_{label}"
        load(src, name)
        module = lambda sub: importlib.import_module(f"{name}.{sub}")
        self.seed = seed
        self.cli = module("cli")
        self.pipeline = module("pipeline")
        self.latency = module("latency")
        self.importance = module("importance")
        self.scheduler = module("scheduler")
        self.presets = module("presets")
        self.setup(workdir / label, seed)
        self.decisions = self.record(self.scenario(seed))
        self.op_ns: list[int] = []
        self.decide_ns: list[int] = []

    def setup(self, root: Path, seed: int) -> None:
        self.scenario_path = self.presets.write_fixture_tree(root)["scenario_drift.json"]
        self.report = str(root / "report.json")
        self.csv = str(root / "report.csv")

    def scenario(self, seed: int):
        return dataclasses.replace(
            self.pipeline.load_scenario_file(self.scenario_path), seed=seed
        )

    def record(self, scenario) -> list:
        """The ``(assess, build_profile, solve_dp)`` arguments of every
        decision of one episode, as ``run_episode`` made them."""
        pipeline = self.pipeline
        originals = {n: getattr(pipeline, n) for n in ("assess", "build_profile", "solve_dp")}
        decisions, pending = [], {}

        def recording(name):
            def call(*args, **kwargs):
                if name == "solve_dp":
                    decisions.append(
                        (pending.pop("assess", None), pending.pop("build_profile"), (args, kwargs))
                    )
                else:
                    pending[name] = (args, kwargs)
                return originals[name](*args, **kwargs)

            return call

        for name in originals:
            setattr(pipeline, name, recording(name))
        try:
            pipeline.run_episode(scenario)
        finally:
            for name, original in originals.items():
                setattr(pipeline, name, original)
        return decisions

    def op(self, seed: int) -> tuple[bytes, ...]:
        """Time one operation; returns the report JSON and CSV it wrote."""
        start = time.perf_counter_ns()
        code = self.cli.main(
            ["simulate", self.scenario_path, "--out", self.report, "--csv", self.csv,
             "--seed", str(seed)]
        )
        self.op_ns.append(time.perf_counter_ns() - start)
        if code != 0:
            raise SystemExit(f"{self.label}: simulate exited with {code}")
        return Path(self.report).read_bytes(), Path(self.csv).read_bytes()

    def replay(self) -> list[int]:
        """Time every recorded decision once; returns the times."""
        times = []
        for assess_call, profile_call, (solve_args, solve_kwargs) in self.decisions:
            start = time.perf_counter_ns()
            vector = solve_args[0]
            if assess_call is not None:
                vector, _ = self.importance.assess(*assess_call[0], **assess_call[1])
            profile = self.latency.build_profile(*profile_call[0], **profile_call[1])
            self.scheduler.solve_dp(vector, profile, *solve_args[2:], **solve_kwargs)
            times.append(time.perf_counter_ns() - start)
        self.decide_ns.extend(times)
        return times

    def pair(self, k: int) -> tuple[int, float, tuple[bytes, ...]]:
        """One pair's side: the operation's time, the median decision time
        of the replay, and the reports the operation wrote."""
        written = self.op(self.seed + k)
        return self.op_ns[-1], statistics.median(self.replay()), written

    @staticmethod
    def difference(parent: tuple, change: tuple) -> str:
        """Where the two sides' reports first differ."""
        for name, p, c in zip(("JSON", "CSV"), parent, change):
            if p != c:
                line = next(
                    (i for i, (a, b) in enumerate(zip(p.splitlines(), c.splitlines()), 1)
                     if a != b),
                    min(p.count(b"\n"), c.count(b"\n")) + 1,
                )
                return f"the report {name} differs from line {line} on"
        return "the reports differ"

    def describe(self) -> str:
        return f"{len(self.decisions)} decisions replayed per side per pair"


class Deep96Side(DriftSide):
    """One source tree: its deep96 scenario, the episode operation on it
    and one recorded episode's decisions."""

    N_LAYERS = 96
    BATCHES = 16

    def setup(self, root: Path, seed: int) -> None:
        presets, latency, pipeline = self.presets, self.latency, self.pipeline
        network = presets.synthetic_network(self.N_LAYERS)
        device = presets.demo_edge_device()
        offline = presets.offline_from_costs(network, device)
        # a sequential batch finishes within one full update under the
        # slowest state (plus jitter) after it starts
        worst = latency.build_profile(
            network, offline, device,
            latency.SystemState(n=3, tem_on=device.dvfs[-1][0], phi=0.3),
        )
        horizon = self.BATCHES * (float(np.sum(offline.t_f)) + 1.1 * worst.t_total)
        n = self.N_LAYERS
        environment = pipeline.EnvironmentSpec(
            channels=tuple(layer.channels for layer in network.layers),
            positions=(4,) * n,
            base_means=tuple(np.zeros(layer.channels) for layer in network.layers),
            base_vars=tuple(np.ones(layer.channels) for layer in network.layers),
            shifts=(
                pipeline.Shift(
                    batch_index=3, layers=tuple(range(n // 2, n, 5)), mean_offset_sigmas=2.0
                ),
            ),
            batch_size=8,
        )
        self.base = pipeline.Scenario(
            name="deep96",
            mode="sequential",
            seed=seed,
            batches=self.BATCHES,
            environment=environment,
            network=network,
            offline=offline,
            device=device,
            trace=self.trace(np.random.default_rng(seed), device, horizon),
            sigma=0.6,
            adaptation_gain=0.5,
            jitter_eps=0.02,
        )

    def trace(self, rng: np.random.Generator, device, horizon_ms: float):
        """A state record every 8 ms over the episode: contention 0..3, a
        DVFS temperature and a cache-hit rate in [0.3, 1]."""
        temps = [t for t, _ in device.dvfs]
        count = int(horizon_ms // 8.0) + 1
        n = rng.integers(0, 4, count)
        tem = rng.integers(0, len(temps), count)
        phi = rng.uniform(0.3, 1.0, count)
        state = self.latency.SystemState
        records = tuple(
            (8.0 * i, state(n=int(n[i]), tem_on=temps[tem[i]], phi=float(phi[i])))
            for i in range(count)
        )
        return self.latency.StateTrace(records=records, horizon_ms=8.0 * (count - 1))

    def scenario(self, seed: int):
        return dataclasses.replace(self.base, seed=seed)

    def op(self, seed: int) -> tuple[bytes]:
        """Time one episode and its report; returns the report JSON."""
        scenario = self.scenario(seed)
        start = time.perf_counter_ns()
        text = self.pipeline.report_json(self.pipeline.run_episode(scenario))
        self.op_ns.append(time.perf_counter_ns() - start)
        return (text.encode(),)


class OracleSide:
    """One source tree's certification operation on its own instance
    stream: ``solve_dp`` (the decision), then ``brute_force``."""

    def __init__(self, label: str, src: str, workdir: Path, seed: int):
        self.label = label
        name = f"ttasched_{label}"
        load(src, name)
        self.scheduler = importlib.import_module(f"{name}.scheduler")
        self.rng = np.random.default_rng(seed)
        self.drawn = 0
        self.op_ns: list[int] = []
        self.decide_ns: list[int] = []

    def pair(self, k: int) -> tuple[int, int, tuple]:
        """Time the next instance of the stream; returns the operation's
        time, the fastest of the decision's ``DECIDE_REPEATS`` times and
        what the two results say."""
        scheduler = self.scheduler
        instance = scheduler.random_instance(self.rng, 4, 14, dyadic=self.drawn % 2 == 0)
        self.drawn += 1
        importance, profile = instance["importance"], instance["profile"]
        config = scheduler.SchedulerConfig(sigma=instance["sigma"])
        start = time.perf_counter_ns()
        dp = scheduler.solve_dp(importance, profile, config)
        decided = time.perf_counter_ns()
        bf = scheduler.brute_force(importance, profile, dp.budget_ms)
        done = time.perf_counter_ns()
        op, decide = done - start, decided - start
        for _ in range(DECIDE_REPEATS - 1):
            start = time.perf_counter_ns()
            scheduler.solve_dp(importance, profile, config)
            decide = min(decide, time.perf_counter_ns() - start)
        self.op_ns.append(op)
        self.decide_ns.append(decide)
        answer = tuple(
            (r.strategy.selected, repr(r.achieved_importance), r.explored, r.pruned)
            for r in (dp, bf)
        )
        return op, decide, answer

    @staticmethod
    def difference(parent: tuple, change: tuple) -> str:
        return f"parent {parent}, change {change}"

    def describe(self) -> str:
        return (
            "one certify-stream instance per side per pair (4-14 layers), "
            f"fastest of {DECIDE_REPEATS} solve_dp timings"
        )


SIDES = {"drift24": DriftSide, "deep96": Deep96Side, "oracle14": OracleSide}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument(
        "--workload", choices=SIDES, default="drift24", help="default drift24"
    )
    parser.add_argument("--ops", type=int, default=200, help="pairs to run (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="first scenario seed")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")

    kind = SIDES[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [
            kind("parent", args.parent_src, Path(tmp), args.seed),
            kind("change", args.change_src, Path(tmp), args.seed),
        ]
        parent, change = sides
        if issubclass(kind, DriftSide) and len(parent.decisions) != len(change.decisions):
            raise SystemExit("the two trees record different decision counts")
        for side in sides:  # warm both sides before timing
            side.pair(0)
            side.op_ns.clear()
            side.decide_ns.clear()
        op_ratios, decide_ratios = [], []
        for k in range(args.ops):
            gc.collect()
            order = sides if k % 2 == 0 else sides[::-1]
            times = {side.label: side.pair(k) for side in order}
            (p_op, p_decide, p_answer), (c_op, c_decide, c_answer) = (
                times["parent"], times["change"]
            )
            if p_answer != c_answer:
                raise SystemExit(
                    f"pair {k}: the trees disagree: {kind.difference(p_answer, c_answer)}"
                )
            op_ratios.append(c_op / p_op)
            decide_ratios.append(c_decide / p_decide)

    print(f"workload {args.workload}, pairs {args.ops}, {parent.describe()}")
    for side in sides:
        print(
            f"{side.label:>6}: op median {statistics.median(side.op_ns) / 1e6:.3f} ms, "
            f"decide median {statistics.median(side.decide_ns) / 1e3:.1f} us"
        )
    for what, ratios in (("op", op_ratios), ("decide", decide_ratios)):
        wins = sum(r < 1.0 for r in ratios)
        print(
            f"{what} ratio change/parent: median {statistics.median(ratios):.4f}, "
            f"change faster in {wins}/{len(ratios)} pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
