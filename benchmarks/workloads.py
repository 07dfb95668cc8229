"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop: the next operation starts when the last one
has finished. Each builds its inputs from the benchmark seed in ``setup``;
ttasched receives only those inputs. ``run_op`` is the timed call and
``check`` judges its output afterwards, untimed.

* ``drift24``: ``ttasched simulate`` in-process on the bundled drift
  scenario, one seed per operation. Sampling-bound (``generate_batch``).
* ``deep96``: a library-level ``run_episode`` on a 96-layer chain under a
  generated, time-varying state trace. Scheduler-bound (``solve_dp``).
* ``oracle14``: ``solve_dp`` certified against ``brute_force`` on 4- to
  14-layer instances, half snapped to a dyadic grid and half with float
  costs whose budget is pinned to a strategy's exact cost.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ttasched import cli, importance, latency, pipeline, presets, scheduler
from ttasched.importance import ImportanceVector
from ttasched.latency import LatencyProfile, StateTrace, SystemState
from ttasched.scheduler import SchedulerConfig

from tracing import patched

# the p90 of a run's decisions needs at least ten samples beyond it
MIN_DECISIONS = 110


class OpOutcome(NamedTuple):
    attempted: int
    failed: int
    failures: list  # one JSON-ready record per failure
    known: int = 0  # failures from the known float defect, not in ``failed``


# --- online decisions ---------------------------------------------------------


class Decision(NamedTuple):
    """The inputs of one batch's decision as ``run_episode`` made it."""

    assess_call: tuple | None  # (args, kwargs); None on the first batch
    solve_call: tuple  # (args, kwargs) of solve_dp
    profile_call: tuple  # (args, kwargs) of build_profile
    selected: tuple[int, ...]


def record_episode(run):
    """Run ``run()`` (one episode) while capturing the arguments of every
    ``assess`` -> ``build_profile`` -> ``solve_dp`` chain it makes."""
    decisions: list[Decision] = []
    pending: dict = {}
    assess, build_profile, solve_dp = (
        pipeline.assess,
        pipeline.build_profile,
        pipeline.solve_dp,
    )

    def rec_assess(*args, **kwargs):
        pending["assess"] = (args, kwargs)
        return assess(*args, **kwargs)

    def rec_profile(*args, **kwargs):
        pending["profile"] = (args, kwargs)
        return build_profile(*args, **kwargs)

    def rec_solve(*args, **kwargs):
        result = solve_dp(*args, **kwargs)
        decisions.append(
            Decision(
                pending.pop("assess", None),
                (args, kwargs),
                pending.pop("profile"),
                result.strategy.selected,
            )
        )
        return result

    with patched(
        [
            (pipeline, "assess", rec_assess),
            (pipeline, "build_profile", rec_profile),
            (pipeline, "solve_dp", rec_solve),
        ]
    ):
        report = run()
    if not decisions:
        raise RuntimeError("the recording episode made no decisions")
    return report, decisions


def decide(decision: Decision):
    """Replay one decision by direct calls: assess, build_profile, solve_dp."""
    (solve_args, solve_kwargs) = decision.solve_call
    vector = solve_args[0]
    if decision.assess_call is not None:
        args, kwargs = decision.assess_call
        vector, _ = importance.assess(*args, **kwargs)
    args, kwargs = decision.profile_call
    profile = latency.build_profile(*args, **kwargs)
    return scheduler.solve_dp(vector, profile, *solve_args[2:], **solve_kwargs)


# --- episode checks -----------------------------------------------------------


def _json_ok(value) -> bool:
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


def check_report(text: str, label: str):
    """Judge one episode report: a batch fails if its closed-form predicted
    extra cost exceeds its budget or if it cannot be written as JSON without
    NaN. Returns (outcome, aggregates)."""
    document = json.loads(text)
    aggregates = document["aggregates"]
    aggregates_ok = _json_ok(aggregates)
    failures = []
    for batch in document["batches"]:
        extra = batch["predicted_b_ms"] + batch["predicted_re_ms"]
        reasons = []
        if not (aggregates_ok and _json_ok(batch)):
            reasons.append("nan")
        if extra > batch["budget_ms"]:
            reasons.append("budget")
        if reasons:
            failures.append({"op": label, "batch": batch["index"], "reasons": reasons})
    return OpOutcome(len(document["batches"]), len(failures), failures), aggregates


class EpisodeWorkload:
    """Shared loop of the two episode workloads: one operation is one
    episode's batches, with its full-update replay and its report."""

    episodic = True
    quality_episodes = 0  # episodes whose simulated statistics are averaged
    decide_share = 0.0  # share of the measured time spent replaying decisions

    def scenario_seed(self, k: int) -> int:
        return self.base_seed + k

    def check(self, k: int, text: str):
        outcome, aggregates = check_report(text, f"seed {self.scenario_seed(k)}")
        if k < self.quality_episodes and len(self.quality) < self.quality_episodes:
            self.quality.append(
                (
                    aggregates["speedup_vs_full"],
                    aggregates["mean_capture_ratio"],
                    aggregates["mean_rel_error"],
                )
            )
        return outcome

    def raised(self, k: int) -> OpOutcome:
        record = {"op": f"seed {self.scenario_seed(k)}", "error": traceback.format_exc()}
        return OpOutcome(self.batches, self.batches, [record])

    def quality_metrics(self) -> dict[str, float]:
        speedup, capture, rel_error = (
            sum(column) / len(column) for column in zip(*self.quality)
        )
        return {"speedup_vs_full": speedup, "capture_ratio": capture, "rel_error": rel_error}


class Drift24(EpisodeWorkload):
    name = "drift24"
    quality_episodes = 8
    decide_share = 0.3

    def setup(self, seed, workdir):
        fixtures = presets.write_fixture_tree(Path(workdir) / "fixtures")
        self.scenario_path = fixtures["scenario_drift.json"]
        self.report_path = str(Path(workdir) / "report.json")
        self.csv_path = str(Path(workdir) / "report.csv")
        self.base_seed = seed * 1000
        self.quality = []
        with open(self.scenario_path) as fh:
            self.batches = json.load(fh)["batches"]

    def record(self):
        scenario = dataclasses.replace(
            pipeline.load_scenario_file(self.scenario_path), seed=self.scenario_seed(0)
        )
        report, decisions = record_episode(lambda: pipeline.run_episode(scenario))
        return pipeline.report_json(report), decisions

    def run_op(self, k):
        argv = [
            "simulate", self.scenario_path,
            "--out", self.report_path,
            "--csv", self.csv_path,
            "--seed", str(self.scenario_seed(k)),
        ]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ttasched simulate exited with {code}")

    def output(self, k, _):
        return Path(self.report_path).read_text()


def deep96_trace(rng: np.random.Generator, device, horizon_ms: float):
    """A time-varying state log at a fixed 8 ms interval over the whole
    episode: contention 0..3, a DVFS temperature and a cache-hit rate in
    [0.3, 1] per record."""
    temps = [t for t, _ in device.dvfs]
    count = int(horizon_ms // 8.0) + 1
    n = rng.integers(0, 4, count)
    tem = rng.integers(0, len(temps), count)
    phi = rng.uniform(0.3, 1.0, count)
    records = tuple(
        (8.0 * i, SystemState(n=int(n[i]), tem_on=temps[tem[i]], phi=float(phi[i])))
        for i in range(count)
    )
    return StateTrace(records=records, horizon_ms=8.0 * (count - 1))


class Deep96(EpisodeWorkload):
    name = "deep96"
    quality_episodes = 4
    # a decision costs ~0.085 s on the reference host, so 110 of them need
    # ~10 s; half the run leaves room for several episodes beside them
    decide_share = 0.5
    n_layers = 96
    batches = 16

    def setup(self, seed, workdir):
        network = presets.synthetic_network(self.n_layers)
        device = presets.demo_edge_device()
        offline = presets.offline_from_costs(network, device)
        rng = np.random.default_rng(seed)
        # a sequential batch finishes within one full update under the
        # slowest state (plus jitter) after it starts, so this horizon
        # covers the episode and its full-update replay
        worst = latency.build_profile(
            network, offline, device, SystemState(n=3, tem_on=device.dvfs[-1][0], phi=0.3)
        )
        t_f = float(np.sum(offline.t_f))
        horizon = self.batches * (t_f + 1.1 * worst.t_total)
        n = self.n_layers
        environment = pipeline.EnvironmentSpec(
            channels=tuple(layer.channels for layer in network.layers),
            positions=(4,) * n,
            base_means=tuple(np.zeros(layer.channels) for layer in network.layers),
            base_vars=tuple(np.ones(layer.channels) for layer in network.layers),
            shifts=(
                pipeline.Shift(
                    batch_index=3,
                    layers=tuple(range(n // 2, n, 5)),
                    mean_offset_sigmas=2.0,
                ),
            ),
            batch_size=8,
        )
        self.scenario = pipeline.Scenario(
            name="deep96",
            mode="sequential",
            seed=0,
            batches=self.batches,
            environment=environment,
            network=network,
            offline=offline,
            device=device,
            trace=deep96_trace(rng, device, horizon),
            sigma=0.6,
            adaptation_gain=0.5,
            jitter_eps=0.02,
        )
        self.report_path = Path(workdir) / "report.json"
        self.base_seed = seed * 1000
        self.quality = []

    def _episode(self, k):
        return dataclasses.replace(self.scenario, seed=self.scenario_seed(k))

    def record(self):
        report, decisions = record_episode(lambda: pipeline.run_episode(self._episode(0)))
        return pipeline.report_json(report), decisions

    def run_op(self, k):
        text = pipeline.report_json(pipeline.run_episode(self._episode(k)))
        self.report_path.write_text(text)
        return text

    def output(self, k, text):
        return text


# --- oracle certification -----------------------------------------------------


def _closed_form_extra(profile, selected) -> float:
    if not selected:
        return 0.0
    d = selected[-1]
    t_dw = 0.0
    for b in selected:
        t_dw += float(profile.t_dw[b])
    return t_dw + float(profile.cum_dx[d - 1]) + float(profile.cum_re[d])


def float_instance(rng: np.random.Generator, n: int, selectable_count: int) -> dict:
    """A scheduling instance with un-snapped float costs whose budget is the
    closed-form cost of a randomly drawn strategy, so the optimum often sits
    exactly on the budget."""
    selectable = np.zeros(n, dtype=bool)
    selectable[rng.choice(n, size=selectable_count, replace=False)] = True
    pad = lambda arr: np.concatenate(([0.0], arr))
    t_dw = rng.uniform(0.05, 2.0, n)
    t_dw[~selectable] = 0.0
    t_dx = rng.uniform(0.05, 2.0, n)
    t_re = rng.uniform(0.05, 2.0, n)
    t_f = rng.uniform(0.05, 1.0, n)
    a = rng.uniform(0.0, 10.0, n)
    a[~selectable] = 0.0
    profile = LatencyProfile.from_components(
        t_f=pad(t_f),
        t_dw=pad(t_dw),
        t_dx=pad(t_dx),
        t_re=pad(t_re),
        selectable=np.concatenate(([False], selectable)),
    )
    candidates = [b for b in range(1, n + 1) if profile.selectable[b]]
    pick = rng.random(len(candidates)) < 0.5
    chosen = tuple(b for b, keep in zip(candidates, pick) if keep) or (candidates[0],)
    sigma = (_closed_form_extra(profile, chosen) + profile.t_f_total) / profile.t_total
    return {"importance": ImportanceVector(a=pad(a)), "profile": profile, "sigma": min(sigma, 1.0)}


def selectable_quantiles(n: int, count: int, p: float = 0.85) -> list[int]:
    """``count`` selectable-layer counts at the mid-quantiles of
    Binomial(n, p), at least 1 (``random_instance`` forces one)."""
    cdf = []
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        cdf.append(total)
    return [
        max(1, next((k for k, c in enumerate(cdf) if c >= (j + 0.5) / count), n))
        for j in range(count)
    ]


def oracle_failures(dp, bf) -> list[str]:
    """Why a certified instance fails: the search disagrees with the oracle
    on the selection or its gain, or its own choice overruns the budget."""
    reasons = []
    if (
        dp.strategy.selected != bf.strategy.selected
        or dp.achieved_importance != bf.achieved_importance
    ):
        reasons.append("mismatch")
    if dp.predicted_extra.t_total_extra > dp.budget_ms:
        reasons.append("violation")
    return reasons


class Oracle14:
    name = "oracle14"
    episodic = False
    sizes = tuple(range(4, 15))
    per_size = 24  # instances of each layer count in each half

    @property
    def pool_size(self) -> int:
        return 2 * self.per_size * len(self.sizes)

    def setup(self, seed, workdir):
        # brute_force enumerates 2^(selectable layers), so the pool is
        # stratified: each half holds every layer count equally often, with
        # selectable counts at fixed quantiles of random_instance's own
        # Binomial(n, 0.85). The pool's cost mix then barely depends on the
        # seed; the costs, importances and budgets still do. A dyadic slot
        # takes the closest of a fixed number of random_instance draws, so
        # set-up does the same work for every seed. Each round covers every
        # layer count and the quantiles are visited in a stride (7 is
        # coprime to per_size), so any prefix has about the same mix.
        rng = np.random.default_rng(seed)
        rounds = {n: [] for n in self.sizes}
        for n in self.sizes:
            draws = [scheduler.random_instance(rng, n_min=n, n_max=n) for _ in range(3 * self.per_size)]
            targets = selectable_quantiles(n, self.per_size)
            for j in range(self.per_size):
                s = targets[(7 * j) % self.per_size]
                pick = min(
                    range(len(draws)),
                    key=lambda i: abs(int(draws[i]["profile"].selectable.sum()) - s),
                )
                rounds[n].append((draws.pop(pick), float_instance(rng, n, s)))
        self.pool = [
            item
            for j in range(self.per_size)
            for n in self.sizes
            for item in (("dyadic", rounds[n][j][0]), ("float", rounds[n][j][1]))
        ]
        self.decide_ns: list[int] = []
        self.quality = []
        self.tally = {f"{r}.{k}": 0 for r in ("mismatches", "violations") for k in ("dyadic", "float")}
        self.reported: set[int] = set()
        self.first_pass: dict[int, tuple] = {}
        self.repeatable = True  # a re-run instance gives its first result

    def run_op(self, k):
        _, instance = self.pool[k % self.pool_size]
        config = SchedulerConfig(sigma=instance["sigma"])
        start = time.perf_counter_ns()
        dp = scheduler.solve_dp(instance["importance"], instance["profile"], config)
        self.decide_ns.append(time.perf_counter_ns() - start)
        bf = scheduler.brute_force(instance["importance"], instance["profile"], dp.budget_ms)
        return dp, bf

    def output(self, k, result):
        return result

    def check(self, k, result):
        dp, bf = result
        index = k % self.pool_size
        kind, instance = self.pool[index]
        if k < self.pool_size and len(self.quality) < self.pool_size:
            profile = instance["profile"]
            total = instance["importance"].total
            full = tuple(b for b in range(1, profile.n_layers + 1) if profile.selectable[b])
            self.quality.append(
                (
                    (profile.t_f_total + _closed_form_extra(profile, full))
                    / (profile.t_f_total + dp.predicted_extra.t_total_extra),
                    dp.achieved_importance / total if total > 0 else 1.0,
                )
            )
        answer = (dp.strategy.selected, dp.achieved_importance, bf.strategy.selected)
        if self.first_pass.setdefault(index, answer) != answer:
            self.repeatable = False
        reasons = oracle_failures(dp, bf)
        # The search decides feasibility on chained delta_t sums while the
        # oracle uses the closed form, so off the dyadic grid the two can
        # round apart (the open float defect of ROADMAP.md). Those failures
        # are counted and recorded as ``known``; every other one gates.
        known = bool(reasons) and kind == "float"
        failures = []
        if reasons:
            for reason in reasons:
                key = "mismatches" if reason == "mismatch" else "violations"
                self.tally[f"{key}.{kind}"] += 1
            if index not in self.reported:
                self.reported.add(index)
                failures.append(
                    {
                        "op": f"instance {index}",
                        "kind": kind,
                        "known_defect": known,
                        "reasons": reasons,
                        "instance": scheduler.instance_to_document(instance),
                        "dp": dp.to_document(),
                        "oracle": bf.to_document(),
                    }
                )
        return OpOutcome(1, int(bool(reasons) and not known), failures, int(known))

    def raised(self, k):
        record = {"op": f"instance {k % self.pool_size}", "error": traceback.format_exc()}
        return OpOutcome(1, 1, [record])

    def quality_metrics(self):
        speedup, capture = (sum(column) / len(column) for column in zip(*self.quality))
        return {"speedup_vs_full": speedup, "capture_ratio": capture}


WORKLOADS = {w.name: w for w in (Drift24, Deep96, Oracle14)}
