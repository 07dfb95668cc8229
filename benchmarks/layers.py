"""Per-layer metrics from the traced pass.

Times and counts are per operation (one simulated batch on the episode
workloads, one certified instance on ``oracle14``), so runs of different
length compare. A layer the workload never calls reports 0.
"""

from __future__ import annotations

from sweep import SIGMAS, SIZES

# the executor's per-layer physics, as pipeline imports it
LAYER_MODEL = (
    "latency.expansion_factors",
    "latency.eta",
    "latency.predict_layer_latency",
    "latency.split_backward",
)
LOADERS = (
    "pipeline.load_scenario_file",
    "network.load_network_file",
    "latency.load_offline_profile_file",
    "latency.load_device_file",
    "latency.load_trace_file",
)
# spans that only orchestrate other layers; their own time is unattributed
ORCHESTRATORS = ("bench.op", "cli.main", "pipeline.run_episode")


def layer_metrics(wl, tracer, setup_tracer, tally, overhead: float, sweep: dict) -> dict:
    totals = tracer.totals()
    counters = tracer.counters
    ops = tally.completed

    def calls(name):
        return totals.get(name, (0, 0, 0))[0] / ops

    def self_ms(*names):
        return sum(totals.get(name, (0, 0, 0))[2] for name in names) / 1e6 / ops

    def counter(key):
        return counters.get(key, 0) / ops

    op_ns = totals["bench.op"][1]
    unattributed = sum(totals.get(name, (0, 0, 0))[2] for name in ORCHESTRATORS)
    budgeted = counters.get("scheduler.solve_dp.budgeted", 0)
    setup_totals = setup_tracer.totals()
    m = {
        "pipeline.generate_batch.calls": (calls("pipeline.generate_batch"), "calls/op"),
        "pipeline.generate_batch.self_ms": (self_ms("pipeline.generate_batch"), "ms/op"),
        "pipeline.generate_batch.share": (
            totals.get("pipeline.generate_batch", (0, 0, 0))[2] / op_ns,
            "ratio",
        ),
        "pipeline.execute_ground_truth.calls": (calls("pipeline.execute_ground_truth"), "calls/op"),
        "pipeline.execute_ground_truth.self_ms": (self_ms("pipeline.execute_ground_truth"), "ms/op"),
        "pipeline.execute_ground_truth.layer_runs": (
            counter("pipeline.execute_ground_truth.layer_runs"),
            "runs/op",
        ),
        "pipeline.replay_full.self_ms": (self_ms("pipeline.replay_full"), "ms/op"),
        "pipeline.run_episode.self_ms": (self_ms("pipeline.run_episode"), "ms/op"),
        "pipeline.report.self_ms": (self_ms("pipeline.report_json", "pipeline.report_csv"), "ms/op"),
        "pipeline.report.bytes": (
            counter("pipeline.report_json.bytes") + counter("pipeline.report_csv.bytes"),
            "bytes/op",
        ),
        "latency.StateTrace.state_at.calls": (calls("latency.StateTrace.state_at"), "calls/op"),
        "latency.StateTrace.state_at.self_ms": (self_ms("latency.StateTrace.state_at"), "ms/op"),
        "latency.build_profile.calls": (calls("latency.build_profile"), "calls/op"),
        "latency.build_profile.self_ms": (self_ms("latency.build_profile"), "ms/op"),
        "latency.layer_model.self_ms": (self_ms(*LAYER_MODEL), "ms/op"),
        "latency.rel_error": (wl.quality_metrics().get("rel_error", 0.0), "ratio"),
        "importance.assess.calls": (calls("importance.assess"), "calls/op"),
        "importance.assess.self_ms": (self_ms("importance.assess"), "ms/op"),
        "importance.update_history.self_ms": (self_ms("importance.update_history"), "ms/op"),
        "importance.adaptation_loss.self_ms": (self_ms("importance.adaptation_loss"), "ms/op"),
        "scheduler.solve_dp.calls": (calls("scheduler.solve_dp"), "calls/op"),
        "scheduler.solve_dp.self_ms": (self_ms("scheduler.solve_dp"), "ms/op"),
        "scheduler.solve_dp.explored": (counter("scheduler.solve_dp.explored"), "chains/op"),
        "scheduler.solve_dp.pruned": (counter("scheduler.solve_dp.pruned"), "chains/op"),
        "scheduler.solve_dp.slack_share": (
            counters.get("scheduler.solve_dp.slack_sum", 0.0) / budgeted if budgeted else 0.0,
            "ratio",
        ),
        "scheduler.brute_force.calls": (calls("scheduler.brute_force"), "calls/op"),
        "scheduler.brute_force.self_ms": (self_ms("scheduler.brute_force"), "ms/op"),
        "scheduler.brute_force.explored": (counter("scheduler.brute_force.explored"), "subsets/op"),
    }
    tally_counts = getattr(wl, "tally", {})
    for kind in ("mismatches", "violations"):
        for half in ("dyadic", "float"):
            key = f"{kind}.{half}"
            m[f"scheduler.oracle.{key}"] = (tally_counts.get(key, 0), "count")
    m["cli.load.self_ms"] = (self_ms(*LOADERS), "ms/op")
    m["network.load.self_ms"] = (self_ms("network.load_network_file"), "ms/op")
    m["presets.build.self_ms"] = (
        sum(
            row[2]
            for name, row in setup_totals.items()
            if name.startswith("presets.") or name == "scheduler.random_instance"
        )
        / 1e6,
        "ms",
    )
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.coverage"] = (1.0 - unattributed / op_ns, "ratio")
    for n in SIZES:
        for sigma in SIGMAS:
            case = f"n{n}_sigma{sigma}"
            row = sweep[case]
            m[f"scheduler.sweep.{case}.ms"] = (row["ms"], "ms")
            m[f"scheduler.sweep.{case}.explored"] = (row["explored"], "chains")
            m[f"scheduler.sweep.{case}.timed_out"] = (row["timed_out"], "count")
    return m
