"""The stage names an episode calls.

``run_episode`` calls its stages through the names ``pipeline`` imports or
defines, and ``simulate`` calls the report writers through the names ``cli``
imports. The benchmark's decision recorder (``benchmarks/workloads.py``) and
its tracer (``benchmarks/tracing.py``) replace exactly these names, so
counting wrappers on them must see every call, in this order. The tracer
also counts the trace reads through ``StateTrace.state_at`` and the layer
runs in the executor's four phase arrays.
"""

import numpy as np

from ttasched import cli, latency, pipeline
from ttasched.presets import drift_scenario

STAGES = ("generate_batch", "assess", "build_profile", "solve_dp", "execute_ground_truth")


def _count(monkeypatch, module, names, calls):
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def test_run_episode_calls_each_stage_by_its_pipeline_name(monkeypatch):
    scenario = drift_scenario()
    calls = []
    _count(monkeypatch, pipeline, STAGES, calls)
    pipeline.run_episode(scenario)
    # batch 0 seeds the history and is not assessed; every batch then
    # decides and executes; the full-update replay executes once per batch
    first = ["generate_batch", "build_profile", "solve_dp", "execute_ground_truth"]
    later = ["generate_batch", "assess", "build_profile", "solve_dp", "execute_ground_truth"]
    batches = scenario.batches
    expected = first + later * (batches - 1) + ["execute_ground_truth"] * batches
    assert calls == expected


def test_trace_is_read_only_through_state_at(monkeypatch):
    # on the drift scenario's one-record trace, each batch reads its state
    # once to decide and once in each of its two executor calls
    scenario = drift_scenario()
    calls = []
    _count(monkeypatch, pipeline, ("execute_ground_truth",), calls)
    _count(monkeypatch, latency.StateTrace, ("state_at",), calls)
    pipeline.run_episode(scenario)
    assert scenario.batches == 24
    assert calls.count("state_at") == 3 * scenario.batches == 72
    # every executor call reads the trace exactly once, before its first run
    executor_reads = [
        later for earlier, later in zip(calls, calls[1:])
        if earlier == "execute_ground_truth"
    ]
    assert executor_reads == ["state_at"] * (2 * scenario.batches)


def test_execution_result_keeps_its_phase_arrays(monkeypatch):
    # the tracer counts layer runs from these four arrays
    scenario = drift_scenario()
    results = []
    execute = pipeline.execute_ground_truth

    def keeping(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pipeline, "execute_ground_truth", keeping)
    pipeline.run_episode(scenario)
    n = scenario.network.n_layers
    runs = []
    for result in results:
        phases = (result.f_exec, result.dw_exec, result.dx_exec, result.re_exec)
        for phase in phases:
            assert isinstance(phase, np.ndarray) and phase.shape == (n + 1,)
        runs.append(sum(int((phase != 0).sum()) for phase in phases))
    # every call runs the whole forward pass; the full-update replay also
    # runs every backward and reforward layer
    assert len(runs) == 2 * scenario.batches
    assert min(runs) >= n and max(runs) > 2 * n


def test_simulate_writes_each_report_once(monkeypatch, fixtures_dir, tmp_path):
    calls = []
    _count(monkeypatch, cli, ("report_json", "report_csv"), calls)
    rc = cli.main(
        ["simulate", str(fixtures_dir / "scenario_drift.json"),
         "--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "report.csv")]
    )
    assert rc == 0
    assert calls == ["report_json", "report_csv"]
