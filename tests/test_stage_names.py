"""The stage names an episode calls.

``run_episode`` calls its stages through the names ``pipeline`` imports or
defines, and ``simulate`` formats its JSON and CSV reports through the one
name ``cli`` imports, ``report_texts``. The benchmark's decision recorder
(``benchmarks/workloads.py``) and its tracer (``benchmarks/tracing.py``)
replace exactly these names, so counting wrappers on them must see every
call, in this order. The tracer also counts the trace reads through
``StateTrace.state_at`` and the layer runs in the executor's four phase
arrays. Each batch is sampled once, as the embedding it is scored by, and
scored once: ``assess`` returns the loss before the update from the
divergences it scored. The assessment's op count is priced once per
episode.
"""

import dataclasses

import numpy as np
import pytest

from ttasched import cli, importance, latency, pipeline
from ttasched.presets import drift_scenario

from support import cycling_trace

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
    # batch 0 seeds the history and is assessed against it like every later
    # batch; on the one-record trace the full-update replay is one array
    # block, with no executor call
    assert calls == list(STAGES) * scenario.batches


def test_each_batch_is_embedded_once_and_scored_once(monkeypatch):
    # one sampled embedding per batch; one divergence pass per batch in
    # assess, which also gives the loss before the update, and one for the
    # loss after it; one op count for the episode
    scenario = drift_scenario()
    calls = []
    _count(monkeypatch, importance, ("layer_divergences",), calls)
    _count(monkeypatch, pipeline, ("generate_batch", "assessment_flops"), calls)
    pipeline.run_episode(scenario)
    assert scenario.batches == 24
    assert calls.count("generate_batch") == scenario.batches == 24
    assert calls.count("layer_divergences") == 2 * scenario.batches == 48
    assert calls.count("assessment_flops") == 1


def test_trace_is_read_only_through_state_at(monkeypatch):
    # on the drift scenario's one-record trace, each batch reads its state
    # once to decide and once in its executor call, and the full-update
    # replay reads it once, at its first batch's start
    scenario = drift_scenario()
    calls = []
    _count(monkeypatch, pipeline, ("execute_ground_truth",), calls)
    _count(monkeypatch, latency.StateTrace, ("state_at",), calls)
    pipeline.run_episode(scenario)
    assert scenario.batches == 24
    assert calls.count("state_at") == 2 * scenario.batches + 1 == 49
    assert calls.count("execute_ground_truth") == scenario.batches
    # every executor call reads the trace exactly once, before its first run
    executor_reads = [
        later for earlier, later in zip(calls, calls[1:])
        if earlier == "execute_ground_truth"
    ]
    assert executor_reads == ["state_at"] * scenario.batches
    # the last batch's executor call and its read, then the replay's read
    assert calls[-3:] == ["execute_ground_truth", "state_at", "state_at"]


def _layer_runs(result) -> int:
    phases = (result.f_exec, result.dw_exec, result.dx_exec, result.re_exec)
    return sum(int((phase != 0).sum()) for phase in phases)


def _keeping(monkeypatch) -> list:
    """The ``(start, result)`` of every executor call, in call order."""
    results = []
    execute = pipeline.execute_ground_truth

    def keeping(*args, **kwargs):
        results.append((kwargs["t_start_ms"], execute(*args, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(pipeline, "execute_ground_truth", keeping)
    return results


def test_execution_result_keeps_its_phase_arrays(monkeypatch):
    # the tracer counts layer runs from these four arrays
    scenario = drift_scenario()
    results = _keeping(monkeypatch)
    pipeline.run_episode(scenario)
    n = scenario.network.n_layers
    for _, result in results:
        for phase in (result.f_exec, result.dw_exec, result.dx_exec, result.re_exec):
            assert isinstance(phase, np.ndarray) and phase.shape == (n + 1,)
    # every call runs the whole forward pass
    assert len(results) == scenario.batches
    assert min(_layer_runs(result) for _, result in results) >= n


@pytest.mark.parametrize("until_ms", [5000.0, 1500.0])
def test_replay_executes_each_batch_with_a_record_ahead(monkeypatch, until_ms):
    # the full-update replay calls the executor once per batch whose start
    # has a trace record ahead, and from the first batch with none ahead
    # runs the rest as a block; its 24 batches end near 3.5 s under this
    # trace, so records up to 5 s cover every batch, and a last record at
    # 1.5 s falls mid-replay
    base = drift_scenario()
    scenario = dataclasses.replace(base, trace=cycling_trace(base, until_ms))
    last_record = scenario.trace.records[-1][0]
    results = _keeping(monkeypatch)
    pipeline.run_episode(scenario)
    batches, n = scenario.batches, scenario.network.n_layers
    replay = results[batches:]
    assert [start for start, _ in replay] == sorted(start for start, _ in replay)
    assert all(start < last_record for start, _ in replay)
    # every replayed batch updates every layer
    assert all(_layer_runs(result) > 2 * n for _, result in replay)
    k = len(replay)
    if until_ms > 4000.0:
        assert k == batches
    else:
        assert 0 < k < batches
        inter = float(np.sum(scenario.offline.t_f))
        assert max(k * inter, replay[-1][1].finish_ms) >= last_record


def test_simulate_formats_its_reports_in_one_call(monkeypatch, fixtures_dir, tmp_path):
    calls = []
    _count(monkeypatch, cli, ("report_texts",), calls)
    scenario = str(fixtures_dir / "scenario_drift.json")
    out = ["--out", str(tmp_path / "report.json")]
    assert cli.main(["simulate", scenario, *out, "--csv", str(tmp_path / "report.csv")]) == 0
    assert calls == ["report_texts"]
    assert cli.main(["simulate", scenario, *out]) == 0
    assert calls == ["report_texts"] * 2
    assert not hasattr(cli, "report_json") and not hasattr(cli, "report_csv")
