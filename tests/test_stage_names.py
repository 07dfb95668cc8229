"""The stage names an episode calls.

``run_episode`` calls its stages through the names ``pipeline`` imports or
defines, and ``simulate`` calls the report writers through the names ``cli``
imports. The benchmark's decision recorder (``benchmarks/workloads.py``) and
its tracer (``benchmarks/tracing.py``) replace exactly these names, so
counting wrappers on them must see every call, in this order.
"""

from ttasched import cli, pipeline
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


def test_simulate_writes_each_report_once(monkeypatch, fixtures_dir, tmp_path):
    calls = []
    _count(monkeypatch, cli, ("report_json", "report_csv"), calls)
    rc = cli.main(
        ["simulate", str(fixtures_dir / "scenario_drift.json"),
         "--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "report.csv")]
    )
    assert rc == 0
    assert calls == ["report_json", "report_csv"]
