"""The episode report's JSON writer.

``report_json`` writes the report's text field by field. The reference is
the document path it replaced: the report as nested dicts and lists,
serialized by ``json_text`` (the stdlib encoder, indent 2, sorted keys,
``allow_nan=False``). The two must agree byte for byte, and both must refuse
NaN and infinities.
"""

import builtins
import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ttasched.errors import json_text
from ttasched.pipeline import (
    BatchRecord,
    EpisodeAggregates,
    EpisodeReport,
    report_json,
    run_episode,
)
from ttasched.presets import drift_scenario

from support import calibrate_proc_overhead


def report_to_document(report: EpisodeReport) -> dict:
    return {
        "scenario": report.scenario,
        "mode": report.mode,
        "seed": report.seed,
        "aggregates": dict(report.aggregates.__dict__),
        "batches": [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in rec.__dict__.items()}
            for rec in report.records
        ],
    }


def reference_report_json(report: EpisodeReport) -> str:
    return json_text(report_to_document(report))


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1e16)

finite = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),  # an integer in a float field is written as one
)
selection = st.lists(st.integers(1, 10**6), max_size=24).map(tuple)


def _field_values(cls):
    kinds = {
        "int": st.integers(-(2**70), 2**70),
        "float": finite,
        "bool": st.booleans(),
        "tuple[int, ...]": selection,
    }
    return {f.name: kinds[f.type] for f in dataclasses.fields(cls)}


records = st.builds(BatchRecord, **_field_values(BatchRecord))
aggregates = st.builds(EpisodeAggregates, **_field_values(EpisodeAggregates))
reports = st.builds(
    EpisodeReport,
    scenario=st.text(),
    mode=st.text(),
    seed=st.integers(0, 2**64),
    records=st.lists(records, max_size=4).map(tuple),
    aggregates=aggregates,
)


def _record(**fields) -> BatchRecord:
    base = {f.name: 0.0 for f in dataclasses.fields(BatchRecord)}
    base.update(index=0, selected=(), deepest=0, staleness=0, budget_clipped=False)
    base.update(fields)
    return BatchRecord(**base)


def _report(records, name="drift", **aggregate_fields) -> EpisodeReport:
    agg = {f.name: 1.0 for f in dataclasses.fields(EpisodeAggregates)}
    agg.update(batches=len(records))
    agg.update(aggregate_fields)
    return EpisodeReport(
        scenario=name,
        mode="sequential",
        seed=7,
        records=tuple(records),
        aggregates=EpisodeAggregates(**agg),
    )


EDGE_REPORT = _report(
    [
        _record(wait_ms=-0.0, sigma=5e-324, budget_ms=1e300, selected=()),
        _record(index=1, selected=tuple(range(1, 25)), deepest=24, budget_clipped=True),
    ],
    name='a "quoted" name\\ with \t tab, \n newline, \x00 nul, é and \U0001f600',
)


@example(report=EDGE_REPORT)
@example(report=_report([]))
@given(report=reports)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_writer_matches_the_document_path_byte_for_byte(report):
    assert report_json(report) == reference_report_json(report)


def test_writer_matches_on_a_simulated_episode():
    report = run_episode(drift_scenario())
    assert report_json(report) == reference_report_json(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["record", "aggregates"])
def test_non_finite_field_raises_on_both_paths(bad, where):
    if where == "record":
        report = _report([_record(), _record(index=1, rel_error=bad)])
    else:
        report = _report([_record()], mean_r=bad)
    for write in (report_json, reference_report_json):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(report)


_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as Python 3.12 and later compute it for floats:
    Neumaier's compensated summation. Anything else adds plainly."""
    items = list(iterable)
    if not all(type(x) is float for x in items) or type(start) not in (int, float):
        return _builtin_sum(items, start)
    total, carry = float(start), 0.0
    for x in items:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total


def test_reports_do_not_depend_on_the_builtin_sum(monkeypatch):
    """Every float the library sums into a report, and the calibration fit,
    is added left to right, so the bytes are those of Python 3.11 on every
    version the package supports."""
    samples = [(1, 1e16 + 1.0), (1, 2.0), (1, 1.0 - 1e16)]
    expected = report_json(run_episode(drift_scenario())), calibrate_proc_overhead(samples)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([1e16, 1.0, -1e16]) == 1.0  # the patch does compensate
    got = report_json(run_episode(drift_scenario())), calibrate_proc_overhead(samples)
    assert got == expected
    assert expected[1] == 0.0  # (1e16 + 1.0) - 1e16, rounded left to right
