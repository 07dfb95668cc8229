"""The episode report's JSON and CSV writers.

``report_json`` writes the report's text field by field. The reference is
the document path it replaced: the report as nested dicts and lists,
serialized by ``json_text`` (the stdlib encoder, indent 2, sorted keys,
``allow_nan=False``). The two must agree byte for byte, and both must refuse
NaN and infinities. ``report_csv`` must agree with ``csv.writer`` over the
records' rows, which writes NaN and infinities, and ``report_texts`` with
the two writers.
"""

import builtins
import csv
import dataclasses
import io
import math

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from ttasched.errors import json_text
from ttasched.pipeline import (
    BatchRecord,
    EpisodeAggregates,
    EpisodeReport,
    report_csv,
    report_json,
    report_texts,
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


def reference_row(rec: BatchRecord) -> list:
    row = []
    for name, value in rec.__dict__.items():
        if name == "selected":
            row.append("|".join(str(b) for b in value))
        elif isinstance(value, bool):
            row.append(int(value))
        else:
            row.append(value)
    return row


def reference_report_csv(report: EpisodeReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(BatchRecord.__dataclass_fields__))
    writer.writerows(reference_row(rec) for rec in report.records)
    return buf.getvalue()


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1e16)

finite = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),  # an integer in a float field is written as one
)
selection = st.lists(st.integers(1, 10**6), max_size=24).map(tuple)


# a float field may also be NaN or infinite: CSV writes it, JSON cannot
NON_FINITE = (math.nan, math.inf, -math.inf)
any_float = st.one_of(finite, st.sampled_from(NON_FINITE))


def _field_values(cls, floats=finite):
    kinds = {
        "int": st.integers(-(2**70), 2**70),
        "float": floats,
        "bool": st.booleans(),
        "tuple[int, ...]": selection,
    }
    return {f.name: kinds[f.type] for f in dataclasses.fields(cls)}


def _reports(floats):
    return st.builds(
        EpisodeReport,
        scenario=st.text(),
        mode=st.text(),
        seed=st.integers(0, 2**64),
        records=st.lists(
            st.builds(BatchRecord, **_field_values(BatchRecord, floats)), max_size=4
        ).map(tuple),
        aggregates=st.builds(EpisodeAggregates, **_field_values(EpisodeAggregates, floats)),
    )


reports = _reports(finite)


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


@example(report=EDGE_REPORT)
@example(report=_report([]))
@given(report=_reports(any_float))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_csv_matches_the_csv_writer_byte_for_byte(report):
    table = report_csv(report)
    assert table == reference_report_csv(report)
    try:
        want = reference_report_json(report)
    except ValueError as exc:
        assert "not JSON compliant" in str(exc)
        for write in (report_json, report_texts):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write(report)
    else:
        assert report_texts(report) == (report_json(report), table) == (want, table)


def test_csv_writes_non_finite_floats():
    report = _report([_record(rel_error=math.nan, r=math.inf, loss_after=-math.inf)])
    line = report_csv(report).splitlines()[1].split(",")
    columns = list(BatchRecord.__dataclass_fields__)
    assert [line[columns.index(name)] for name in ("rel_error", "r", "loss_after")] == [
        "nan", "inf", "-inf"
    ]


def test_other_value_types_take_the_field_by_field_path():
    # numpy floats and a selection held as a list are written as their
    # references write them; a string only the CSV writes, as the field by
    # field JSON writer always refused it
    record = _record(
        index=1, sigma=np.float64(0.25), budget_ms=np.float64(1e300), selected=[2, 5]
    )
    report = _report([_record(), record])
    assert report_json(report) == reference_report_json(report)
    assert report_csv(report) == reference_report_csv(report)
    assert report_texts(report) == (report_json(report), report_csv(report))
    named = _report([_record(loss_before='a "quoted", name')])
    assert report_csv(named) == reference_report_csv(named)
    assert '"a ""quoted"", name"' in report_csv(named)
    with pytest.raises(TypeError, match="not JSON serializable"):
        report_json(named)


def test_writer_matches_on_a_simulated_episode():
    report = run_episode(drift_scenario())
    assert report_json(report) == reference_report_json(report)
    assert report_texts(report) == (report_json(report), reference_report_csv(report))


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
