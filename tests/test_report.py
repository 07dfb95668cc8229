"""The episode report's JSON and CSV writers.

``report_texts`` formats each number of the report once, for both texts.
The JSON's reference is the document path it replaced: the report as nested
dicts and lists, serialized by ``json_text`` (the stdlib encoder, indent 2,
sorted keys, ``allow_nan=False``). The two must agree byte for byte, and
both must refuse NaN and infinities. ``report_csv`` must agree with
``csv.writer`` over the records' rows, which writes NaN and infinities, and
``report_texts`` with the two writers. A float or int subclass is written as
``json`` writes it; any other value in a number field, a selection that is
not a tuple, or a flag that is not a bool, is ``json``'s TypeError from
every writer.
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
from ttasched.presets import controller_scenario, drift_scenario, zero_shift_scenario

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


def test_numpy_floats_are_written_as_floats():
    # a float subclass is written by ``float.__repr__``, as ``json`` writes
    # it; numpy's ``str``, which ``csv.writer`` takes, is the same text
    record = _record(index=1, sigma=np.float64(0.25), budget_ms=np.float64(1e300))
    report = _report([_record(), record], mean_r=np.float64(0.1))
    assert report_json(report) == reference_report_json(report)
    assert report_csv(report) == reference_report_csv(report)
    assert report_texts(report) == (report_json(report), report_csv(report))


@pytest.mark.parametrize(
    "fields",
    [
        {"selected": [2, 5]},
        {"loss_before": 'a "quoted", name'},
        {"budget_clipped": 1},
        {"budget_clipped": np.True_},
    ],
    ids=["list-selection", "string", "int-flag", "numpy-bool-flag"],
)
def test_other_value_types_are_a_type_error_from_every_writer(fields):
    report = _report([_record(), _record(index=1, **fields)])
    for write in (report_json, report_csv, report_texts):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write(report)


_DECLARED = {"int": int, "float": float, "bool": bool}


def test_episodes_hold_exactly_their_declared_types():
    """``run_episode`` gives every record and aggregate field exactly its
    declared type, so each number of a bundled episode's report takes the
    ``repr`` table; a scenario holding numpy numbers takes the subclass
    fallback and writes the same bytes as one holding Python numbers."""
    for make in (drift_scenario, zero_shift_scenario, controller_scenario):
        for mode in ("sequential", "parallel"):
            report = run_episode(dataclasses.replace(make(), mode=mode))
            assert type(report.seed) is int
            for obj in report.records + (report.aggregates,):
                for field in dataclasses.fields(obj):
                    value = getattr(obj, field.name)
                    if field.type == "tuple[int, ...]":
                        assert type(value) is tuple, field.name
                        assert all(type(b) is int for b in value), field.name
                    else:
                        assert type(value) is _DECLARED[field.type], (field.name, value)
    base = controller_scenario()
    texts = report_texts(run_episode(base))
    for numpy_fields in (
        {"sigma": np.float64(base.sigma), "inter_batch_ms": np.float64(base.inter_batch_ms)},
        {"batches": np.int64(base.batches)},
    ):
        assert report_texts(run_episode(dataclasses.replace(base, **numpy_fields))) == texts


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
