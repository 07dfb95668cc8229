"""Fuzzed command-line inputs.

Whatever JSON stands in an input file of a subcommand, or in any field of
one, the command exits 0 or exits 2 with a one-line message: it never ends
in a traceback, and no output it writes holds NaN or an infinity. The cases
that once crashed or passed silently are pinned as examples.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ttasched.cli import main
from ttasched.latency import build_profile, profile_to_document
from ttasched.pipeline import (
    MAX_BATCHES,
    ModelResponseState,
    Scenario,
    Shift,
    gaussian_environment,
    generate_batch,
)
from ttasched.presets import (
    demo_edge_device,
    device_to_document,
    drift_scenario,
    network_to_document,
    offline_from_costs,
    offline_to_document,
    resource_conditions,
    scenario_to_document,
    static_trace,
    synthetic_network,
    trace_to_document,
)

from support import stats_to_lines

NAN, INF = math.nan, math.inf


def _valid_documents() -> dict:
    """One valid document per input file, on a four-layer chain so that a
    fuzzed episode stays cheap; JSON-lines files are lists of records."""
    network = synthetic_network(4)
    device = demo_edge_device()
    offline = offline_from_costs(network, device)
    env = gaussian_environment(
        network, shifts=(Shift(batch_index=1, layers=(0,), mean_offset_sigmas=2.0),),
        batch_size=2,
    )
    trace = static_trace(resource_conditions()["offline"])
    scenario = Scenario(
        name="fuzz", mode="sequential", seed=0, batches=3, environment=env,
        network=network, offline=offline, device=device, trace=trace,
    )
    model = ModelResponseState.from_environment(env)
    rng = np.random.default_rng(0)
    stats = [
        [json.loads(line) for line in stats_to_lines(batch, env.sample_counts).splitlines()]
        for batch in (generate_batch(env, model, i, rng) for i in (0, 1))
    ]
    profile = build_profile(network, offline, device, resource_conditions()["combined"])
    refs = {
        "network": "network.json",
        "offline_profile": "offline_profile.json",
        "device": "device.json",
        "state_trace": "trace.json",
    }
    return {
        "network.json": network_to_document(network),
        "offline_profile.json": offline_to_document(network, offline),
        "device.json": device_to_document(device),
        "trace.json": trace_to_document(trace),
        "scenario.json": scenario_to_document(scenario, refs),
        "history.jsonl": stats[0],
        "current.jsonl": stats[1],
        "importance.json": {"a": [1.0, 0.0, 2.0, 0.5]},
        "profile.json": profile_to_document(network, profile),
    }


DOCUMENTS = _valid_documents()

# per subcommand: its input files and its arguments, given the file paths
COMMANDS = {
    "assess": (
        ("history.jsonl", "current.jsonl", "network.json"),
        lambda p: ["assess", "--history", p["history.jsonl"], "--current",
                   p["current.jsonl"], "--network", p["network.json"]],
    ),
    "predict": (
        ("network.json", "offline_profile.json", "device.json", "trace.json"),
        lambda p: ["predict", "--network", p["network.json"], "--offline-profile",
                   p["offline_profile.json"], "--device", p["device.json"],
                   "--state-trace", p["trace.json"]],
    ),
    "schedule": (
        ("importance.json", "profile.json"),
        lambda p: ["schedule", "--importance", p["importance.json"], "--profile",
                   p["profile.json"], "--oracle"],
    ),
    "simulate": (
        ("scenario.json", "network.json", "offline_profile.json", "device.json",
         "trace.json"),
        lambda p: ["simulate", p["scenario.json"]],
    ),
}


def _paths(document, prefix=()):
    """Every path into ``document``, the empty one included."""
    yield prefix
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# small magnitudes only: a count in the millions is valid input that would
# make an episode allocate or run for long
numbers = st.one_of(
    st.integers(-3, 40),
    st.floats(-10.0, 100.0),
    st.sampled_from([NAN, INF, -INF, 0.5, 2.5, 1e300, 2**64]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
DELETE = "<delete the field>"


@st.composite
def cases(draw):
    """(subcommand, input file, path into its document, replacement): an
    empty path replaces the whole document, DELETE removes the field."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    name = draw(st.sampled_from(COMMANDS[command][0]))
    path = draw(st.sampled_from(list(_paths(DOCUMENTS[name]))))
    if path:
        value = draw(st.one_of(numbers, json_values, st.just(DELETE)))
    else:
        value = draw(json_values)
    return command, name, path, value


def _edited(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


def _reject_constant(token):
    raise AssertionError(f"output holds {token}")


def _run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # an exception here is the traceback this test forbids
    return rc, out.getvalue(), err.getvalue()


def _write_inputs(tmp, command, name=None, path=(), value=None) -> dict:
    """Write the valid input files of ``command``, the document of ``name``
    edited at ``path`` (see ``_edited``); return their paths by name."""
    paths = {}
    for file in COMMANDS[command][0]:
        document = DOCUMENTS[file]
        if file == name:
            document = _edited(document, path, value)
        if file.endswith(".jsonl") and isinstance(document, list):
            text = "".join(json.dumps(rec) + "\n" for rec in document)
        else:
            text = json.dumps(document)
        paths[file] = str(Path(tmp) / file)
        Path(paths[file]).write_text(text)
    return paths


def _run_edited(tmp, command, name, path, value) -> tuple[int, str]:
    """Run ``command`` on its input files as ``_write_inputs`` writes them;
    return its exit code and stderr. It must exit 0 with output free of NaN
    and infinities, or exit 2 with one ``error:`` line."""
    paths = _write_inputs(tmp, command, name, path, value)
    out = str(Path(tmp) / "out.json")
    rc, _, err = _run(COMMANDS[command][1](paths) + ["--out", out])
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        json.loads(Path(out).read_text(), parse_constant=_reject_constant)
    return rc, err


@example(case=("simulate", "scenario.json", ("environment", "shifts"), 5))
@example(
    case=(
        "simulate", "scenario.json", ("environment", "shifts"),
        [{"batch": 1, "layers": [2], "mean_offset_sigmas": 1e200}],
    )
)
@example(case=("simulate", "scenario.json", ("network",), 5))
@example(
    case=("simulate", "scenario.json", ("controller",), {"enabled": True, "window": 2.5})
)
@example(
    case=("simulate", "scenario.json", ("controller",), {"enabled": True, "target_r": "x"})
)
@example(case=("simulate", "scenario.json", ("batches",), 2**64))
@example(case=("simulate", "scenario.json", ("batch_size",), 2**64))
@example(case=("simulate", "scenario.json", ("environment", "positions", 2), 2**64))
@example(
    case=("simulate", "scenario.json", ("controller",), {"enabled": True, "window": 2**64})
)
@example(case=("simulate", "scenario.json", ("inter_batch_ms",), -5.0))
@example(case=("simulate", "scenario.json", ("inter_batch_ms",), INF))
@example(case=("simulate", "scenario.json", ("inter_batch_ms",), NAN))
@example(case=("predict", "network.json", ("layers",), 5))
@example(case=("predict", "network.json", ("layers", 0, "hyperparams"), [1]))
@example(case=("predict", "network.json", ("layers", 0, "mac_count"), "147456"))
@example(case=("predict", "device.json", ("peak_flops",), NAN))
@example(case=("predict", "device.json", ("tem_off",), NAN))
@example(case=("predict", "trace.json", ("records", 0, "t_ms"), NAN))
@given(case=cases())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_any_input_exits_0_or_2_without_nan_output(case):
    with tempfile.TemporaryDirectory() as tmp:
        _run_edited(tmp, *case)


@example(instances=1, max_n=2)
@given(instances=st.integers(-1, 3), max_n=st.integers(-3, 9))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_any_oracle_check_arguments_exit_0_or_2(instances, max_n):
    rc, _, err = _run(
        ["oracle-check", "--instances", str(instances), "--max-n", str(max_n)]
    )
    assert rc in (0, 2), err


# the valid scenario's positions are (256, 256, 1, 1) at batch size 2
@pytest.mark.parametrize(
    "path, value, named",
    [
        (("batches",), MAX_BATCHES + 1,
         f"batches must lie in 1..{MAX_BATCHES}, got {MAX_BATCHES + 1}"),
        (("batches",), 0, f"batches must lie in 1..{MAX_BATCHES}, got 0"),
        (("batch_size",), 2**45 + 1,
         f"layer 0: batch_size * positions = {(2**45 + 1) * 256} samples per channel "
         "exceeds 2**53"),
        (("environment", "positions"), [1, 1, 2**52 + 1, 1],
         f"layer 2: batch_size * positions = {2**53 + 2} samples per channel "
         "exceeds 2**53"),
    ],
    ids=["batches-above", "batches-zero", "batch-size", "positions"],
)
def test_counts_past_their_bounds_exit_2_naming_the_field(path, value, named, tmp_path):
    rc, err = _run_edited(tmp_path, "simulate", "scenario.json", path, value)
    assert (rc, err) == (2, f"error: {named}\n")


def test_counts_on_their_bounds_are_accepted(tmp_path):
    # 2**53 samples per channel on layers 0 and 1: the chi-square degrees of
    # freedom 2**53 - 1 are still an exact float
    rc, err = _run_edited(tmp_path, "simulate", "scenario.json", ("batch_size",), 2**45)
    assert rc == 0, err
    assert dataclasses.replace(drift_scenario(), batches=MAX_BATCHES).batches == MAX_BATCHES


def _with_repeated_first_layer(document):
    """The profile's layer records plus a second, different record for
    layer id 0."""
    layers = copy.deepcopy(document["layers"])
    layers.append(dict(layers[0], t_f_ms=2 * layers[0]["t_f_ms"]))
    return layers


@pytest.mark.parametrize(
    "command, name, path, value, named",
    [
        ("schedule", "profile.json", ("layers",),
         _with_repeated_first_layer(DOCUMENTS["profile.json"]),
         "runtime profile: duplicate layer 0"),
        ("predict", "offline_profile.json", ("layers",),
         _with_repeated_first_layer(DOCUMENTS["offline_profile.json"]),
         "offline profile: duplicate layer 0"),
        ("simulate", "scenario.json", ("environment", "shifts", 0, "layers"), [0, 2, 0],
         "shift names layer 0 more than once"),
    ],
    ids=["runtime-profile", "offline-profile", "shift"],
)
def test_repeated_layers_exit_2_naming_the_layer(
    command, name, path, value, named, tmp_path
):
    rc, err = _run_edited(tmp_path, command, name, path, value)
    assert (rc, err) == (2, f"error: {named}\n")


NOT_JSON = {
    "truncated": b'{"a": [1.0,',
    "empty": b"",
    "bad-utf8": b"\xff\xfe{}",
}


@pytest.mark.parametrize("content", sorted(NOT_JSON))
@pytest.mark.parametrize(
    "command, name",
    [
        ("schedule", "importance.json"),
        ("schedule", "profile.json"),
        ("predict", "network.json"),
        ("predict", "offline_profile.json"),
        ("predict", "device.json"),
        ("predict", "trace.json"),
        ("simulate", "scenario.json"),
        ("simulate", "network.json"),  # referenced by the scenario
        ("assess", "history.jsonl"),
        ("assess", "current.jsonl"),
    ],
)
def test_input_file_that_is_not_json_exits_2(command, name, content, tmp_path):
    paths = _write_inputs(tmp_path, command)
    Path(paths[name]).write_bytes(NOT_JSON[content])
    argv = COMMANDS[command][1](paths)
    rc, _, err = _run(argv + ["--out", str(tmp_path / "out.json")])
    if not name.endswith(".jsonl"):
        prefix = f"error: {paths[name]}: invalid JSON ("
    elif content == "empty":
        # a JSON-lines file of no lines holds no records
        prefix = f"error: {paths[name]}: stats file contains no records\n"
    else:
        # undecodable bytes read as U+FFFD, which is not JSON
        prefix = f"error: {paths[name]}: stats line 1: invalid JSON ("
    assert rc == 2, err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_bad_current_stats_file_names_the_current_path(tmp_path):
    # assess reads two stats files; the message names the one at fault
    paths = _write_inputs(tmp_path, "assess")
    Path(paths["current.jsonl"]).write_bytes(NOT_JSON["truncated"])
    rc, _, err = _run(COMMANDS["assess"][1](paths))
    assert rc == 2
    assert err.startswith(f"error: {paths['current.jsonl']}: stats line 1: "), err
    assert paths["history.jsonl"] not in err and err.count("\n") == 1, err
