import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ttasched.cli import build_parser, main
from ttasched.presets import uniform_profile, worked_instance
from ttasched.latency import profile_to_document


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(
            ["assess", "--history", "h.jsonl", "--current", "c.jsonl"]
        )
        assert args.command == "assess"
        args = parser.parse_args(["oracle-check", "--instances", "7"])
        assert args.command == "oracle-check"
        assert args.instances == 7
        assert args.seed == 0

    def test_schedule_defaults_mirror_shipped_configuration(self):
        args = build_parser().parse_args(
            ["schedule", "--importance", "a.json", "--profile", "p.json"]
        )
        assert args.sigma == 0.33
        assert not args.oracle


class TestAssessCommand:
    def test_identical_files_give_zero_vector(self, fixtures_dir, tmp_path, capsys):
        history = fixtures_dir / "stats_history.jsonl"
        out = tmp_path / "imp.json"
        rc = main(
            ["assess", "--history", str(history), "--current", str(history),
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["a"] == [0.0] * 10

    def test_shifted_fixture_ranks_layers_3_and_7(self, fixtures_dir, tmp_path):
        out = tmp_path / "imp.json"
        rc = main(
            ["assess",
             "--history", str(fixtures_dir / "stats_history.jsonl"),
             "--current", str(fixtures_dir / "stats_current.jsonl"),
             "--network", str(fixtures_dir / "network_recovery10.json"),
             "--out", str(out)]
        )
        assert rc == 0
        a = json.loads(out.read_text())["a"]  # backward order
        order = np.argsort(a)[::-1] + 1
        top_forward = {10 - int(b) for b in order[:2]}
        assert top_forward == {3, 7}

    def test_layer_count_mismatch_exits_2(self, fixtures_dir, tmp_path, capsys):
        clipped = tmp_path / "short.jsonl"
        lines = (fixtures_dir / "stats_current.jsonl").read_text().splitlines()
        clipped.write_text("\n".join(lines[:7]) + "\n")
        rc = main(
            ["assess",
             "--history", str(fixtures_dir / "stats_history.jsonl"),
             "--current", str(clipped), "--out", "-"]
        )
        assert rc == 2
        assert "layer 7" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(
            ["assess", "--history", str(tmp_path / "nope.jsonl"),
             "--current", str(tmp_path / "nope.jsonl")]
        )
        assert rc == 2

    def test_unknown_keys_exit_2_in_network_and_stats_files(
        self, fixtures_dir, tmp_path, capsys
    ):
        network = json.loads((fixtures_dir / "network_recovery10.json").read_text())
        network["comment"] = "extra"
        loose_network = tmp_path / "network.json"
        loose_network.write_text(json.dumps(network))
        lines = (fixtures_dir / "stats_current.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["note"] = "extra"
        lines[1] = json.dumps(record)
        loose_stats = tmp_path / "current.jsonl"
        loose_stats.write_text("\n".join(lines) + "\n")
        history = str(fixtures_dir / "stats_history.jsonl")
        current = str(fixtures_dir / "stats_current.jsonl")
        network_path = str(fixtures_dir / "network_recovery10.json")
        out = str(tmp_path / "imp.json")
        base = ["assess", "--history", history, "--out", out]
        assert main(base + ["--current", current, "--network", network_path]) == 0
        capsys.readouterr()
        assert main(base + ["--current", current, "--network", str(loose_network)]) == 2
        assert capsys.readouterr().err == "error: network: unknown fields ['comment']\n"
        assert main(base + ["--current", str(loose_stats), "--network", network_path]) == 2
        assert "stats line 2: unknown fields ['note']" in capsys.readouterr().err

    def test_non_numeric_samples_exits_2(self, fixtures_dir, tmp_path, capsys):
        lines = (fixtures_dir / "stats_current.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["samples"] = "x"
        lines[2] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["assess",
             "--history", str(fixtures_dir / "stats_history.jsonl"),
             "--current", str(bad), "--out", "-"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "stats line 3: samples must be an integer" in err

    def test_zero_samples_exits_2(self, fixtures_dir, tmp_path, capsys):
        # a loaded file keeps no sample counts, but each must still be >= 1
        lines = (fixtures_dir / "stats_current.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["samples"] = 0
        lines[2] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["assess",
             "--history", str(fixtures_dir / "stats_history.jsonl"),
             "--current", str(bad), "--out", "-"]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: sample_count must be >= 1\n"

    def test_without_network_scores_parameter_free_layers(self, fixtures_dir, tmp_path):
        # the 24-layer synthetic chain has parameter-free layers; only the
        # network zeroes them
        from support import stats_to_lines
        from ttasched.pipeline import ModelResponseState, generate_batch
        from ttasched.presets import drift_scenario

        scenario = drift_scenario()
        env = scenario.environment
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(1)
        paths = {}
        for name, index in (("h", 0), ("c", 6)):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(
                stats_to_lines(generate_batch(env, model, index, rng), env.sample_counts)
            )
        docs = []
        for extra in ([], ["--network", str(fixtures_dir / "network.json")]):
            out = tmp_path / "imp.json"
            rc = main(
                ["assess", "--history", str(paths["h"]), "--current", str(paths["c"]),
                 "--out", str(out)] + extra
            )
            assert rc == 0
            docs.append(json.loads(out.read_text())["a"])
        free = [
            24 - layer.id for layer in scenario.network.layers if not layer.has_params
        ]
        assert free and all(docs[0][b - 1] > 0.0 for b in free)
        assert all(docs[1][b - 1] == 0.0 for b in free)
        assert [a for b, a in enumerate(docs[0], 1) if b not in free] == [
            a for b, a in enumerate(docs[1], 1) if b not in free
        ]


class TestPredictCommand:
    def test_offline_state_reproduces_offline_profile(self, fixtures_dir, tmp_path):
        out = tmp_path / "profile.json"
        rc = main(
            ["predict",
             "--network", str(fixtures_dir / "network.json"),
             "--offline-profile", str(fixtures_dir / "offline_profile.json"),
             "--device", str(fixtures_dir / "device.json"),
             "--state-trace", str(fixtures_dir / "trace.json"),
             "--out", str(out)]
        )
        assert rc == 0
        produced = json.loads(out.read_text())
        offline = json.loads((fixtures_dir / "offline_profile.json").read_text())
        offline_by_id = {r["layer_id"]: r for r in offline["layers"]}
        for rec in produced["layers"]:
            want = offline_by_id[rec["layer_id"]]
            assert rec["t_b_ms"] == pytest.approx(want["t_b_off_ms"], rel=1e-12)
            assert rec["t_re_ms"] == pytest.approx(want["t_re_off_ms"], rel=1e-12)

    def test_contended_state_scales_within_factor_bracket(
        self, fixtures_dir, tmp_path
    ):
        # trace_hot.json switches to the combined condition at t=0
        trace = tmp_path / "trace_hot.json"
        trace.write_text(
            json.dumps(
                {
                    "horizon_ms": 1e9,
                    "records": [{"t_ms": 0.0, "n": 3, "tem_c": 60.0, "phi": 0.3}],
                }
            )
        )
        out = tmp_path / "profile.json"
        rc = main(
            ["predict",
             "--network", str(fixtures_dir / "network.json"),
             "--offline-profile", str(fixtures_dir / "offline_profile.json"),
             "--device", str(fixtures_dir / "device.json"),
             "--state-trace", str(trace),
             "--out", str(out)]
        )
        assert rc == 0
        produced = json.loads(out.read_text())
        offline = json.loads((fixtures_dir / "offline_profile.json").read_text())
        off_total = sum(r["t_b_off_ms"] for r in offline["layers"])
        got_total = produced["totals"]["t_b_ms"]
        # pi1 = 1.6 * 4.3 = 6.88, pi2 = 2.4 on this device
        assert 2.4 * off_total <= got_total <= 6.88 * off_total

    @pytest.mark.parametrize("layer_id", [99, -1])
    def test_out_of_range_layer_id_exits_2(self, fixtures_dir, tmp_path, capsys, layer_id):
        offline = json.loads((fixtures_dir / "offline_profile.json").read_text())
        n = len(offline["layers"])
        offline["layers"].append(
            {"layer_id": layer_id, "t_f_ms": 1e9, "t_b_off_ms": 1.0, "t_re_off_ms": 1.0}
        )
        path = tmp_path / "offline_profile.json"
        path.write_text(json.dumps(offline))
        rc = main(
            ["predict",
             "--network", str(fixtures_dir / "network.json"),
             "--offline-profile", str(path),
             "--device", str(fixtures_dir / "device.json"),
             "--state-trace", str(fixtures_dir / "trace.json"),
             "--out", str(tmp_path / "profile.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: offline profile layers[{n}].layer_id {layer_id} "
            f"lies outside 0..{n - 1}\n"
        )

    def test_missing_device_file_exits_2(self, fixtures_dir, tmp_path, capsys):
        rc = main(
            ["predict",
             "--network", str(fixtures_dir / "network.json"),
             "--offline-profile", str(fixtures_dir / "offline_profile.json"),
             "--device", str(tmp_path / "missing_device.json"),
             "--state-trace", str(fixtures_dir / "trace.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "fixture, edit, named",
        [
            ("device.json", lambda d: d.update(peak_flops="abc"), "device: peak_flops must be a number"),
            (
                "trace.json",
                lambda d: d["records"][0].update(n="x"),
                "trace: records[0].n must be an integer",
            ),
            (
                "trace.json",
                lambda d: d["records"][0].update(n=float("inf")),
                "trace: records[0].n must be an integer",
            ),
            (
                "offline_profile.json",
                lambda d: d["layers"][0].update(t_f_ms="abc"),
                "offline profile layer 0: t_f_ms must be a number",
            ),
            (
                "offline_profile.json",
                lambda d: d["layers"][0].update(layer_id="first"),
                "offline profile layers[0].layer_id must be an integer",
            ),
            (
                "network.json",
                lambda d: d["layers"][3].update(channels="x"),
                "layer 3: channels must be an integer",
            ),
            (
                "network.json",
                lambda d: d.update(element_width="x"),
                "element_width must be an integer",
            ),
            (
                "network.json",
                lambda d: d["layers"][0].update(id="first"),
                "layer id must be an integer",
            ),
            (
                "network.json",
                lambda d: d["layers"][1].update(out_elements=float("inf")),
                "out_elements must be an integer",
            ),
            (
                "device.json",
                lambda d: d.update(peak_flops=float("nan")),
                "peak_flops must be finite",
            ),
            (
                "device.json",
                lambda d: d.update(tem_off=float("nan")),
                "tem_off must be finite",
            ),
            (
                "trace.json",
                lambda d: d["records"][0].update(t_ms=float("nan")),
                "t_ms must be finite",
            ),
            ("network.json", lambda d: d.update(layers=5), "layers must be a list"),
            (
                "network.json",
                lambda d: d["layers"][0].update(hyperparams=[1]),
                "layer 0: hyperparams must be an object",
            ),
            (
                "network.json",
                lambda d: d["layers"][0].update(mac_count=str(d["layers"][0]["mac_count"])),
                "layer 0: mac_count must be an integer",
            ),
        ],
        ids=[
            "device-peak_flops", "trace-n", "trace-n-inf", "offline-t_f_ms",
            "offline-layer_id", "network-channels", "network-element_width",
            "network-id", "network-out_elements-inf", "device-peak_flops-nan",
            "device-tem_off-nan", "trace-t_ms-nan", "network-layers-int",
            "network-hyperparams-list", "network-mac_count-string",
        ],
    )
    def test_non_numeric_loader_field_exits_2(
        self, fixtures_dir, tmp_path, capsys, fixture, edit, named
    ):
        paths = {
            name: fixtures_dir / name
            for name in ("device.json", "trace.json", "offline_profile.json", "network.json")
        }
        doc = json.loads(paths[fixture].read_text())
        edit(doc)
        paths[fixture] = tmp_path / fixture
        paths[fixture].write_text(json.dumps(doc))
        rc = main(
            ["predict",
             "--network", str(paths["network.json"]),
             "--offline-profile", str(paths["offline_profile.json"]),
             "--device", str(paths["device.json"]),
             "--state-trace", str(paths["trace.json"]),
             "--out", str(tmp_path / "profile.json")]
        )
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_nan_instant_exits_2(self, fixtures_dir, tmp_path, capsys):
        rc = main(
            ["predict",
             "--network", str(fixtures_dir / "network.json"),
             "--offline-profile", str(fixtures_dir / "offline_profile.json"),
             "--device", str(fixtures_dir / "device.json"),
             "--state-trace", str(fixtures_dir / "trace.json"),
             "--at-ms", "nan",
             "--out", str(tmp_path / "profile.json")]
        )
        assert rc == 2
        assert "trace time must be a number" in capsys.readouterr().err


def write_worked_instance(tmp_path):
    imp, profile = worked_instance()
    imp_path = tmp_path / "importance.json"
    imp_path.write_text(json.dumps({"a": [5.0, 1.0, 4.0]}))
    from ttasched.presets import recovery_network

    # a 3-layer all-selectable network shell for serialization
    net = recovery_network(3)
    doc = profile_to_document(net, profile)
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(doc))
    return imp_path, profile_path


class TestScheduleCommand:
    def test_worked_instance_budget7(self, tmp_path):
        imp_path, profile_path = write_worked_instance(tmp_path)
        out = tmp_path / "schedule.json"
        # budget 7 = sigma * 12 - 3  =>  sigma = 10/12
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", str(10.0 / 12.0), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["selected_backward_indices"] == [1, 3]
        assert doc["achieved_importance"] == 9.0
        assert doc["budget_ms"] == pytest.approx(7.0)
        assert doc["slack_ms"] == pytest.approx(0.0)

    def test_oracle_flag_prints_match(self, tmp_path, capsys):
        imp_path, profile_path = write_worked_instance(tmp_path)
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", str(10.0 / 12.0), "--oracle",
             "--out", str(tmp_path / "s.json")]
        )
        assert rc == 0
        assert "MATCH" in capsys.readouterr().err

    def test_tiny_sigma_warns_and_emits_empty_schedule(self, tmp_path, capsys):
        imp_path, profile_path = write_worked_instance(tmp_path)
        out = tmp_path / "schedule.json"
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.1", "--out", str(out)]
        )
        assert rc == 0
        assert "empty strategy" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["selected_backward_indices"] == []
        assert doc["budget_ms"] == 0.0


    @pytest.mark.parametrize("layer_id", [99, -1])
    def test_out_of_range_layer_id_exits_2(self, tmp_path, capsys, layer_id):
        imp_path, profile_path = write_worked_instance(tmp_path)
        doc = json.loads(profile_path.read_text())
        # the runtime profile's layer count is its record count, here 4
        doc["layers"].append(dict(doc["layers"][0], layer_id=layer_id))
        profile_path.write_text(json.dumps(doc))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.5"]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: runtime profile layers[3].layer_id {layer_id} lies outside 0..3\n"
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -50.0])
    def test_unusable_latency_exits_2(self, tmp_path, capsys, bad):
        imp_path, profile_path = write_worked_instance(tmp_path)
        doc = json.loads(profile_path.read_text())
        doc["layers"][0]["t_dw_ms"] = bad
        profile_path.write_text(json.dumps(doc))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.5"]
        )
        assert rc == 2
        assert "t_dw[3] must be finite and non-negative" in capsys.readouterr().err

    def test_backward_split_mismatch_exits_2(self, tmp_path, capsys):
        imp_path, profile_path = write_worked_instance(tmp_path)
        doc = json.loads(profile_path.read_text())
        layer = doc["layers"][0]
        layer["t_b_ms"] = layer["t_dw_ms"] + layer["t_dx_ms"] + 0.5
        profile_path.write_text(json.dumps(doc))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.5"]
        )
        assert rc == 2
        assert "t_b[3] (layer_id 0) must equal t_dw + t_dx" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t_b, rc", [(0.3, 2), (0.1 + 0.2, 0), (0.30000000000000004, 0)]
    )
    def test_backward_split_is_bit_exact(self, tmp_path, capsys, t_b, rc):
        # the identity is the double-precision sum: 0.1 + 0.2 != 0.3
        imp_path, profile_path = write_worked_instance(tmp_path)
        doc = json.loads(profile_path.read_text())
        layer = doc["layers"][0]
        layer["t_dw_ms"], layer["t_dx_ms"], layer["t_b_ms"] = 0.1, 0.2, t_b
        profile_path.write_text(json.dumps(doc))
        got = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.5"]
        )
        assert got == rc
        if rc == 2:
            err = capsys.readouterr().err
            assert "must equal t_dw + t_dx exactly as a float sum" in err
            assert "0.3 != 0.30000000000000004" in err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("t_dw_ms", "abc", "runtime profile layer 0: t_dw_ms must be a number"),
            ("layer_id", "first", "runtime profile layers[0].layer_id must be an integer"),
        ],
    )
    def test_non_numeric_profile_field_exits_2(self, tmp_path, capsys, key, value, named):
        imp_path, profile_path = write_worked_instance(tmp_path)
        doc = json.loads(profile_path.read_text())
        doc["layers"][0][key] = value
        profile_path.write_text(json.dumps(doc))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--sigma", "0.5"]
        )
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_non_numeric_importance_exits_2(self, tmp_path, capsys):
        imp_path, profile_path = write_worked_instance(tmp_path)
        imp_path.write_text(json.dumps({"a": "xyz"}))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path)]
        )
        assert rc == 2
        assert "importance file: a must be a list" in capsys.readouterr().err

    def test_oracle_beyond_enumeration_cap_exits_2(self, tmp_path, capsys):
        from ttasched.presets import recovery_network

        imp_path = tmp_path / "importance.json"
        imp_path.write_text(json.dumps({"a": [1.0] * 21}))
        profile_path = tmp_path / "profile.json"
        doc = profile_to_document(recovery_network(21), uniform_profile(21))
        profile_path.write_text(json.dumps(doc))
        rc = main(
            ["schedule", "--importance", str(imp_path), "--profile",
             str(profile_path), "--oracle"]
        )
        assert rc == 2
        assert "capped at 20 selectable layers, got 21" in capsys.readouterr().err


class TestSimulateCommand:
    def test_byte_identical_reports(self, fixtures_dir, tmp_path):
        scenario = fixtures_dir / "scenario_drift.json"
        outs = []
        for i in range(2):
            out = tmp_path / f"rep{i}.json"
            csv_out = tmp_path / f"rep{i}.csv"
            rc = main(
                ["simulate", str(scenario), "--out", str(out), "--csv", str(csv_out)]
            )
            assert rc == 0
            outs.append((out.read_bytes(), csv_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_report_contains_speedup_fields(self, fixtures_dir, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["simulate", str(fixtures_dir / "scenario_drift.json"),
                   "--out", str(out)])
        assert rc == 0
        agg = json.loads(out.read_text())["aggregates"]
        assert "speedup_vs_full" in agg
        assert "latency_ratio_vs_full" in agg
        assert agg["speedup_vs_full"] > 1.0

    def test_seed_override_changes_report(self, fixtures_dir, tmp_path):
        scenario = fixtures_dir / "scenario_drift.json"
        base = tmp_path / "base.json"
        reseeded = tmp_path / "reseeded.json"
        assert main(["simulate", str(scenario), "--out", str(base)]) == 0
        assert main(
            ["simulate", str(scenario), "--seed", "99", "--out", str(reseeded)]
        ) == 0
        assert base.read_bytes() != reseeded.read_bytes()
        assert json.loads(reseeded.read_text())["seed"] == 99

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "sequential", "unknown_knob": 3}))
        rc = main(["simulate", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "unknown_knob" in err

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "missing.json")]) == 2

    def test_scenario_missing_required_field_named(self, fixtures_dir, tmp_path, capsys):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        del scenario["batches"]
        # keep file references resolvable from the fixtures directory
        for key in ("network", "offline_profile", "device", "state_trace"):
            scenario[key] = str(fixtures_dir / scenario[key])
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "scenario.json" in err and "batches" in err

    def test_scenario_malformed_controller_exits_2(self, fixtures_dir, tmp_path, capsys):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        scenario["controller"] = {"unknown_gain": 2.0}
        for key in ("network", "offline_profile", "device", "state_trace"):
            scenario[key] = str(fixtures_dir / scenario[key])
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        assert "controller" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("batches", "x", "batches must be an integer, got 'x'"),
            ("jitter", "high", "jitter must be a number, got 'high'"),
            ("seed", [1], "seed must be an integer"),
            ("inter_batch_ms", "soon", "inter_batch_ms must be a number"),
            ("network", 5, "network must be a string"),
            ("controller", {"enabled": True, "window": 2.5},
             "controller.window must be an integer"),
            ("controller", {"enabled": True, "target_r": "x"},
             "controller.target_r must be a number"),
        ],
    )
    def test_scenario_non_numeric_field_exits_2(
        self, fixtures_dir, tmp_path, capsys, key, value, named
    ):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        for ref in ("network", "offline_profile", "device", "state_trace"):
            scenario[ref] = str(fixtures_dir / scenario[ref])
        scenario[key] = value
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "scenario.json" in err and named in err

    @pytest.mark.parametrize("value", [-5.0, float("inf"), float("nan")])
    def test_scenario_unusable_inter_batch_ms_exits_2(
        self, fixtures_dir, tmp_path, capsys, value
    ):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        for ref in ("network", "offline_profile", "device", "state_trace"):
            scenario[ref] = str(fixtures_dir / scenario[ref])
        scenario["inter_batch_ms"] = value
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        assert "inter_batch_ms must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env_edit, named",
        [
            ({"positions": None}, "environment.positions is missing"),
            ({"base_var": "x"}, "environment.base_var must be a number"),
            ({"shifts": [{"batch": "x", "layers": [0], "mean_offset_sigmas": 1.0}]},
             "environment.shifts[0].batch must be an integer"),
            ({"shifts": 5}, "environment.shifts must be a list"),
        ],
    )
    def test_scenario_malformed_environment_exits_2(
        self, fixtures_dir, tmp_path, capsys, env_edit, named
    ):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        scenario["environment"].update(env_edit)
        for ref in ("network", "offline_profile", "device", "state_trace"):
            scenario[ref] = str(fixtures_dir / scenario[ref])
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, named",
        [
            (5, "scheduler must be an object"),
            ({"sigam": 0.9}, "sigam"),
            ({"sigma": "fast"}, "scheduler.sigma must be a number"),
        ],
    )
    def test_scenario_malformed_scheduler_exits_2(
        self, fixtures_dir, tmp_path, capsys, block, named
    ):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        scenario["scheduler"] = block
        for key in ("network", "offline_profile", "device", "state_trace"):
            scenario[key] = str(fixtures_dir / scenario[key])
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", str(bad)]) == 2
        assert named in capsys.readouterr().err


class TestOneLineErrors:
    """Inputs that overflow numpy or hold a misspelt key exit 2 with one
    ``error:`` line and no numpy warning before it."""

    def run_main(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return err

    def scenario_file(self, fixtures_dir, tmp_path, edit):
        scenario = json.loads((fixtures_dir / "scenario_drift.json").read_text())
        for ref in ("network", "offline_profile", "device", "state_trace"):
            scenario[ref] = str(fixtures_dir / scenario[ref])
        edit(scenario)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return str(path)

    def test_channels_beyond_memory_name_the_layer(self, fixtures_dir, tmp_path, capsys):
        # 2**62 channels is refused by numpy before anything is allocated
        network = json.loads((fixtures_dir / "network.json").read_text())
        network["layers"][3]["channels"] = 2**62
        (tmp_path / "network.json").write_text(json.dumps(network))
        path = self.scenario_file(
            fixtures_dir, tmp_path,
            lambda s: s.update(network=str(tmp_path / "network.json")),
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert f"layer 3: {2**62} channels do not fit in memory" in err

    def test_overflowing_base_var(self, fixtures_dir, tmp_path, capsys):
        path = self.scenario_file(
            fixtures_dir, tmp_path, lambda s: s["environment"].update(base_var=1e306)
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "stats must be finite" in err

    def test_overflowing_stats_means(self, fixtures_dir, tmp_path, capsys):
        lines = (fixtures_dir / "stats_history.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["means"] = [1e300] * len(record["means"])
        lines[0] = json.dumps(record)
        history = tmp_path / "history.jsonl"
        history.write_text("\n".join(lines) + "\n")
        err = self.run_main(
            ["assess", "--history", str(history),
             "--current", str(fixtures_dir / "stats_current.jsonl"), "--out", "-"],
            capsys,
        )
        assert "importances must be finite and non-negative" in err

    def test_variance_blend_rounding_to_zero(self, fixtures_dir, tmp_path, capsys):
        # at full gain the updated layers' variance 1.0 + (1e-300 - 1.0)
        # rounds to 0.0
        def edit(scenario):
            scenario["adaptation_gain"] = 1.0
            scenario["environment"]["shifts"][0]["var_scale"] = 1e-300

        path = self.scenario_file(fixtures_dir, tmp_path, edit)
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "model variances must be positive" in err

    def test_overflowing_sampled_variance(self, fixtures_dir, tmp_path, capsys):
        # the shifted environment variance 1e308 is finite, and so is the
        # observed one; the sampled variance 1e308 * chi2(2047) / 2048 is not
        path = self.scenario_file(
            fixtures_dir, tmp_path,
            lambda s: s["environment"]["shifts"][0].update(var_scale=1e308),
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "stats must be finite" in err

    def test_overflowing_shift_fails_at_load(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        import ttasched.cli as cli_mod

        def edit(scenario):
            scenario["exact_stats"] = True
            scenario["environment"]["base_var"] = 1e306
            scenario["environment"]["shifts"][0]["mean_offset_sigmas"] = 1e300

        path = self.scenario_file(fixtures_dir, tmp_path, edit)
        monkeypatch.setattr(cli_mod, "run_episode", lambda s: pytest.fail("ran batches"))
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "shift at batch 5 makes the environment" in err

    def test_unknown_scenario_kl_mode_fails_at_load(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        import ttasched.cli as cli_mod

        path = self.scenario_file(
            fixtures_dir, tmp_path, lambda s: s.update(kl_mode="gaussian")
        )
        monkeypatch.setattr(cli_mod, "run_episode", lambda s: pytest.fail("ran batches"))
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "unknown fields ['kl_mode']" in err


    def edited(self, fixtures_dir, tmp_path, name, edit):
        """Path of a copy of the fixture file ``name`` after ``edit`` on its
        document."""
        document = json.loads((fixtures_dir / name).read_text())
        edit(document)
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def predict_argv(self, fixtures_dir, **paths):
        """``predict`` on the fixtures, ``paths`` replacing some of them."""
        files = {
            "network": "network.json", "offline_profile": "offline_profile.json",
            "device": "device.json", "state_trace": "trace.json",
        }
        argv = ["predict"]
        for key, name in files.items():
            argv += ["--" + key.replace("_", "-"), paths.get(key, str(fixtures_dir / name))]
        return argv + ["--out", "-"]

    def test_overflowing_clock_ratio_names_pi1(self, fixtures_dir, tmp_path, capsys):
        # 1e300 Hz at the offline 25 C over 1e-300 Hz at 60 C overflows
        device = self.edited(
            fixtures_dir, tmp_path, "device.json",
            lambda d: d.update(dvfs=[{"tem_c": 25.0, "freq_hz": 1e300},
                                     {"tem_c": 60.0, "freq_hz": 1e-300}]),
        )
        trace = self.edited(
            fixtures_dir, tmp_path, "trace.json",
            lambda t: t["records"][0].update(tem_c=60.0),
        )
        err = self.run_main(
            self.predict_argv(fixtures_dir, device=device, state_trace=trace), capsys
        )
        assert ("expansion factor pi1 must be finite, got inf at state "
                "(n=0, tem_c=60.0, phi=1.0)") in err
        path = self.scenario_file(
            fixtures_dir, tmp_path, lambda s: s.update(device=device, state_trace=trace)
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "expansion factor pi1 must be finite" in err

    def test_underflowing_clock_ratio_names_pi1(self, fixtures_dir, tmp_path, capsys):
        # 1e-300 Hz at the offline 60 C over 1e300 Hz at 25 C rounds to 0
        device = self.edited(
            fixtures_dir, tmp_path, "device.json",
            lambda d: d.update(dvfs=[{"tem_c": 25.0, "freq_hz": 1e300},
                                     {"tem_c": 60.0, "freq_hz": 1e-300}], tem_off=60.0),
        )
        err = self.run_main(self.predict_argv(fixtures_dir, device=device), capsys)
        assert err == ("error: expansion factor pi1 must be positive, got 0.0 at state "
                       "(n=0, tem_c=25.0, phi=1.0)\n")

    def test_overflowing_scaled_latency_names_it(self, fixtures_dir, tmp_path, capsys):
        # under three processes, pi1 = 4.3 blends to a scale of 1.53 on
        # layer 0, whose finite offline forward latency then overflows
        offline = self.edited(
            fixtures_dir, tmp_path, "offline_profile.json",
            lambda d: d["layers"][0].update(t_f_ms=1.5e308),
        )
        trace = self.edited(
            fixtures_dir, tmp_path, "trace.json", lambda t: t["records"][0].update(n=3)
        )
        err = self.run_main(
            self.predict_argv(fixtures_dir, offline_profile=offline, state_trace=trace),
            capsys,
        )
        assert err == "error: profile t_f[24] must be finite and non-negative, got inf\n"
        path = self.scenario_file(
            fixtures_dir, tmp_path, lambda s: s.update(offline_profile=offline, state_trace=trace)
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert err == "error: profile t_f[24] must be finite and non-negative, got inf\n"

    def test_overflowing_totals_name_the_sum(self, fixtures_dir, tmp_path, capsys):
        # every latency is finite; their sum is not
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"layers": [
            {"layer_id": i, "t_f_ms": 1.0, "t_b_ms": 1e308, "t_dw_ms": 5e307,
             "t_dx_ms": 5e307, "t_re_ms": 1.0}
            for i in range(2)
        ]}))
        importance = tmp_path / "importance.json"
        importance.write_text(json.dumps({"a": [1.0, 2.0]}))
        err = self.run_main(
            ["schedule", "--importance", str(importance), "--profile", str(profile),
             "--sigma", "0.5", "--out", str(tmp_path / "s.json")],
            capsys,
        )
        assert err == "error: profile t_b_total must be finite, got inf\n"
        # so does a split's, which then differs from the finite t_b
        profile.write_text(json.dumps({"layers": [
            {"layer_id": 0, "t_f_ms": 1.0, "t_b_ms": 1.7e308, "t_dw_ms": 1e308,
             "t_dx_ms": 1e308, "t_re_ms": 1.0},
            {"layer_id": 1, "t_f_ms": 1.0, "t_b_ms": 1.0, "t_dw_ms": 0.5,
             "t_dx_ms": 0.5, "t_re_ms": 1.0},
        ]}))
        err = self.run_main(
            ["schedule", "--importance", str(importance), "--profile", str(profile),
             "--out", str(tmp_path / "s.json")],
            capsys,
        )
        assert err == ("error: profile t_b[2] (layer_id 0) must equal t_dw + t_dx exactly "
                       "as a float sum, got 1.7e+308 != inf\n")

        def big_forward(document):
            for record in document["layers"][:2]:
                record["t_f_ms"] = 1e308

        offline = self.edited(fixtures_dir, tmp_path, "offline_profile.json", big_forward)
        err = self.run_main(self.predict_argv(fixtures_dir, offline_profile=offline), capsys)
        assert err == "error: offline t_f total must be finite, got inf\n"
        path = self.scenario_file(
            fixtures_dir, tmp_path, lambda s: s.update(offline_profile=offline)
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert err == "error: offline t_f total must be finite, got inf\n"

    @pytest.mark.parametrize(
        "field, batch",
        [("t_f_ms", "batch 1"), ("t_b_off_ms", "full-update replay batch 2")],
    )
    def test_overflowing_clock_names_the_batch(
        self, fixtures_dir, tmp_path, capsys, field, batch
    ):
        # under an endless trace the clock passes the float range instead of
        # the horizon: on the forward pass of the second batch, or on the
        # weight gradient of the deepest layer, which only the full-update
        # replay runs
        offline = self.edited(
            fixtures_dir, tmp_path, "offline_profile.json",
            lambda d: d["layers"][0].update({field: 1.78e308}),
        )
        trace = self.edited(
            fixtures_dir, tmp_path, "trace.json", lambda t: t.update(horizon_ms=math.inf)
        )
        assert "Infinity" in Path(trace).read_text()
        path = self.scenario_file(
            fixtures_dir, tmp_path,
            lambda s: s.update(offline_profile=offline, state_trace=trace),
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert err == (f"error: {batch}: the executed pipeline finishes at inf ms, "
                       "past the float range\n")

    def test_overflowing_bandwidth_ratio_names_pi2(self, fixtures_dir, tmp_path, capsys):
        device = self.edited(
            fixtures_dir, tmp_path, "device.json",
            lambda d: d.update(b_cache=1e300, b_dram=1e-300),
        )
        err = self.run_main(self.predict_argv(fixtures_dir, device=device), capsys)
        assert ("expansion factor pi2 must be finite, got nan at state "
                "(n=0, tem_c=25.0, phi=1.0)") in err

    def test_undefined_eta_names_the_layer(self, fixtures_dir, tmp_path, capsys):
        # every layer's compute and memory times overflow; the last layer,
        # 23, is the first one blended
        device = self.edited(
            fixtures_dir, tmp_path, "device.json",
            lambda d: d.update(peak_flops=1e-310, b_cache=1e-310, b_dram=1e-320),
        )
        err = self.run_main(self.predict_argv(fixtures_dir, device=device), capsys)
        assert ("layer 23: eta is undefined, since its compute time and memory "
                "time both overflow on this device") in err
        path = self.scenario_file(fixtures_dir, tmp_path, lambda s: s.update(device=device))
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "layer 23: eta is undefined" in err

    def runtime_profile(self, fixtures_dir, tmp_path, edit):
        """A ``predict`` output after ``edit`` on its document, and a
        matching importance file."""
        out = tmp_path / "profile.json"
        argv = self.predict_argv(fixtures_dir)
        assert main(argv[:-1] + [str(out)]) == 0
        document = json.loads(out.read_text())
        edit(document)
        out.write_text(json.dumps(document))
        importance = tmp_path / "importance.json"
        importance.write_text(json.dumps({"a": [1.0] * len(document["layers"])}))
        return ["schedule", "--importance", str(importance), "--profile", str(out),
                "--sigma", "0.9", "--out", str(tmp_path / "s.json")]

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_runtime_profile_eta_must_be_non_negative(
        self, fixtures_dir, tmp_path, capsys, value
    ):
        argv = self.runtime_profile(
            fixtures_dir, tmp_path,
            lambda d: d["layers"][2].update(eta=value),
        )
        err = self.run_main(argv, capsys)
        assert (f"runtime profile layer 2: eta must be non-negative or null, "
                f"got {value}") in err

    def test_misspelt_runtime_profile_key(self, fixtures_dir, tmp_path, capsys):
        # with the key ignored, every parameter-free layer became selectable
        def misspell(document):
            for record in document["layers"]:
                if record["selectable"] is False:
                    record["selectible"] = record.pop("selectable")

        argv = self.runtime_profile(fixtures_dir, tmp_path, misspell)
        err = self.run_main(argv, capsys)
        assert "runtime profile layers[2]: unknown fields ['selectible']" in err
        argv = self.runtime_profile(fixtures_dir, tmp_path, lambda d: d.update(total={}))
        err = self.run_main(argv, capsys)
        assert "runtime profile: unknown fields ['total']" in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("device.json", lambda d: d.update(phi_of=0.5),
             "device: unknown fields ['phi_of']"),
            ("device.json", lambda d: d["dvfs"][1].update(freq=1e9),
             "device: dvfs[1]: unknown fields ['freq']"),
            ("trace.json", lambda t: t.update(horizon=5.0),
             "trace: unknown fields ['horizon']"),
            ("trace.json", lambda t: t["records"][0].update(tem=60.0),
             "trace: records[0]: unknown fields ['tem']"),
            ("offline_profile.json", lambda o: o["layers"][3].update(t_re_ms=1.0),
             "offline profile layers[3]: unknown fields ['t_re_ms']"),
            ("offline_profile.json", lambda o: o.update(totals={}),
             "offline profile: unknown fields ['totals']"),
        ],
    )
    def test_misspelt_predict_input_key(
        self, fixtures_dir, tmp_path, capsys, name, edit, message
    ):
        key = {"device.json": "device", "trace.json": "state_trace",
               "offline_profile.json": "offline_profile"}[name]
        path = self.edited(fixtures_dir, tmp_path, name, edit)
        err = self.run_main(self.predict_argv(fixtures_dir, **{key: path}), capsys)
        assert message in err

    def test_misspelt_importance_key(self, fixtures_dir, tmp_path, capsys):
        argv = self.runtime_profile(fixtures_dir, tmp_path, lambda d: None)
        importance = tmp_path / "importance.json"
        importance.write_text(json.dumps({"a": [1.0] * 24, "sigma": 0.5}))
        err = self.run_main(argv, capsys)
        assert "importance file: unknown fields ['sigma']" in err

    def test_misspelt_stats_key(self, fixtures_dir, tmp_path, capsys):
        lines = (fixtures_dir / "stats_current.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["sample"] = record.pop("samples")
        lines[1] = json.dumps(record)
        current = tmp_path / "current.jsonl"
        current.write_text("\n".join(lines) + "\n")
        err = self.run_main(
            ["assess", "--history", str(fixtures_dir / "stats_history.jsonl"),
             "--current", str(current), "--out", "-"],
            capsys,
        )
        assert "stats line 2: unknown fields ['sample']" in err

    def test_misspelt_shift_key(self, fixtures_dir, tmp_path, capsys):
        path = self.scenario_file(
            fixtures_dir, tmp_path,
            lambda s: s["environment"]["shifts"][0].update(var_scal=2.0),
        )
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "environment.shifts[0]: unknown fields ['var_scal']" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "scenario.json", "--alpha", "0.1"],
             "unrecognized arguments: --alpha 0.1"),
            (["assess", "--current", "current.jsonl"],
             "the following arguments are required: --history"),
            (["schedule", "--importance", "i.json", "--profile", "p.json",
              "--sigma", "abc"],
             "argument --sigma: invalid float value: 'abc'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["removed-alpha", "missing-history", "non-numeric-sigma", "no-subcommand"],
    )
    def test_argument_error_is_one_line_without_usage(self, argv, message, capsys):
        # returned from main as exit 2, not raised as SystemExit after a
        # usage banner
        assert self.run_main(argv, capsys) == f"error: {message}\n"


class TestOracleCheckCommand:
    def test_small_run_reports_matches(self, capsys):
        rc = main(["oracle-check", "--instances", "20", "--max-n", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "20/20 match" in out
        assert "wall" in out

    def test_zero_instances_exits_2(self, capsys):
        assert main(["oracle-check", "--instances", "0"]) == 2

    def test_excessive_max_n_exits_2(self):
        assert main(["oracle-check", "--instances", "1", "--max-n", "25"]) == 2

    def test_max_n_below_the_smallest_instance_exits_2(self, capsys):
        assert main(["oracle-check", "--instances", "1", "--max-n", "2"]) == 2
        assert "max_n must lie in 4..20, got 2" in capsys.readouterr().err

    def test_mismatch_exits_1_with_replayable_instance(self, capsys, monkeypatch):
        import ttasched.cli as cli_mod
        from ttasched.scheduler import CertificationReport

        fake = CertificationReport(
            instances=2,
            matches=1,
            elapsed_s=0.01,
            failures=({"index": 1, "instance": {"a": [1.0]}},),
        )
        monkeypatch.setattr(cli_mod, "certify", lambda **kw: fake)
        rc = main(["oracle-check", "--instances", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "1/2 match" in captured.out
        assert '"index": 1' in captured.err


class TestEntryPoint:
    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ttasched")

    def test_module_invocation(self, fixtures_dir):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ttasched.cli", "oracle-check",
             "--instances", "5", "--max-n", "6"],
            capture_output=True,
            text=True,
            cwd=str(root),
            env=env,
        )
        assert proc.returncode == 0
        assert "5/5 match" in proc.stdout
