import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ttasched.cli import build_parser, main
from ttasched.presets import (
    network_to_document,
    offline_to_document,
    uniform_profile,
    worked_instance,
)
from ttasched.latency import profile_to_document


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(
            ["assess", "--history", "h.jsonl", "--current", "c.jsonl"]
        )
        assert args.command == "assess"
        assert args.kl_mode == "gaussian"
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

    def test_elementwise_underflowed_history_weight_adds_nothing(
        self, fixtures_dir, tmp_path
    ):
        # a history layer of huge means softmaxes its variance slots to 0;
        # those terms are 0 log 0 = 0, so the layer still scores its drift
        lines = (fixtures_dir / "stats_history.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["means"] = [1e300] * len(record["means"])
        lines[0] = json.dumps(record)
        history = tmp_path / "history.jsonl"
        history.write_text("\n".join(lines) + "\n")
        out = tmp_path / "imp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["assess", "--history", str(history),
                 "--current", str(fixtures_dir / "stats_current.jsonl"),
                 "--kl-mode", "elementwise", "--out", str(out)]
            )
        assert rc == 0
        a = json.loads(out.read_text())["a"]  # backward order
        assert 1.0 < a[-1] < float("inf")  # forward layer 0

    def test_without_network_scores_parameter_free_layers(self, fixtures_dir, tmp_path):
        # the 24-layer synthetic chain has parameter-free layers; only the
        # network zeroes them
        from ttasched.importance import stats_to_lines
        from ttasched.pipeline import ModelResponseState, generate_batch
        from ttasched.presets import drift_scenario

        scenario = drift_scenario()
        env = scenario.environment
        model = ModelResponseState.from_environment(env)
        rng = np.random.default_rng(1)
        paths = {}
        for name, index in (("h", 0), ("c", 6)):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(stats_to_lines(generate_batch(env, model, index, rng)))
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
        assert "capped at 20 layers" in capsys.readouterr().err


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
            ["simulate", str(scenario), "--seed", "99", "--alpha", "0.1",
             "--out", str(reseeded)]
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
    """Inputs that overflow numpy exit 2 with one ``error:`` line and no
    numpy warning before it."""

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
            fixtures_dir, tmp_path, lambda s: s.update(kl_mode="wasserstein")
        )
        monkeypatch.setattr(cli_mod, "run_episode", lambda s: pytest.fail("ran batches"))
        err = self.run_main(["simulate", path, "--out", str(tmp_path / "r.json")], capsys)
        assert "unknown divergence mode 'wasserstein'" in err


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
    def test_module_invocation(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "ttasched.cli", "oracle-check",
             "--instances", "5", "--max-n", "6"],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0
        assert "5/5 match" in proc.stdout
