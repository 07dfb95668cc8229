"""Command-line front end.

Subcommands mirror the pipeline stages: ``assess`` scores layer drift,
``predict`` calibrates an offline profile to a resource state, ``schedule``
picks the update strategy, ``simulate`` runs a scenario end to end, and
``oracle-check`` certifies the scheduler against exhaustive enumeration.

Exit codes: 0 success, 1 failed check, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import InputError, json_text, read_json
from .importance import KL_MODES, EmbeddingHistory, assess, load_stats_file
from .latency import (
    build_profile,
    load_device_file,
    load_offline_profile_file,
    load_trace_file,
    profile_from_document,
    profile_to_document,
)
from .network import load_network_file
from .pipeline import load_scenario_file, report_csv, report_json, run_episode
from .scheduler import (
    SchedulerConfig,
    brute_force,
    certify,
    load_importance_file,
    solve_dp,
)


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _dump_json(document: dict, out: str) -> None:
    _write_out(json_text(document), out)


def cmd_assess(args) -> int:
    history_stats = load_stats_file(args.history)
    current_stats = load_stats_file(args.current)
    if len(history_stats) != len(current_stats):
        first = min(len(history_stats), len(current_stats))
        raise InputError(
            f"layer {first}: present in one stats file but not the other "
            f"({len(history_stats)} history vs {len(current_stats)} current layers)"
        )
    network = load_network_file(args.network, args.lenient) if args.network else None
    n = len(current_stats)
    if network is not None and network.n_layers != n:
        raise InputError(
            f"network has {network.n_layers} layers, stats cover {n}"
        )
    for layer_id, (h, e) in enumerate(zip(history_stats.widths, current_stats.widths)):
        if h != e:
            raise InputError(
                f"layer {layer_id}: history has {h} channels, current has {e}"
            )
    history = EmbeddingHistory.seed(history_stats)
    vector, _ = assess(network, history, current_stats, mode=args.kl_mode)
    _dump_json({"a": vector.a[1:].tolist()}, args.out)
    return 0


def cmd_predict(args) -> int:
    network = load_network_file(args.network, args.lenient)
    offline = load_offline_profile_file(args.offline_profile, network.n_layers)
    device = load_device_file(args.device)
    trace = load_trace_file(args.state_trace)
    state = trace.state_at(args.at_ms)
    profile = build_profile(network, offline, device, state)
    _dump_json(profile_to_document(network, profile), args.out)
    return 0


def cmd_schedule(args) -> int:
    importance = load_importance_file(args.importance)
    profile = profile_from_document(read_json(args.profile))
    config = SchedulerConfig(sigma=args.sigma)
    result = solve_dp(importance, profile, config)
    if result.budget_clipped:
        print(
            "warning: budget is zero at this acceleration factor; "
            "only the empty strategy fits",
            file=sys.stderr,
        )
    if args.oracle:
        oracle = brute_force(importance, profile, result.budget_ms)
        match = (
            oracle.strategy.selected == result.strategy.selected
            and oracle.achieved_importance == result.achieved_importance
        )
        print("MATCH" if match else "MISMATCH", file=sys.stderr)
        if not match:
            print(
                json.dumps({"dp": result.to_document(), "oracle": oracle.to_document()}),
                file=sys.stderr,
            )
            return 1
    _dump_json(result.to_document(), args.out)
    return 0


def cmd_simulate(args) -> int:
    import dataclasses

    scenario = load_scenario_file(args.scenario)
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    report = run_episode(scenario)
    _write_out(report_json(report), args.out)
    if args.csv:
        _write_out(report_csv(report), args.csv)
    return 0


def cmd_oracle_check(args) -> int:
    if args.instances < 1:
        raise InputError("--instances must be >= 1")
    report = certify(instances=args.instances, max_n=args.max_n, seed=args.seed)
    print(
        f"{report.matches}/{report.instances} match "
        f"({report.elapsed_s:.2f}s wall)"
    )
    if not report.all_match:
        for failure in report.failures:
            print(json.dumps(failure, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttasched",
        description="Sparse layer-update scheduling and pipeline simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="score per-layer drift between two stats files")
    p.add_argument("--history", required=True, help="JSON-lines stats of the tracked history")
    p.add_argument("--current", required=True, help="JSON-lines stats of the current batch")
    p.add_argument("--network", help="optional network file; zeroes parameter-free layers")
    p.add_argument("--kl-mode", choices=KL_MODES, default="gaussian")
    p.add_argument("--lenient", action="store_true", help="ignore unknown input fields")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("predict", help="calibrate an offline profile to a resource state")
    p.add_argument("--network", required=True)
    p.add_argument("--offline-profile", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--state-trace", required=True)
    p.add_argument("--at-ms", type=float, default=0.0, help="trace instant to sample")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("schedule", help="pick the update strategy for a budget")
    p.add_argument("--importance", required=True, help="importance file from assess")
    p.add_argument("--profile", required=True, help="runtime profile from predict")
    p.add_argument("--sigma", type=float, default=0.33, help="acceleration factor")
    p.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="run a scenario episode end to end")
    p.add_argument("scenario")
    p.add_argument("--out", default="-", help="report JSON path, - for stdout")
    p.add_argument("--csv", help="optional flat per-batch CSV path")
    p.add_argument("--alpha", type=float, help="override the scenario's history rate")
    p.add_argument("--seed", type=int, help="override the scenario's seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle-check", help="certify the scheduler on random instances")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--max-n", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


# built once per process: a parser is a web of reference cycles that only
# the cyclic collector frees, and callers such as batch drivers invoke
# ``main`` once per run
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
