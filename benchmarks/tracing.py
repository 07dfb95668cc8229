"""In-memory span tracer for the benchmark's traced pass.

Spans are recorded by wrappers that the benchmark installs from its own
files, around the calls into each ttasched layer; no code inside ``src/``
changes. A span holds its name, start and end (``perf_counter_ns``), the
index of its parent span and the id of the operation it belongs to. Spans
stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from ttasched import cli, importance, latency, network, pipeline, presets, scheduler


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.counters: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result)`` returns
        counters to add under ``name.<key>`` after each successful call."""
        spans = self.spans
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None:
                for key, value in count(result).items():
                    counters[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive ns, self ns]. Self time is a
        span's duration minus the time its direct children cover; spans nest
        strictly in one thread, so children never overlap."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def importer_targets(fn, modules=(pipeline, cli)):
    """Every (module, name) under which ``modules`` import ``fn``."""
    return [
        (module, name)
        for module in modules
        for name, value in vars(module).items()
        if value is fn
    ]


def _solve_counts(result):
    counts = {
        "explored": getattr(result, "explored", 0),
        "pruned": getattr(result, "pruned", 0),
    }
    if result.budget_ms > 0:
        counts["slack_sum"] = result.slack_ms / result.budget_ms
        counts["budgeted"] = 1
    return counts


def _execute_counts(result):
    runs = sum(
        int((phase != 0).sum())
        for phase in (result.f_exec, result.dw_exec, result.dx_exec, result.re_exec)
    )
    return {"layer_runs": runs}


def _text_bytes(result):
    return {"bytes": len(result.encode())}


# (span name, home module, attribute, patch the home module too, counter).
# Helpers that their own module also calls internally (the latency physics)
# are replaced only where pipeline imports them, so build_profile's inner
# loop is not split into spans.
SPANS = (
    ("pipeline.run_episode", pipeline, "run_episode", True, None),
    ("pipeline.generate_batch", pipeline, "generate_batch", True, None),
    ("pipeline.execute_ground_truth", pipeline, "execute_ground_truth", True, _execute_counts),
    ("pipeline.replay_full", pipeline, "_replay_full_updates", True, None),
    ("pipeline.reuse_plan", pipeline, "reuse_plan", True, None),
    ("pipeline.apply_update", pipeline, "apply_update", True, None),
    ("pipeline.observed_embeddings", pipeline, "observed_embeddings", True, None),
    ("pipeline.report_json", pipeline, "report_json", True, _text_bytes),
    ("pipeline.report_csv", pipeline, "report_csv", True, _text_bytes),
    ("pipeline.load_scenario_file", pipeline, "load_scenario_file", True, None),
    ("importance.assess", importance, "assess", True, None),
    ("importance.update_history", importance, "update_history", True, None),
    ("importance.adaptation_loss", importance, "adaptation_loss", True, None),
    ("importance.assessment_flops", importance, "assessment_flops", True, None),
    ("latency.build_profile", latency, "build_profile", True, None),
    ("latency.expansion_factors", latency, "expansion_factors", False, None),
    ("latency.eta", latency, "eta", False, None),
    ("latency.predict_layer_latency", latency, "predict_layer_latency", False, None),
    ("latency.split_backward", latency, "split_backward", False, None),
    ("latency.load_offline_profile_file", latency, "load_offline_profile_file", False, None),
    ("latency.load_device_file", latency, "load_device_file", False, None),
    ("latency.load_trace_file", latency, "load_trace_file", False, None),
    ("network.load_network_file", network, "load_network_file", False, None),
    ("scheduler.solve_dp", scheduler, "solve_dp", True, _solve_counts),
    ("scheduler.brute_force", scheduler, "brute_force", True, lambda r: {"explored": r.explored}),
    ("scheduler.random_instance", scheduler, "random_instance", True, None),
    ("presets.synthetic_network", presets, "synthetic_network", True, None),
    ("presets.demo_edge_device", presets, "demo_edge_device", True, None),
    ("presets.offline_from_costs", presets, "offline_from_costs", True, None),
    ("presets.write_fixture_tree", presets, "write_fixture_tree", True, None),
)


def traced_replacements(tracer: Tracer):
    """Replacements that route every name in ``SPANS``, plus
    ``StateTrace.state_at`` and ``cli.main``, through ``tracer``."""
    out = []
    for name, home, attr, patch_home, count in SPANS:
        original = getattr(home, attr, None)
        if original is None:  # a private helper a later version may drop
            continue
        wrapper = tracer.wrap(name, original, count)
        targets = set(importer_targets(original))
        if patch_home:
            targets.add((home, attr))
        out.extend((owner, target, wrapper) for owner, target in targets)
    state_at = latency.StateTrace.state_at
    out.append(
        (latency.StateTrace, "state_at", tracer.wrap("latency.StateTrace.state_at", state_at))
    )
    out.append((cli, "main", tracer.wrap("cli.main", cli.main)))
    return out
