"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Thresholds pinned by pilot runs are recorded in
``tests/fixtures/pilot_results.json`` alongside the measured values that
justified them.
"""

import itertools
import time

import numpy as np

from ttasched.cli import main
from ttasched.errors import read_json
from ttasched.importance import (
    Embedding,
    EmbeddingHistory,
    layer_divergences,
    update_history,
    assessment_flops,
)
from ttasched.latency import build_profile, eta
from ttasched.network import UpdateStrategy, closed_form_cost
from ttasched.pipeline import report_json, run_episode
from ttasched.presets import (
    demo_edge_device,
    drift_scenario,
    offline_from_costs,
    resnet50_shaped,
    resource_conditions,
    synthetic_network,
    worked_instance,
)
from ttasched.scheduler import (
    SchedulerConfig,
    random_instance,
    solve_dp,
)

from scalar_latency import blend, factors
from support import importance_recovery_rate, resnet50_batch_stats


def _announce(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS {detail}")


def test_criterion_1_scheduler_matches_oracle_on_200_instances(capsys):
    started = time.perf_counter()
    rc = main(["oracle-check", "--instances", "200", "--max-n", "14"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert rc == 0
    assert "200/200 match" in out
    assert elapsed <= 60.0
    with capsys.disabled():
        _announce("criterion-1", f"200/200 oracle matches in {elapsed:.2f}s")


def test_criterion_2_budget_compliance_over_fuzzed_instances(capsys):
    # every dyadic instance, plus as many float ones whose budgets sit on
    # some strategy's exact cost
    rng = np.random.default_rng(2)
    rng_float = np.random.default_rng(3)
    violations = 0
    for _ in range(10_000):
        for inst in (
            random_instance(rng, n_min=4, n_max=10),
            random_instance(rng_float, n_min=4, n_max=10, dyadic=False),
        ):
            result = solve_dp(
                inst["importance"], inst["profile"], SchedulerConfig(sigma=inst["sigma"])
            )
            if result.predicted_extra.t_total_extra > result.budget_ms and not (
                result.strategy.is_empty and result.budget_ms == 0.0
            ):
                violations += 1
    assert violations == 0
    with capsys.disabled():
        _announce(
            "criterion-2", "0 budget violations across 20000 fuzzed pairs (half float)"
        )


def test_criterion_3_worked_instance_exact(capsys):
    expected = {
        2.0: ((1,), 5.0),
        6.0: ((1, 2), 6.0),
        7.0: ((1, 3), 9.0),
        8.0: ((1, 2, 3), 10.0),
    }
    imp, profile = worked_instance()
    for target, (want_sel, want_gain) in expected.items():
        sigma = (target + profile.t_f_total) / profile.t_total
        result = solve_dp(imp, profile, SchedulerConfig(sigma=sigma))
        assert result.strategy.selected == want_sel, target
        assert result.achieved_importance == want_gain, target
    with capsys.disabled():
        _announce("criterion-3", "hand-enumerated optima exact at budgets 2/6/7/8")


def test_criterion_4_predictor_bracket_contains_reported_latencies(capsys):
    # every runtime latency build_profile reports, per layer and in total,
    # lies between the offline latency scaled by min(pi1, pi2) and by
    # max(pi1, pi2), and equals the scalar blend of the two
    network = synthetic_network()
    device = demo_edge_device()
    offline = offline_from_costs(network, device)
    blended = 0
    for name, state in resource_conditions().items():
        profile = build_profile(network, offline, device, state)
        p1, p2 = factors(device, state)
        lo, hi = sorted((p1, p2))
        for runtime, t_off in (
            (profile.t_f, offline.t_f),
            (profile.t_b, offline.t_b),
            (profile.t_re, offline.t_re),
        ):
            for b in range(1, network.n_layers + 1):
                want = blend(
                    float(t_off[b]), eta(network.layer_by_backward(b), device), p1, p2
                )
                assert runtime[b] == want, (name, b)
                assert lo * t_off[b] <= want <= hi * t_off[b], (name, b)
                blended += lo * t_off[b] < want < hi * t_off[b]
            total = float(np.sum(t_off))
            assert lo * total <= float(np.sum(runtime)) <= hi * total, name
    # the bracket is not met trivially: some layers mix the two factors
    assert blended > 0
    with capsys.disabled():
        _announce(
            "criterion-4",
            f"predictions under all 5 resource conditions inside their factor "
            f"brackets ({blended} strictly blended)",
        )


def test_criterion_5_executor_prediction_error(capsys):
    from ttasched.pipeline import execute_ground_truth
    from ttasched.latency import LatencyTable, StateTrace

    network = synthetic_network(10)
    device = demo_edge_device()
    offline = offline_from_costs(network, device)
    state = resource_conditions()["cache_poor"]
    profile = build_profile(network, offline, device, state)
    strategy = UpdateStrategy(10, network.selectable_backward())
    trace = StateTrace.constant(state)
    table = LatencyTable(network, offline, device)

    def run(eps, rng):
        return execute_ground_truth(
            table, trace, strategy, jitter_eps=eps, rng=rng,
        )

    # noise-free, static state: per-layer executed latencies equal the
    # prediction to float precision (the deepest layer pays no activation
    # gradient of its own, so each part is compared to its own prediction)
    deepest = strategy.deepest
    max_err = 0.0
    comparisons = 0
    for _ in range(100):
        execd = run(0.0, None)
        for b in range(1, 11):
            pairs = [(execd.f_exec[b], profile.t_f[b]),
                     (execd.re_exec[b], profile.t_re[b])]
            if b < deepest:
                pairs.append((execd.dx_exec[b], profile.t_dx[b]))
            if profile.selectable[b]:
                pairs.append((execd.dw_exec[b], profile.t_dw[b]))
            for got, want in pairs:
                if want > 0:
                    max_err = max(max_err, abs(got - want) / want)
                    comparisons += 1
    assert comparisons >= 1000
    assert max_err < 1e-9

    # 5% multiplicative jitter: mean per-layer error within the jitter bound
    rng = np.random.default_rng(55)
    errors = []
    for _ in range(100):
        execd = run(0.05, rng)
        for b in range(1, 11):
            if profile.t_f[b] > 0:
                errors.append(abs(execd.f_exec[b] - profile.t_f[b]) / profile.t_f[b])
    assert len(errors) >= 1000
    assert float(np.mean(errors)) <= 0.05
    with capsys.disabled():
        _announce(
            "criterion-5",
            f"max noise-free error {max_err:.2e}, mean 5%-jitter error "
            f"{np.mean(errors):.3f}",
        )


def test_criterion_6_importance_recovery_rate(capsys, fixtures_dir):
    pilot = read_json(fixtures_dir / "pilot_results.json")["importance_recovery"]
    rate = importance_recovery_rate(trials=50, seed=0)
    assert rate >= pilot["pinned_threshold"]
    with capsys.disabled():
        _announce("criterion-6", f"recovery rate {rate:.2f} over 50 trials")


def test_criterion_7_assessment_overhead_arithmetic(capsys):
    network = resnet50_shaped()
    stats, sample_counts = resnet50_batch_stats(batch_size=16)
    flops = assessment_flops(stats.widths, sample_counts)
    assert 0.05e9 <= flops <= 0.8e9

    history = EmbeddingHistory.seed(stats)
    stored = history.storage_bytes()
    reported_kb = 8.6e3
    assert reported_kb / 4 <= stored <= reported_kb * 4
    with capsys.disabled():
        _announce(
            "criterion-7",
            f"assessment {flops / 1e9:.3f} GFLOPs, history {stored / 1e3:.1f} KB",
        )


def test_criterion_8_simulated_speedup_and_capture(capsys, fixtures_dir):
    pilot = read_json(fixtures_dir / "pilot_results.json")["drift_scenario"]
    report = run_episode(drift_scenario())
    agg = report.aggregates
    assert agg.latency_ratio_vs_full <= pilot["pinned_latency_ratio_max"]
    assert agg.mean_capture_ratio >= pilot["pinned_capture_ratio_min"]
    with capsys.disabled():
        _announce(
            "criterion-8",
            f"latency ratio {agg.latency_ratio_vs_full:.3f}, capture "
            f"{agg.mean_capture_ratio:.3f}",
        )


def test_criterion_9_invariant_suites(capsys):
    # KL non-negativity, 10^4 random embedding pairs
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        k = int(rng.integers(1, 5))
        mk = lambda: Embedding(rng.normal(0, 3, k), rng.uniform(0, 4, k))
        assert layer_divergences(mk(), mk())[0] >= 0.0

    # EMA containment
    seed_emb = Embedding(np.array([0.0]), np.array([1.0]))
    h = EmbeddingHistory.seed(seed_emb, alpha=0.25)
    lo = hi = np.array([0.0, 1.0])
    for _ in range(200):
        vals = np.array([rng.normal(0, 5), rng.uniform(0, 6)])
        lo = np.minimum(lo, vals)
        hi = np.maximum(hi, vals)
        h = update_history(h, Embedding(vals[:1], vals[1:]))
        got = np.concatenate([h.embeddings.means, h.embeddings.variances])
        assert np.all(got >= lo - 1e-12)
        assert np.all(got <= hi + 1e-12)

    # deepest-layer dominance, exhaustive to N=10
    from tests.test_network import random_dyadic_profile

    for n in range(2, 11):
        profile = random_dyadic_profile(rng, n)
        by_deepest = {}
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), r):
                cost = closed_form_cost(profile, combo)
                dx_term = cost.t_backward - sum(profile.t_dw[b] for b in combo)
                by_deepest.setdefault(combo[-1], set()).add(
                    (round(cost.t_reforward, 9), round(dx_term, 9))
                )
        assert all(len(v) == 1 for v in by_deepest.values())

    # budget monotonicity
    for _ in range(25):
        inst = random_instance(rng, n_min=4, n_max=10)
        profile = inst["profile"]
        extra = profile.t_b_total + profile.t_re_total
        gains = []
        for frac in np.linspace(0.05, 1.0, 10):
            sigma = (frac * extra + profile.t_f_total) / profile.t_total
            result = solve_dp(
                inst["importance"], profile, SchedulerConfig(sigma=min(sigma, 1.0))
            )
            gains.append(result.achieved_importance)
        assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))

    # determinism: three byte-identical reports of the bundled scenario
    reports = {report_json(run_episode(drift_scenario())) for _ in range(3)}
    assert len(reports) == 1

    with capsys.disabled():
        _announce("criterion-9", "invariant suites green")
