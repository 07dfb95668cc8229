"""Budget-constrained update selection, certified against enumeration.

Sweeps the latency budget over a three-layer instance small enough to
enumerate by hand, shows the closed-form cost behind each optimum, and
cross-checks random instances against the exhaustive oracle.
"""

from ttasched import SchedulerConfig, brute_force, solve_dp
from ttasched.network import closed_form_cost
from ttasched.presets import worked_instance
from ttasched.scheduler import certify

imp, profile = worked_instance()
print("instance: 3 layers, unit costs, importances (backward 1..3) =",
      imp.a[1:].tolist())
print("full pipeline: forward", profile.t_f_total, "ms, total", profile.t_total, "ms")

print("\nclosed-form cost of a selection with deepest layer d:"
      " its weight gradients + cum_dx[d-1] + cum_re[d]")
for selected in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
    d = selected[-1]
    t_dw = sum(float(profile.t_dw[b]) for b in selected)
    cost = closed_form_cost(profile, selected)
    print(f"  {str(selected):>9}: {t_dw:.0f} + {profile.cum_dx[d - 1]:.0f}"
          f" + {profile.cum_re[d]:.0f} = {cost.t_total_extra:.0f} ms")

print("\nbudget sweep:")
print(f"  {'budget':>6} {'selected':>12} {'importance':>10} {'cost':>6} {'slack':>6}")
for target in (2.0, 4.0, 6.0, 7.0, 8.0, 9.0):
    sigma = (target + profile.t_f_total) / profile.t_total
    result = solve_dp(imp, profile, SchedulerConfig(sigma=sigma))
    oracle = brute_force(imp, profile, result.budget_ms)
    assert oracle.strategy.selected == result.strategy.selected
    print(
        f"  {target:6.0f} {str(result.strategy.selected):>12}"
        f" {result.achieved_importance:10.0f}"
        f" {result.predicted_extra.t_total_extra:6.0f} {result.slack_ms:6.0f}"
    )
print("each row was confirmed by exhaustive enumeration.")

print("\ncertifying on 100 random instances (4..14 layers, half with float costs):")
report = certify(instances=100, max_n=14, seed=1)
print(f"  {report.matches}/{report.instances} match in {report.elapsed_s:.2f}s")
