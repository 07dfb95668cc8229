"""Runtime latency calibration under resource pressure.

Shows the two expansion factors (compute: processes + thermal clock;
memory: cache-hit rate), how each layer's compute-to-memory ratio blends
them into its scale (``LatencyTable.scales``), and a full profile
calibrated to each bundled resource condition.
"""

import numpy as np

from ttasched import LatencyTable, build_profile, pi1, pi2
from ttasched.presets import (
    demo_edge_device,
    offline_from_costs,
    resource_conditions,
    synthetic_network,
)

device = demo_edge_device()
conditions = resource_conditions()

print("expansion factors per condition:")
print(f"  {'condition':<12} {'pi1':>6} {'pi2':>6}")
for name, state in conditions.items():
    print(f"  {name:<12} {pi1(device, state):6.2f} {pi2(device, state):6.2f}")

# eta decides which factor dominates a layer: compute-heavy layers follow
# pi1, memory-heavy layers follow pi2
network = synthetic_network(12)
offline = offline_from_costs(network, device)
table = LatencyTable(network, offline, device)
combined = conditions["combined"]
scale = table.scales(combined)
print(f"\nper-layer blends for {network.name!r} under 'combined' "
      f"(pi1={pi1(device, combined):.2f}, pi2={pi2(device, combined):.2f}):")
for b in (1, 2, 3, 4):
    layer = network.layer_by_backward(b)
    print(f"  backward {b} ({layer.kind:<10}) eta = {table.eta[b]:8.3f}"
          f"  scale = {scale[b]:5.2f}")
print("every scale stays inside [min(pi), max(pi)].")

profile = build_profile(network, offline, device, combined)
assert np.array_equal(profile.t_b, scale * offline.t_b)
print("build_profile scales each offline latency by its layer's scale.")

print("\ncalibrated backward totals (offline "
      f"{np.sum(offline.t_b):.2f} ms):")
for name, state in conditions.items():
    profile = build_profile(network, offline, device, state)
    print(f"  {name:<12} {profile.t_b_total:8.2f} ms")
print("the offline condition reproduces the offline profile exactly.")
