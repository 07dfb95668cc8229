"""Walk through the layer-chain cost model.

Builds a small network from hyperparameters, shows the derived compute and
memory-traffic figures, and demonstrates why the deepest selected layer,
not the number of selected layers, dominates the cost of a sparse update.
"""

from ttasched import UpdateStrategy, load_network
from ttasched.network import closed_form_cost
from ttasched.presets import uniform_profile

document = {
    "name": "demo-chain",
    "layers": [
        {
            "id": 0, "kind": "conv2d", "has_params": True,
            "channels": 32, "out_elements": 32 * 64,
            "hyperparams": {"kernel": 3, "in_channels": 16, "out_channels": 32,
                            "h_out": 8, "w_out": 8},
        },
        {
            "id": 1, "kind": "batchnorm", "has_params": True,
            "channels": 32, "out_elements": 32 * 64,
            "hyperparams": {},
        },
        {
            "id": 2, "kind": "activation", "has_params": False,
            "channels": 32, "out_elements": 32 * 64,
            "hyperparams": {},
        },
        {
            "id": 3, "kind": "linear", "has_params": True,
            "channels": 10, "out_elements": 10,
            "hyperparams": {"in_features": 2048, "out_features": 10},
        },
    ],
}

net = load_network(document)
print(f"network {net.name!r}: {net.n_layers} layers")
for layer in net.layers:
    b = net.backward_index(layer.id)
    print(
        f"  forward {layer.id} / backward {b}: {layer.kind:<12}"
        f" macs={layer.mac_count:>9,}  bytes={layer.mem_traffic:>9,}"
        f"  updateable={layer.has_params}"
    )

# The cost of a strategy is not proportional to how many layers it updates.
# Updating one deep layer forces the whole activation-gradient chain and a
# long reforward; updating several shallow layers is often cheaper.
n = 10
profile = uniform_profile(n)
deep_only = UpdateStrategy(n, (n,))
shallow_four = UpdateStrategy(n, (1, 2, 3, 4))

print("\nuniform per-layer costs, 10-layer chain:")
for name, strat in (("deepest layer only", deep_only), ("four nearest output", shallow_four)):
    cost = closed_form_cost(profile, strat.selected)
    print(
        f"  {name:<22} layers={len(strat.selected)}  backward={cost.t_backward:5.1f} ms"
        f"  reforward={cost.t_reforward:5.1f} ms  total={cost.t_total_extra:5.1f} ms"
    )

print("\nupdating 1 deep layer costs more than 4 shallow ones here:")
print("  the chain to the deepest selection is the price that matters.")
