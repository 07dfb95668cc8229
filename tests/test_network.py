import itertools

import numpy as np
import pytest

from ttasched.errors import InputError
from ttasched.network import (
    LayerSpec,
    Network,
    UpdateStrategy,
    closed_form_cost,
    derive_costs,
    load_network,
)
from ttasched.presets import uniform_profile


def conv_layer(layer_id=0, **hp_overrides):
    hp = {"kernel": 3, "in_channels": 16, "out_channels": 32, "h_out": 8, "w_out": 8}
    hp.update(hp_overrides)
    return LayerSpec(
        id=layer_id,
        kind="conv2d",
        has_params=True,
        channels=hp["out_channels"],
        out_elements=hp["out_channels"] * hp["h_out"] * hp["w_out"],
        hyperparams=hp,
    )


class TestDeriveCosts:
    def test_conv_mac_count(self):
        mac, _ = derive_costs(conv_layer())
        assert mac == 3 * 3 * 16 * 32 * 8 * 8 == 294912

    def test_linear_mac_count(self):
        layer = LayerSpec(
            id=0,
            kind="linear",
            has_params=True,
            channels=64,
            out_elements=64,
            hyperparams={"in_features": 128, "out_features": 64, "batch": 4},
        )
        mac, mem = derive_costs(layer)
        assert mac == 4 * 128 * 64 == 32768
        assert mem == 4 * (128 * 64 + 4 * (128 + 64))

    def test_activation_is_elementwise_with_no_weights(self):
        layer = LayerSpec(
            id=0,
            kind="activation",
            has_params=False,
            channels=8,
            out_elements=100,
            hyperparams={"batch": 2},
        )
        mac, mem = derive_costs(layer)
        assert mac == 100 * 2
        assert mem == 4 * 2 * 100 * 2  # in + out only, zero weight bytes

    def test_batchnorm_scale_and_shift(self):
        layer = LayerSpec(
            id=0,
            kind="batchnorm",
            has_params=True,
            channels=32,
            out_elements=32 * 64,
            hyperparams={"batch": 3},
        )
        mac, _ = derive_costs(layer)
        assert mac == 2 * 32 * 64 * 3

    def test_layernorm_matches_batchnorm_formula(self):
        layer = LayerSpec(
            id=0,
            kind="layernorm",
            has_params=True,
            channels=16,
            out_elements=16 * 32,
            hyperparams={"batch": 2},
        )
        mac, mem = derive_costs(layer)
        assert mac == 2 * 16 * 32 * 2
        assert mem == 4 * (2 * 16 + 2 * 16 * 32 * 2)

    def test_pooling_window_reads(self):
        layer = LayerSpec(
            id=0,
            kind="pooling",
            has_params=False,
            channels=4,
            out_elements=100,
            hyperparams={"kernel": [2, 2]},
        )
        mac, mem = derive_costs(layer)
        assert mac == 4 * 100
        assert mem == 4 * (4 + 1) * 100

    def test_attention_projection(self):
        layer = LayerSpec(
            id=0,
            kind="attention-projection",
            has_params=True,
            channels=64,
            out_elements=16 * 64,
            hyperparams={"tokens": 16, "in_features": 64, "out_features": 64,
                         "batch": 2},
        )
        mac, mem = derive_costs(layer)
        assert mac == 2 * 16 * 64 * 64
        assert mem == 4 * (64 * 64 + 2 * 16 * (64 + 64))

    def test_feedforward_counts_both_projections(self):
        layer = LayerSpec(
            id=0,
            kind="feedforward",
            has_params=True,
            channels=32,
            out_elements=8 * 32,
            hyperparams={"tokens": 8, "hidden_dim": 32, "ffn_dim": 128},
        )
        mac, mem = derive_costs(layer)
        assert mac == 2 * 8 * 32 * 128
        assert mem == 4 * (2 * 32 * 128 + 8 * (2 * 32 + 2 * 128))

    def test_zero_dimension_rejected(self):
        with pytest.raises(InputError):
            derive_costs(conv_layer(h_out=0))

    @pytest.mark.parametrize(
        "kind, hp, field",
        [
            ("conv2d", {"kernel": 3, "in_channels": 16, "out_channels": 32,
                        "h_out": 0, "w_out": 8}, "h_out"),
            ("conv2d", {"kernel": [3, 0], "in_channels": 16, "out_channels": 32,
                        "h_out": 8, "w_out": 8}, "kernel"),
            ("linear", {"in_features": 4, "out_features": 4, "tokens": 0}, "tokens"),
            ("pooling", {"kernel": -2}, "kernel"),
            ("attention-projection", {"tokens": 8, "in_features": 0,
                                      "out_features": 4}, "in_features"),
            ("feedforward", {"tokens": 8, "hidden_dim": 32, "ffn_dim": 0}, "ffn_dim"),
            ("batchnorm", {"batch": 0}, "batch"),
        ],
    )
    def test_dimension_below_one_named(self, kind, hp, field):
        layer = LayerSpec(
            id=2, kind=kind, has_params=kind != "pooling", channels=4,
            out_elements=64, hyperparams=hp,
        )
        with pytest.raises(InputError, match=f"layer 2: hyperparams {field} must be >= 1"):
            derive_costs(layer)

    def test_missing_hyperparam_named(self):
        with pytest.raises(InputError, match="in_channels"):
            derive_costs(
                LayerSpec(
                    id=3, kind="conv2d", has_params=True, channels=8,
                    out_elements=64, hyperparams={"kernel": 3},
                )
            )

    def test_element_width_scales_traffic(self):
        _, mem4 = derive_costs(conv_layer())
        _, mem2 = derive_costs(conv_layer(), element_width=2)
        assert mem4 == 2 * mem2


class TestLoadNetwork:
    def document(self):
        return {
            "name": "tiny",
            "layers": [
                {
                    "id": 0,
                    "kind": "conv2d",
                    "has_params": True,
                    "channels": 4,
                    "out_elements": 64,
                    "mac_count": 100,
                    "mem_traffic": 400,
                },
                {
                    "id": 1,
                    "kind": "batchnorm",
                    "has_params": True,
                    "channels": 4,
                    "out_elements": 64,
                    "mac_count": 128,
                    "mem_traffic": 544,
                },
                {
                    "id": 2,
                    "kind": "linear",
                    "has_params": True,
                    "channels": 4,
                    "out_elements": 4,
                    "mac_count": 256,
                    "mem_traffic": 1296,
                },
            ],
        }

    def test_backward_indices_reverse_forward_order(self):
        net = load_network(self.document())
        assert net.n_layers == 3
        assert net.backward_index(2) == 1  # linear, output side
        assert net.backward_index(1) == 2
        assert net.backward_index(0) == 3  # conv, input side
        assert net.layer_by_backward(1).kind == "linear"

    def test_empty_network_rejected(self):
        with pytest.raises(InputError, match="empty network"):
            load_network({"name": "x", "layers": []})

    def test_duplicate_ids_rejected(self):
        doc = self.document()
        doc["layers"][1]["id"] = 0
        with pytest.raises(InputError):
            load_network(doc)

    def test_non_contiguous_ids_rejected(self):
        doc = self.document()
        doc["layers"][2]["id"] = 5
        with pytest.raises(InputError, match="contiguous"):
            load_network(doc)

    def test_unknown_kind_rejected(self):
        doc = self.document()
        doc["layers"][0]["kind"] = "softmax"
        with pytest.raises(InputError, match="unknown kind"):
            load_network(doc)

    def test_unknown_field_rejected(self):
        doc = self.document()
        doc["layers"][0]["color"] = "blue"
        with pytest.raises(InputError, match=r"^layer 0: unknown fields \['color'\]$"):
            load_network(doc)

    def test_hyperparams_fill_missing_costs(self):
        doc = self.document()
        doc["layers"][0] = {
            "id": 0,
            "kind": "conv2d",
            "has_params": True,
            "channels": 32,
            "out_elements": 32 * 64,
            "hyperparams": {
                "kernel": 3,
                "in_channels": 16,
                "out_channels": 32,
                "h_out": 8,
                "w_out": 8,
            },
        }
        net = load_network(doc)
        assert net.layers[0].mac_count == 294912

    def test_cost_hyperparam_disagreement_rejected(self):
        doc = self.document()
        doc["layers"][0] = {
            "id": 0,
            "kind": "conv2d",
            "has_params": True,
            "channels": 32,
            "out_elements": 32 * 64,
            "mac_count": 294912 * 2,  # off by 2x
            "hyperparams": {
                "kernel": 3,
                "in_channels": 16,
                "out_channels": 32,
                "h_out": 8,
                "w_out": 8,
            },
        }
        with pytest.raises(InputError, match="disagrees"):
            load_network(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(InputError, match="object"):
            load_network(["not", "a", "network"])

    def test_unknown_top_level_field_rejected(self):
        doc = self.document()
        doc["framework"] = "demo"
        with pytest.raises(InputError, match=r"^network: unknown fields \['framework'\]$"):
            load_network(doc)

    def test_missing_layer_field_named(self):
        doc = self.document()
        del doc["layers"][1]["channels"]
        with pytest.raises(InputError, match="channels"):
            load_network(doc)

    def test_out_of_order_layers_accepted(self):
        doc = self.document()
        doc["layers"] = list(reversed(doc["layers"]))
        net = load_network(doc)
        assert [l.id for l in net.layers] == [0, 1, 2]

    def test_explicit_costs_required_without_hyperparams(self):
        doc = self.document()
        del doc["layers"][1]["mem_traffic"]
        with pytest.raises(InputError, match="explicit costs or hyperparams"):
            load_network(doc)

    def test_mem_traffic_disagreement_rejected(self):
        doc = self.document()
        doc["layers"][0] = {
            "id": 0, "kind": "conv2d", "has_params": True,
            "channels": 32, "out_elements": 32 * 64,
            "mem_traffic": 1,  # wildly off
            "hyperparams": {"kernel": 3, "in_channels": 16, "out_channels": 32,
                            "h_out": 8, "w_out": 8},
        }
        with pytest.raises(InputError, match="mem_traffic"):
            load_network(doc)

    def test_param_free_kind_cannot_claim_params(self):
        doc = self.document()
        doc["layers"][0] = {
            "id": 0,
            "kind": "activation",
            "has_params": True,
            "channels": 4,
            "out_elements": 64,
            "mac_count": 64,
            "mem_traffic": 512,
        }
        with pytest.raises(InputError):
            load_network(doc)


def all_selectable_network(n):
    layers = [
        LayerSpec(
            id=i,
            kind="conv2d",
            has_params=True,
            channels=2,
            out_elements=8,
            mac_count=10,
            mem_traffic=40,
        )
        for i in range(n)
    ]
    return Network(name=f"n{n}", layers=tuple(layers))


class TestStrategyCost:
    def test_single_output_layer(self):
        cost = closed_form_cost(uniform_profile(3), UpdateStrategy(3, (1,)).selected)
        assert cost.t_backward == 1.0
        assert cost.t_reforward == 1.0
        assert cost.t_total_extra == 2.0

    def test_spanning_selection(self):
        cost = closed_form_cost(uniform_profile(3), UpdateStrategy(3, (1, 3)).selected)
        assert cost.t_backward == 4.0
        assert cost.t_reforward == 3.0
        assert cost.t_total_extra == 7.0

    def test_empty_strategy_is_free(self):
        cost = closed_form_cost(uniform_profile(3), UpdateStrategy(3, ()).selected)
        assert (cost.t_backward, cost.t_reforward, cost.t_total_extra) == (0, 0, 0)

    def test_selecting_param_free_layer_rejected(self):
        layers = (
            LayerSpec(id=0, kind="conv2d", has_params=True, channels=2,
                      out_elements=8, mac_count=10, mem_traffic=40),
            LayerSpec(id=1, kind="activation", has_params=False, channels=2,
                      out_elements=8, mac_count=8, mem_traffic=64),
        )
        net = Network(name="mixed", layers=layers)
        with pytest.raises(InputError, match="parameter-free"):
            UpdateStrategy(2, (1,)).validate_against(net)

    def test_length_mismatch_rejected(self):
        net = all_selectable_network(3)
        with pytest.raises(InputError, match="strategy covers 4 layers, network has 3"):
            UpdateStrategy(4, (1,)).validate_against(net)

    def test_out_of_range_backward_index_rejected(self):
        with pytest.raises(InputError, match="1.."):
            UpdateStrategy(3, (5,))

    def test_strategy_vector_round_trip(self):
        strat = UpdateStrategy(5, (4, 1))
        assert strat.selected == (1, 4)  # normalized ascending
        assert strat.deepest == 4


def random_dyadic_profile(rng, n):
    """Profiles on a 1/1024 grid keep every sum exact in binary floating
    point, so chain/closed-form identities can be asserted exactly."""
    quant = lambda arr: np.round(arr * 1024) / 1024
    pad = lambda arr: np.concatenate(([0.0], arr))
    from ttasched.latency import LatencyProfile

    return LatencyProfile.from_components(
        t_f=pad(quant(rng.uniform(0.05, 2.0, n))),
        t_dw=pad(quant(rng.uniform(0.05, 2.0, n))),
        t_dx=pad(quant(rng.uniform(0.05, 2.0, n))),
        t_re=pad(quant(rng.uniform(0.05, 2.0, n))),
    )


class TestCostProperties:
    def test_deepest_layer_dominance_exhaustive(self):
        # reforward and activation-gradient chains depend only on the
        # deepest selection, never on which shallower layers join it
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            profile = random_dyadic_profile(rng, n)
            by_deepest = {}
            for r in range(1, n + 1):
                for combo in itertools.combinations(range(1, n + 1), r):
                    cost = closed_form_cost(profile, combo)
                    d = combo[-1]
                    dx_term = cost.t_backward - sum(profile.t_dw[b] for b in combo)
                    by_deepest.setdefault(d, set()).add(
                        (round(cost.t_reforward, 9), round(dx_term, 9))
                    )
            for d, observed in by_deepest.items():
                assert len(observed) == 1, f"deepest={d} not dominant: {observed}"

    def test_adding_a_layer_never_reduces_cost(self):
        rng = np.random.default_rng(12)
        n = 9
        profile = random_dyadic_profile(rng, n)
        for _ in range(300):
            size = int(rng.integers(0, n))
            base = tuple(sorted(rng.choice(range(1, n + 1), size=size, replace=False)))
            extra = int(rng.integers(1, n + 1))
            if extra in base:
                continue
            grown = tuple(sorted(base + (extra,)))
            c0 = closed_form_cost(profile, UpdateStrategy(n, base).selected)
            c1 = closed_form_cost(profile, UpdateStrategy(n, grown).selected)
            assert c1.t_backward >= c0.t_backward
            assert c1.t_reforward >= c0.t_reforward
            assert c1.t_total_extra >= c0.t_total_extra

    def test_deep_single_layer_costs_at_least_shallow_four(self):
        # with uniform per-layer costs, updating only the layer furthest
        # from the output is no cheaper than updating the four nearest ones
        for n in range(8, 16):
            profile = uniform_profile(n)
            deep = closed_form_cost(profile, (n,))
            shallow = closed_form_cost(profile, (1, 2, 3, 4))
            assert deep.t_total_extra >= shallow.t_total_extra
