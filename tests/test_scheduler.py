import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ttasched.errors import InputError
from ttasched.importance import ImportanceVector
from ttasched.latency import LatencyProfile
from ttasched.network import (
    StrategyCost,
    UpdateStrategy,
    closed_form_cost,
    closed_form_parts,
)
from ttasched.presets import uniform_profile, worked_instance
from ttasched.scheduler import (
    BRUTE_FORCE_MAX_LAYERS,
    ScheduleResult,
    SchedulerConfig,
    _exact_gain,
    _float_view,
    _result,
    _selection,
    _slack,
    brute_force,
    budget,
    certify,
    random_instance,
    solve_dp,
)


class TestSchedulerConfig:
    def test_sigma_bounds(self):
        with pytest.raises(InputError):
            SchedulerConfig(sigma=0.0)
        with pytest.raises(InputError):
            SchedulerConfig(sigma=1.5)
        assert SchedulerConfig(sigma=1.0).sigma == 1.0

    def test_shipped_defaults(self):
        cfg = SchedulerConfig()
        assert cfg.sigma == 0.33


class TestImportanceFile:
    def test_round_trip(self, tmp_path):
        from ttasched.scheduler import load_importance_file

        path = tmp_path / "imp.json"
        path.write_text('{"a": [5.0, 1.0, 4.0]}')
        imp = load_importance_file(path)
        assert imp.a.tolist() == [0.0, 5.0, 1.0, 4.0]

    def test_malformed_rejected(self, tmp_path):
        from ttasched.scheduler import load_importance_file

        path = tmp_path / "imp.json"
        path.write_text('{"importances": [1.0]}')
        with pytest.raises(InputError, match="importance file"):
            load_importance_file(path)


class TestBudget:
    def test_half_budget(self):
        assert budget(100.0, 20.0, 0.5).ms == 30.0

    def test_sigma_one_no_forward(self):
        assert budget(100.0, 0.0, 1.0).ms == 100.0

    def test_boundary_clips_to_zero_with_flag(self):
        got = budget(100.0, 50.0, 0.5)
        assert got.ms == 0.0
        assert got.clipped

    def test_forward_exceeding_share_clips(self):
        got = budget(100.0, 60.0, 0.5)
        assert got.ms == 0.0 and got.clipped


def config_for_budget(profile, target_ms):
    sigma = (target_ms + profile.t_f_total) / profile.t_total
    return SchedulerConfig(sigma=sigma)


class TestWorkedInstance:
    """Three layers, unit costs, importances (5, 1, 4) by backward index;
    every optimum below is a hand enumeration over all eight strategies."""

    expected = {
        2.0: ((1,), 5.0),
        6.0: ((1, 2), 6.0),
        7.0: ((1, 3), 9.0),
        8.0: ((1, 2, 3), 10.0),
    }

    @pytest.mark.parametrize("target", sorted(expected))
    def test_optimal_selection(self, target):
        imp, profile = worked_instance()
        result = solve_dp(imp, profile, config_for_budget(profile, target))
        want_sel, want_gain = self.expected[target]
        assert result.strategy.selected == want_sel
        assert result.achieved_importance == want_gain
        assert result.budget_ms == pytest.approx(target)

    @pytest.mark.parametrize("target", sorted(expected))
    def test_matches_oracle(self, target):
        imp, profile = worked_instance()
        result = solve_dp(imp, profile, config_for_budget(profile, target))
        oracle = brute_force(imp, profile, result.budget_ms)
        assert oracle.strategy.selected == result.strategy.selected
        assert oracle.achieved_importance == result.achieved_importance


class TestBruteForce:
    def test_zero_budget_empty(self):
        imp, profile = worked_instance()
        result = brute_force(imp, profile, 0.0)
        assert result.strategy.is_empty
        assert result.achieved_importance == 0.0

    def test_indifferent_objective_prefers_empty(self):
        profile = uniform_profile(4)
        imp = ImportanceVector(a=np.zeros(5))
        result = brute_force(imp, profile, 100.0)
        assert result.strategy.is_empty

    def test_layer_guard(self):
        profile = uniform_profile(21)
        imp = ImportanceVector(a=np.concatenate(([0.0], np.ones(21))))
        with pytest.raises(InputError, match="capped at 20 selectable layers, got 21"):
            brute_force(imp, profile, 5.0)

    def test_guard_counts_selectable_layers(self):
        # 2**k subsets is the work: 24 layers of which 8 are selectable
        profile = uniform_profile(24, selectable=[b % 3 == 0 for b in range(24)])
        imp = ImportanceVector(a=np.concatenate(([0.0], np.arange(1.0, 25.0))))
        search = solve_dp(imp, profile, SchedulerConfig(0.7))
        oracle = brute_force(imp, profile, search.budget_ms)
        assert oracle.explored == 2**8
        assert oracle.strategy.selected == search.strategy.selected == (4, 7, 10, 13, 16, 19)


class TestSolveDpEdges:
    def test_zero_budget_short_circuits(self):
        imp, profile = worked_instance()
        result = solve_dp(imp, profile, SchedulerConfig(sigma=0.25))  # 3 = T_f
        assert result.strategy.is_empty
        assert result.budget_clipped
        assert result.budget_ms == 0.0

    def test_clipped_budget_still_admits_zero_cost_layers(self):
        # backward layer 1 costs nothing to update, so it fits a 0 ms budget
        # and the search must take it, as the oracle does
        profile = LatencyProfile.from_components(
            [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]
        )
        imp = ImportanceVector(a=np.array([0.0, 3.0, 5.0]))
        result = solve_dp(imp, profile, SchedulerConfig(sigma=0.1))
        assert result.budget_clipped and result.budget_ms == 0.0
        assert result.strategy.selected == (1,)
        assert brute_force(imp, profile, 0.0).strategy.selected == (1,)

    def test_unselectable_layers_never_selected_but_cost(self):
        # layer 2 (backward) is frozen; selecting 3 must still pay its dx
        profile = uniform_profile(3, selectable=[True, False, True])
        imp = ImportanceVector(a=np.array([0.0, 0.0, 100.0, 4.0]))
        result = solve_dp(imp, profile, config_for_budget(profile, 6.0))
        assert result.strategy.selected == (3,)
        assert result.predicted_extra.t_total_extra == 6.0  # dw + 2 dx + 3 re
        assert result.achieved_importance == 4.0

    def test_no_selectable_layers(self):
        profile = uniform_profile(3, selectable=[False, False, False])
        imp = ImportanceVector(a=np.zeros(4))
        result = solve_dp(imp, profile, config_for_budget(profile, 5.0))
        assert result.strategy.is_empty

    def test_importance_profile_length_mismatch(self):
        imp = ImportanceVector(a=np.zeros(4))
        with pytest.raises(InputError):
            solve_dp(imp, uniform_profile(5), SchedulerConfig())

    def test_result_document_schema(self):
        imp, profile = worked_instance()
        doc = solve_dp(imp, profile, config_for_budget(profile, 7.0)).to_document()
        assert set(doc) == {
            "selected_backward_indices",
            "achieved_importance",
            "t_backward_ms",
            "t_reforward_ms",
            "budget_ms",
            "slack_ms",
            "subproblems",
        }
        assert doc["selected_backward_indices"] == [1, 3]
        assert set(doc["subproblems"]) == {"explored", "pruned"}


class TestDepthPrefixPrune:
    def test_layers_beyond_reachable_depth_are_skipped(self):
        # budget 2.5 on unit costs: the activation-gradient prefix alone
        # (1 ms per layer) exceeds the budget from depth 4 on, so layers 4
        # and 5 must be pruned wholesale and never selected
        profile = uniform_profile(5)
        imp = ImportanceVector(a=np.array([0.0, 0.1, 0.1, 0.1, 50.0, 50.0]))
        result = solve_dp(imp, profile, config_for_budget(profile, 2.5))
        assert result.strategy.deepest <= 3
        assert result.pruned > 0
        oracle = brute_force(imp, profile, result.budget_ms)
        assert oracle.strategy.selected == result.strategy.selected


class TestOracleEquivalence:
    def test_random_instances_match(self):
        report = certify(instances=200, max_n=14, seed=0)
        assert report.all_match, report.failures[:1]

    def test_high_resolution_matches_too(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            inst = random_instance(rng, n_min=4, n_max=12)
            cfg = SchedulerConfig(sigma=inst["sigma"])
            dp = solve_dp(inst["importance"], inst["profile"], cfg)
            bf = brute_force(inst["importance"], inst["profile"], dp.budget_ms)
            assert dp.strategy.selected == bf.strategy.selected
            assert dp.achieved_importance == bf.achieved_importance


    def test_rounding_coincident_prefixes_keep_the_smaller_vector(self):
        # 0.3 and 0.1 + 0.2 differ by an ulp, but both round to 1.3 once the
        # deep layer's 1.0 is added, so (1, 3) and (2, 3) tie exactly and
        # the smaller vector (2, 3) must win even though (1,) is the
        # cheaper prefix
        pad = lambda arr: np.concatenate(([0.0], arr))
        profile = LatencyProfile.from_components(
            pad(np.ones(3)), pad([0.3, 0.1 + 0.2, 1.0]), pad(np.zeros(3)),
            pad(np.zeros(3)),
        )
        imp = ImportanceVector(a=pad([1.0, 1.0, 10.0]))
        dp = solve_dp(imp, profile, config_for_budget(profile, 1.4))
        assert dp.strategy.selected == (2, 3)
        assert brute_force(imp, profile, dp.budget_ms).strategy.selected == (2, 3)


_FINITE = dict(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def float_instances(draw, max_layers=12):
    """A profile of arbitrary non-negative floats up to 100 and a sigma that is
    either free or pinned to some strategy's exact closed-form cost."""
    n = draw(st.integers(1, max_layers))
    column = lambda: np.concatenate(
        ([0.0], draw(st.lists(st.floats(**_FINITE), min_size=n, max_size=n)))
    )
    mask = lambda: [False] + draw(st.lists(st.booleans(), min_size=n, max_size=n))
    profile = LatencyProfile.from_components(
        column(), column(), column(), column(), selectable=mask()
    )
    importance = ImportanceVector(a=column())
    assume(profile.t_total > 0)
    pin = mask()
    if draw(st.booleans()):
        chosen = tuple(b for b in range(1, n + 1) if pin[b] and profile.selectable[b])
        extra = closed_form_cost(profile, chosen).t_total_extra
        sigma = min((extra + profile.t_f_total) / profile.t_total, 1.0)
    else:
        sigma = draw(st.floats(min_value=0.0, max_value=1.0))
    assume(sigma > 0.0)
    return importance, profile, sigma


class TestFloatOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(float_instances())
    def test_search_equals_oracle_on_arbitrary_floats(self, instance):
        importance, profile, sigma = instance
        dp = solve_dp(importance, profile, SchedulerConfig(sigma=sigma))
        bf = brute_force(importance, profile, dp.budget_ms)
        assert dp.strategy.selected == bf.strategy.selected
        assert dp.achieved_importance == bf.achieved_importance
        assert dp.predicted_extra.t_total_extra <= dp.budget_ms


# ROADMAP item 3a's tie-prone instances: every layer selectable, no
# activation-gradient or reforward time, latencies on quarter steps and
# importances whose sums round, so many selections tie or nearly tie
TIE_LATENCIES = (0.25, 0.5, 0.75, 1.0)
TIE_IMPORTANCES = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.1, 2.2, 3.3, 1e-16, 5e-17)


def tie_prone_instance(t_f, t_dw, a):
    """The importance vector and profile of per-layer columns, backward
    order; a selection costs its summed ``t_dw`` alone."""
    pad = lambda column: [0.0, *column]
    zeros = [0.0] * (len(t_f) + 1)
    profile = LatencyProfile.from_components(
        pad(t_f), pad(t_dw), zeros, zeros, selectable=[False] + [True] * len(t_f)
    )
    return ImportanceVector(a=np.array(pad(a))), profile


@st.composite
def tie_prone_instances(draw):
    n = draw(st.integers(5, 11))
    column = lambda values: draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    t_f, t_dw, a = column(TIE_LATENCIES), column(TIE_LATENCIES), column(TIE_IMPORTANCES)
    return t_f, t_dw, a, draw(st.floats(min_value=0.3, max_value=0.9))


class TestGainSlack:
    """The staircase keeps a dominated entry whose gain trails its leader's
    by no more than ``gain_slack``: adding the same deeper layers to both can
    round their gains to an exact tie that the kept entry's smaller vector
    wins. The examples are shrunk instances on which a search with
    ``gain_slack = 0`` returns the larger vector of such a tie."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    # at cost 1.5 the prefix (2, 3) gains 0.6 + 0.7 = 1.2999999999999998,
    # an ulp behind (1, 2, 4)'s 1.3; adding layer 5's 2.2 rounds both to 3.5,
    # and the smaller vector (2, 3, 5) wins that tie
    @example(instance=([1.0] * 5, [0.5, 0.5, 1.0, 0.5, 1.0], [0.6, 0.6, 0.7, 0.1, 2.2], 0.9))
    @example(instance=([1.0] * 5, [0.5, 1.0, 0.5, 1.0, 1.0], [1e-16, 0.1, 5e-17, 0.2, 1.1], 0.86))
    @example(instance=([1.0] * 5, [0.25, 0.75, 0.5, 0.5, 0.25], [1.1, 3.3, 2.2, 2.2, 2.2], 0.9))
    @example(instance=([0.5, 1.0, 0.25, 0.5, 0.5], [0.75, 0.25, 0.5, 0.5, 0.25], [1.1, 0.2, 0.7, 0.6, 0.6], 0.8))
    @example(instance=([1.0, 1.0, 1.0, 0.5, 0.5, 0.25], [0.25, 0.25, 0.25, 0.5, 1.0, 1.0], [0.7, 0.4, 0.2, 0.6, 2.2, 0.1], 0.8))
    @given(instance=tie_prone_instances())
    def test_search_equals_oracle_on_near_tied_gains(self, instance):
        *columns, sigma = instance
        importance, profile = tie_prone_instance(*columns)
        dp = solve_dp(importance, profile, SchedulerConfig(sigma=sigma))
        bf = brute_force(importance, profile, dp.budget_ms)
        assert dp.strategy.selected == bf.strategy.selected
        assert dp.achieved_importance == bf.achieved_importance


class TestFeasibility:
    def test_returned_strategy_always_fits_budget(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            inst = random_instance(rng, n_min=4, n_max=12)
            dp = solve_dp(
                inst["importance"],
                inst["profile"],
                SchedulerConfig(sigma=inst["sigma"]),
            )
            assert dp.predicted_extra.t_total_extra <= dp.budget_ms or (
                dp.strategy.is_empty and dp.budget_ms == 0.0
            )
            assert dp.slack_ms >= 0.0


class TestMonotonicity:
    def test_budget_monotone(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            inst = random_instance(rng, n_min=4, n_max=10)
            profile = inst["profile"]
            extra = profile.t_b_total + profile.t_re_total
            gains = []
            for frac in np.linspace(0.05, 1.0, 12):
                cfg = config_for_budget(profile, frac * extra)
                gains.append(
                    solve_dp(inst["importance"], profile, cfg).achieved_importance
                )
            assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))


class TestChainConsistency:
    def test_backtracked_strategy_cost_is_the_closed_form(self):
        # every backtracked optimum's predicted cost is the closed form of
        # its strategy; budgets swept so each subset size wins somewhere
        from ttasched.network import closed_form_cost
        from tests.test_network import all_selectable_network, random_dyadic_profile

        rng = np.random.default_rng(43)
        for n in range(2, 11):
            net = all_selectable_network(n)
            profile = random_dyadic_profile(rng, n)
            imp = ImportanceVector(
                a=np.concatenate(([0.0], rng.uniform(0.5, 5.0, n)))
            )
            extra = profile.t_b_total + profile.t_re_total
            for frac in np.linspace(0.1, 1.0, 8):
                result = solve_dp(imp, profile, config_for_budget(profile, frac * extra))
                result.strategy.validate_against(net)
                closed = closed_form_cost(profile, result.strategy.selected)
                assert result.predicted_extra.t_total_extra == closed.t_total_extra


class TestTieStress:
    def test_coarse_grids_and_tiny_importances_still_match_oracle(self):
        # quarter-unit cost grids and importances from {0, 1, 2} manufacture
        # a dense field of exact ties; the deterministic tie-break chain
        # must keep the search and the oracle in lockstep
        rng = np.random.default_rng(1234)
        pad = lambda arr: np.concatenate(([0.0], arr))
        for _ in range(1500):
            n = int(rng.integers(2, 11))
            sel = rng.random(n) < 0.7
            if not sel.any():
                sel[0] = True
            grid = 4.0
            dw = np.round(rng.uniform(0, 2, n) * grid) / grid
            dw[~sel] = 0.0
            dx = np.round(rng.uniform(0, 2, n) * grid) / grid
            re = np.round(rng.uniform(0, 2, n) * grid) / grid
            tf = np.round(rng.uniform(0.25, 1, n) * grid) / grid
            a = rng.integers(0, 3, n).astype(float)
            a[~sel] = 0.0
            profile = LatencyProfile.from_components(
                pad(tf), pad(dw), pad(dx), pad(re),
                selectable=np.concatenate(([False], sel)),
            )
            imp = ImportanceVector(a=pad(a))
            extra = profile.t_b_total + profile.t_re_total
            if extra <= 0:
                continue
            frac = float(rng.uniform(0.0, 1.0))
            sigma = min(
                max((frac * extra + profile.t_f_total) / profile.t_total, 1e-9), 1.0
            )
            dp = solve_dp(imp, profile, SchedulerConfig(sigma=sigma))
            bf = brute_force(imp, profile, dp.budget_ms)
            assert dp.strategy.selected == bf.strategy.selected
            assert dp.achieved_importance == bf.achieved_importance


class TestScale:
    def test_large_chain_solves_fast(self):
        from ttasched.latency import build_profile
        from ttasched.presets import (
            demo_device,
            offline_from_costs,
            resource_conditions,
            synthetic_network,
        )
        import time

        network = synthetic_network(120)
        device = demo_device()
        profile = build_profile(
            network,
            offline_from_costs(network, device),
            device,
            resource_conditions()["cache_poor"],
        )
        rng = np.random.default_rng(0)
        a = np.concatenate(([0.0], rng.uniform(0, 5, 120)))
        a[~profile.selectable] = 0.0
        started = time.perf_counter()
        result = solve_dp(ImportanceVector(a=a), profile, SchedulerConfig(sigma=0.4))
        assert time.perf_counter() - started < 5.0
        assert not result.strategy.is_empty
        assert result.predicted_extra.t_total_extra <= result.budget_ms


def _vector_key(selected: tuple[int, ...]) -> tuple[int, ...]:
    """Reference: a selection as a 0/1 vector over backward indices
    1..deepest, whose tuple order is the search's final tie-break."""
    if not selected:
        return ()
    vec = [0] * selected[-1]
    for b in selected:
        vec[b - 1] = 1
    return tuple(vec)


def _key(selected: tuple[int, ...], n: int) -> int:
    key = 0
    for b in selected:
        key |= 1 << (n - b)
    return key


@st.composite
def selection_pairs(draw):
    n = draw(st.integers(1, 64))
    subset = st.lists(st.integers(1, n), unique=True).map(lambda s: tuple(sorted(s)))
    return n, draw(subset), draw(subset)


class TestSelectionKey:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @example(pair=(3, (1,), (1, 2)))
    @example(pair=(3, (), (3,)))
    @example(pair=(5, (2,), (1, 5)))
    @example(pair=(5, (1, 3, 5), (2, 3, 5)))
    @given(pair=selection_pairs())
    def test_key_order_is_vector_order(self, pair):
        n, first, second = pair
        k1, k2 = _key(first, n), _key(second, n)
        v1, v2 = _vector_key(first), _vector_key(second)
        assert (k1 < k2, k1 == k2) == (v1 < v2, v1 == v2)
        assert _selection(k1, n) == first and _selection(k2, n) == second
        if first and second and first[-1] == second[-1]:
            # the oracle's tie-break: reverse tuple order is vector order
            assert (first > second) == (v1 < v2)


SWEEP_PINS = [
    (24, 0.4, "2.38079624633605", 32, 16, (
        1, 3, 5, 6, 8,
    )),
    (24, 0.8, "7.047304759436306", 212, 4, (
        1, 5, 6, 8, 9, 11, 14, 15, 17, 18, 20,
    )),
    (96, 0.4, "10.276015204981125", 551, 58, (
        1, 3, 5, 6, 8, 9, 12, 14, 15, 17, 21, 23, 24, 26, 29, 30,
    )),
    (96, 0.8, "26.30577796566946", 5153, 15, (
        1, 3, 5, 6, 8, 9, 12, 14, 15, 17, 21, 23, 24, 26, 29, 30, 32, 36, 38, 39, 41,
        44, 45, 50, 51, 53, 54, 56, 57, 59, 60, 62, 63, 65, 66, 68, 69, 71, 72, 74, 75,
        77, 78,
    )),
    (240, 0.4, "23.841135708651045", 4183, 189, (
        1, 5, 6, 8, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 35,
        38, 39, 41, 42, 45, 47, 48, 50, 51, 53, 54, 56, 57, 59, 60, 62, 63, 66, 68, 69,
        71,
    )),
    (240, 0.8, "63.6800603233724", 54836, 38, (
        1, 5, 6, 8, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 35,
        39, 41, 42, 45, 47, 48, 50, 51, 53, 54, 57, 59, 60, 62, 63, 66, 68, 69, 71, 74,
        75, 77, 78, 80, 81, 83, 84, 86, 87, 89, 90, 92, 93, 95, 96, 98, 99, 101, 102,
        105, 107, 108, 110, 113, 114, 116, 117, 119, 120, 122, 123, 125, 126, 128, 131,
        132, 134, 135, 137, 138, 140, 141, 143, 144, 146, 147, 149, 150, 152, 153, 155,
        156, 158, 159, 162, 164, 167, 168, 170, 173, 174, 176, 177, 179, 180, 182, 183,
        188, 189, 191,
    )),
]


class TestPinnedSweep:
    """The sweep's instances (``benchmarks/sweep.py``: ``synthetic_network(n)``
    under the ``contended`` condition, seeded uniform importances), with the
    search's selection, gain, explored and pruned counts pinned to the last
    bit: a rewrite of the search must reproduce them exactly."""

    @pytest.mark.parametrize(
        "n, sigma, gain, explored, pruned, selected",
        SWEEP_PINS,
        ids=[f"n{p[0]}_sigma{p[1]}" for p in SWEEP_PINS],
    )
    def test_search_reproduces_pinned_results(
        self, n, sigma, gain, explored, pruned, selected
    ):
        from ttasched.latency import build_profile
        from ttasched.presets import (
            demo_edge_device,
            offline_from_costs,
            resource_conditions,
            synthetic_network,
        )

        network = synthetic_network(n)
        device = demo_edge_device()
        profile = build_profile(
            network,
            offline_from_costs(network, device),
            device,
            resource_conditions()["contended"],
        )
        rng = np.random.default_rng(n)
        a = np.zeros(n + 1)
        a[profile.selectable] = rng.uniform(0.0, 1.0, int(profile.selectable.sum()))
        result = solve_dp(ImportanceVector(a=a), profile, SchedulerConfig(sigma=sigma))
        assert result.strategy.selected == selected
        assert repr(result.achieved_importance) == gain
        assert (result.explored, result.pruned) == (explored, pruned)


# Quanta of the grid oracle's instances: latencies are multiples of 1/64 ms
# and importances of 1/1024, so every sum the search takes is exact
GRID_Q = 64
GRID_A = 1024


def grid_optimum(a, t_dw, t_dx, t_re, selectable, cap) -> tuple[int, int, int]:
    """The best ``(gain, cost, deepest)``, in quanta, of an instance whose
    importances and latencies are integer counts of quanta, under a budget
    of ``cap`` latency quanta: the capacity-indexed 0/1 knapsack DP
    (Bellman, 1957; Kellerer, Pferschy & Pisinger, 2004), in integers.

    Before layer ``d`` is folded in, ``best[c]`` is the largest gain of a
    selection among the shallower layers whose weight-gradient quanta sum
    to exactly ``c``; a selection whose deepest layer is ``d`` adds ``d``'s
    own and pays the prefixes ``cum_dx[d - 1] + cum_re[d]``. Of equal gains
    at one ``d``, the first argmax over ``c`` is the cheapest; walking ``d``
    upward and keeping only strict improvements in (gain, then lower cost)
    keeps the shallowest deepest layer."""
    unreachable = -(1 << 62)
    best = np.full(cap + 1, unreachable, dtype=np.int64)
    best[0] = 0
    answer = (0, 0, 0)  # the empty strategy
    dx_prefix = re_prefix = 0
    for d in range(1, len(a)):
        re_prefix += t_re[d]
        fixed = dx_prefix + re_prefix
        dx_prefix += t_dx[d]
        if not selectable[d]:
            continue
        w = t_dw[d]
        room = cap - fixed - w
        if room >= 0:
            c = int(np.argmax(best[: room + 1]))
            gain, cost = int(best[c]) + a[d], c + w + fixed
            if gain > answer[0] or (gain == answer[0] and cost < answer[1]):
                answer = (gain, cost, d)
        if w <= cap:
            best[w:] = np.maximum(best[w:], best[: cap + 1 - w] + a[d])
    return answer


def grid_instance(kind: str, n: int, seed: int):
    """Latency and importance quanta of an ``n``-layer instance: the sweep's
    profile (``TestPinnedSweep``) rounded to the grid, or random quanta,
    with small ranges for ``"ties"`` so that equal gains and costs abound."""
    from ttasched.latency import build_profile
    from ttasched.presets import (
        demo_edge_device,
        offline_from_costs,
        resource_conditions,
        synthetic_network,
    )

    rng = np.random.default_rng(seed)
    if kind == "sweep":
        network = synthetic_network(n)
        device = demo_edge_device()
        profile = build_profile(
            network,
            offline_from_costs(network, device),
            device,
            resource_conditions()["contended"],
        )
        quanta = [
            np.rint(getattr(profile, name) * GRID_Q).astype(np.int64)
            for name in ("t_f", "t_dw", "t_dx", "t_re")
        ]
        selectable = profile.selectable
    else:
        top = 64 if kind == "random" else 4
        quanta = [rng.integers(1, top // 2 + 1, n + 1)] + [
            rng.integers(0, top, n + 1) for _ in range(3)
        ]
        selectable = np.concatenate(([False], rng.random(n) < 0.75))
    for q in quanta:
        q[0] = 0
    a = np.zeros(n + 1, dtype=np.int64)
    top_a = GRID_A if kind != "ties" else 3
    a[selectable] = rng.integers(0, top_a + 1, int(selectable.sum()))
    return a, quanta, selectable


class TestGridOracle:
    """On grid instances the search returns the exact optimum's gain, cost
    and deepest layer, beyond the enumeration oracle's reach: an integer
    DP over capacities, which shares no code and no summation order with
    ``solve_dp``, gives them."""

    @pytest.mark.parametrize(
        "kind, n, sigma",
        [
            (kind, n, sigma)
            for kind in ("sweep", "random", "ties")
            for n in (96, 240)
            for sigma in (0.3, 0.6, 0.9)
        ]
        + [("sweep", 480, 0.25), ("random", 480, 0.2)],
    )
    def test_search_finds_the_grid_optimum(self, kind, n, sigma):
        a, (t_f, t_dw, t_dx, t_re), selectable = grid_instance(kind, n, n + int(100 * sigma))
        profile = LatencyProfile.from_components(
            t_f / GRID_Q, t_dw / GRID_Q, t_dx / GRID_Q, t_re / GRID_Q, selectable=selectable
        )
        result = solve_dp(ImportanceVector(a=a / GRID_A), profile, SchedulerConfig(sigma=sigma))
        cap = math.floor(budget(profile.t_total, profile.t_f_total, sigma).ms * GRID_Q)
        gain, cost, deepest = grid_optimum(
            a.tolist(), t_dw.tolist(), t_dx.tolist(), t_re.tolist(), selectable.tolist(), cap
        )
        assert (
            result.achieved_importance,
            result.predicted_extra.t_total_extra,
            result.strategy.deepest,
        ) == (gain / GRID_A, cost / GRID_Q, deepest)
        assert deepest > 0


class TestTieBreaks:
    def test_equal_importance_prefers_cheaper(self):
        profile = uniform_profile(3)
        imp = ImportanceVector(a=np.array([0.0, 5.0, 5.0, 5.0]))
        # sigma = 1 admits the full set (cost 8 <= 9); a tight budget leaves
        # only singletons, and the cheapest (backward 1) must win
        result = solve_dp(imp, profile, config_for_budget(profile, 9.0))
        tight = solve_dp(imp, profile, config_for_budget(profile, 4.0))
        assert result.achieved_importance == 15.0
        assert tight.strategy.selected == (1,)

    def test_all_zero_importance_yields_empty(self):
        profile = uniform_profile(4)
        imp = ImportanceVector(a=np.zeros(5))
        result = solve_dp(imp, profile, config_for_budget(profile, 12.0))
        assert result.strategy.is_empty

    def test_zero_gain_is_reported_as_positive_zero(self):
        profile = uniform_profile(3)
        imp = ImportanceVector(a=np.array([0.0, -0.0, 0.0, -0.0]))
        dp = solve_dp(imp, profile, config_for_budget(profile, 9.0))
        bf = brute_force(imp, profile, dp.budget_ms)
        for result in (dp, bf):
            assert result.strategy.is_empty
            assert math.copysign(1.0, result.achieved_importance) == 1.0

    def test_dp_and_oracle_agree_on_constructed_ties(self):
        # uniform costs and equal importances create many exact ties
        profile = uniform_profile(6)
        imp = ImportanceVector(a=np.concatenate(([0.0], np.full(6, 2.0))))
        for target in np.arange(2.0, 18.5, 1.0):
            cfg = config_for_budget(profile, float(target))
            dp = solve_dp(imp, profile, cfg)
            bf = brute_force(imp, profile, dp.budget_ms)
            assert dp.strategy.selected == bf.strategy.selected
            assert dp.achieved_importance == bf.achieved_importance


def constructed_cost(profile, selected) -> StrategyCost:
    """The closed form on the profile's arrays, built by the constructor."""
    if not selected:
        return StrategyCost(0.0, 0.0)
    t_dw_sum = 0.0
    for b in selected:
        t_dw_sum += float(profile.t_dw[b])
    d = selected[-1]
    return StrategyCost(
        t_dw_sum + float(profile.cum_dx[d - 1]), float(profile.cum_re[d])
    )


class TestTrustedPaths:
    """The costs and results built without their constructors equal, hash
    and serialize as the constructors' would."""

    @pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "float"])
    @pytest.mark.parametrize("seed", range(8))
    def test_trusted_paths_build_what_the_constructors_build(self, seed, dyadic):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_min=4, n_max=12, dyadic=dyadic)
        importance, profile = inst["importance"], inst["profile"]
        view = _float_view(importance, profile)
        layers = [b for b in range(1, profile.n_layers + 1) if profile.selectable[b]]
        picks = [(), tuple(layers), tuple(b for b in layers if rng.random() < 0.5)]
        for selected in picks:
            on_view = closed_form_cost(view, selected)
            on_arrays = closed_form_cost(profile, selected)
            built = constructed_cost(profile, selected)
            assert repr(on_view) == repr(on_arrays) == repr(built)
            assert on_view == built and hash(on_view) == hash(built)
            assert type(on_view.t_backward) is type(on_view.t_reforward) is float

        dp = solve_dp(importance, profile, SchedulerConfig(sigma=inst["sigma"]))
        bf = brute_force(importance, profile, dp.budget_ms)
        for result in (dp, bf):
            selected = result.strategy.selected
            strategy = UpdateStrategy(n_layers=profile.n_layers, selected=selected)
            extra = constructed_cost(profile, selected)
            built = ScheduleResult(
                strategy=strategy,
                achieved_importance=result.achieved_importance,
                predicted_extra=extra,
                budget_ms=result.budget_ms,
                slack_ms=result.budget_ms - extra.t_total_extra,
                budget_clipped=result.budget_clipped,
                explored=result.explored,
                pruned=result.pruned,
            )
            assert result.strategy == strategy and hash(result.strategy) == hash(strategy)
            assert all(type(b) is int for b in selected)
            assert type(result.achieved_importance) is float
            assert result == built and hash(result) == hash(built)
            assert repr(result) == repr(built)
            assert json.dumps(result.to_document()) == json.dumps(built.to_document())


def reference_brute_force(importance, profile, budget_ms) -> ScheduleResult:
    """The enumeration oracle with one ``StrategyCost`` per subset, built by
    ``closed_form_cost`` and read through ``t_total_extra``: the reference
    that ``brute_force``, which prices each subset as two floats, must
    reproduce exactly."""
    view = _float_view(importance, profile)
    n = profile.n_layers
    a = view.a
    selectable = [b for b in range(1, n + 1) if view.selectable[b]]
    if len(selectable) > BRUTE_FORCE_MAX_LAYERS:  # 2**k subsets is the work
        raise InputError(
            f"brute force capped at {BRUTE_FORCE_MAX_LAYERS} selectable layers, "
            f"got {len(selectable)}"
        )
    best = (-0.0, 0.0, 0)  # (-gain, cost, deepest) of the empty strategy
    selected = ()
    pruned = 0
    for r in range(len(selectable) + 1):
        for combo in itertools.combinations(selectable, r):
            cost = closed_form_cost(view, combo).t_total_extra
            if cost > budget_ms:
                pruned += 1
                continue
            cand = (-_exact_gain(combo, a), cost, combo[-1] if combo else 0)
            if cand < best or (cand == best and combo > selected):
                best, selected = cand, combo
    explored = 2 ** len(selectable)
    return _result(n, selected, -best[0], view, budget_ms, False, explored, pruned)


def assert_oracle_matches_reference(importance, profile, sigma):
    budget_ms = solve_dp(importance, profile, SchedulerConfig(sigma=sigma)).budget_ms
    got = brute_force(importance, profile, budget_ms)
    want = reference_brute_force(importance, profile, budget_ms)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert json.dumps(got.to_document()) == json.dumps(want.to_document())


class TestOracleReference:
    """``brute_force`` returns what the per-subset ``StrategyCost`` oracle
    returns, by ``repr``, hash and document bytes."""

    def test_certify_stream(self):
        rng = np.random.default_rng(12345)
        for index in range(120):
            inst = random_instance(rng, 4, 14, dyadic=index % 2 == 0)
            assert_oracle_matches_reference(inst["importance"], inst["profile"], inst["sigma"])

    @pytest.mark.parametrize("n", range(4, 15))
    def test_stratified_pool(self, n):
        rng = np.random.default_rng(n)
        for index in range(6):
            inst = random_instance(rng, n, n, dyadic=index % 2 == 0)
            assert_oracle_matches_reference(inst["importance"], inst["profile"], inst["sigma"])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(instance=tie_prone_instances())
    def test_tie_prone_instances(self, instance):
        *columns, sigma = instance
        importance, profile = tie_prone_instance(*columns)
        assert_oracle_matches_reference(importance, profile, sigma)


class TestBundledDecisions:
    """The oracle certifies the bundled episodes' own decisions. Their chains
    have 24 layers, of which 16 are selectable: within the guard, which
    counts selectable layers."""

    def test_every_third_decision_matches_the_oracle(self, monkeypatch):
        from ttasched import pipeline
        from ttasched.presets import (
            controller_scenario,
            drift_scenario,
            zero_shift_scenario,
        )

        decisions = []
        search = pipeline.solve_dp

        def recording(importance, profile, config):
            result = search(importance, profile, config)
            decisions.append((importance, profile, result))
            return result

        monkeypatch.setattr(pipeline, "solve_dp", recording)
        for make in (drift_scenario, zero_shift_scenario, controller_scenario):
            pipeline.run_episode(make())
        assert len(decisions) == 66
        for importance, profile, result in decisions[::3]:
            assert profile.n_layers == 24 and profile.selectable.sum() == 16
            oracle = brute_force(importance, profile, result.budget_ms)
            assert repr(
                (oracle.strategy.selected, oracle.achieved_importance, oracle.predicted_extra)
            ) == repr(
                (result.strategy.selected, result.achieved_importance, result.predicted_extra)
            )


class TestClosedFormParts:
    @pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "float"])
    @pytest.mark.parametrize("seed", range(4))
    def test_parts_are_the_cost_on_arrays_and_view(self, seed, dyadic):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_min=4, n_max=8, dyadic=dyadic)
        profile = inst["profile"]
        view = _float_view(inst["importance"], profile)
        layers = [b for b in range(1, profile.n_layers + 1) if profile.selectable[b]]
        for r in range(len(layers) + 1):
            for combo in itertools.combinations(layers, r):
                for source in (profile, view):
                    parts = closed_form_parts(source, combo)
                    cost = closed_form_cost(source, combo)
                    assert repr(parts) == repr((cost.t_backward, cost.t_reforward))
                    assert repr(parts[0] + parts[1]) == repr(cost.t_total_extra)
                    assert all(type(part) is float for part in parts)
                assert repr(closed_form_parts(view, combo)) == repr(
                    closed_form_parts(profile, combo)
                )


def added(start: float, addends, negated: bool) -> float:
    """``start`` with each addend added in turn, as the search grows a cost;
    ``negated`` subtracts them from ``-start``, as it grows a negated gain."""
    total = -start if negated else start
    for c in addends:
        if negated:
            total -= c
        else:
            total += c
    return total


class TestSlackLemma:
    """``_slack(n, bound)``: two non-negative sums whose float difference
    exceeds it stay strictly ordered after the same ``n + 2`` or fewer
    non-negative additions, as long as the larger stays within ``bound``.
    So the staircase may drop an entry beaten by more than the slack; one
    beaten by less must stay."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 20),
        bound=st.one_of(
            st.floats(min_value=1e-3, max_value=1e4),
            st.integers(-10, 13).map(lambda e: 2.0**e),
        ),
        # shares of the bound, and shares just below a power of two, where
        # the two sums can sit in different binades
        low=st.one_of(
            st.floats(min_value=0.0, max_value=0.9),
            st.integers(1, 12).map(lambda e: math.nextafter(2.0**-e, 0.0)),
        ),
        extra_ulps=st.integers(0, 3),
        shares=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=22),
        negated=st.booleans(),
    )
    def test_gaps_beyond_the_slack_survive_the_additions(
        self, n, bound, low, extra_ulps, shares, negated
    ):
        slack = _slack(n, bound)
        x = low * bound
        # the smallest y the staircase would call more than a slack away,
        # then a few ulps more
        y = x + slack
        while not y - x > slack:
            y = math.nextafter(y, math.inf)
        for _ in range(extra_ulps):
            y = math.nextafter(y, math.inf)
        shares = shares[: n + 2]
        room = (bound - y) / max(len(shares), 1)
        addends = [share * room for share in shares]
        big, small = added(y, addends, negated), added(x, addends, negated)
        if negated:
            big, small = -big, -small
        assume(big <= bound)
        assert small < big

    def test_a_one_ulp_gap_can_close_to_an_exact_tie(self):
        x, y = 0.3, 0.1 + 0.2
        assert y == math.nextafter(x, math.inf)
        assert x + 1.0 == y + 1.0 == 1.3
        assert y - x <= _slack(3, 1.4)  # so the staircase keeps both
