"""Budget-constrained sparse update selection.

Solves: maximize the summed importance of the selected layers subject to the
strategy's backward-plus-reforward latency staying within the budget
``sigma * T - T_f``. A selection's cost is set by its deepest layer ``d``:
``sum(t_dw[sel]) + cum_dx[d - 1] + cum_re[d]``
(``network.closed_form_parts``). The search therefore decomposes by deepest
layer. It walks the layers in backward order, keeping one Pareto staircase
of prefix selections over (summed weight-gradient time, importance), the
Pareto-list method for 0/1 knapsack (Nemhauser & Ullmann, 1969). At each
selectable layer every staircase entry is scored as a strategy whose deepest
layer is that one, then the feasible extensions are merged back in.

Feasibility is decided on the very sums the oracle and the reports compute,
so the search is exact in floating point, not only on a dyadic grid. An
exhaustive enumeration oracle certifies it on small instances.

Both procedures read the instance once per call into a float view: the
importances, ``t_dw``, ``cum_dx``, ``cum_re`` and the selectable mask as
Python lists, so their inner loops do float arithmetic, not numpy scalar
reads. The oracle prices every subset through ``closed_form_parts`` on that
view, which gives the profile's own costs bit for bit, as two floats with
no object per subset. Both build their results on the trusted path
(``errors._derived``): each field is a value the constructor would store
unchanged.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, _derived, convert, read_json, reject_unknown
from .importance import ImportanceVector
from .latency import LatencyProfile
from .network import StrategyCost, UpdateStrategy, closed_form_cost, closed_form_parts

BRUTE_FORCE_MAX_LAYERS = 20


@dataclass(frozen=True)
class SchedulerConfig:
    sigma: float = 0.33

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise InputError("sigma must lie in (0, 1]")


class Budget(NamedTuple):
    ms: float
    clipped: bool  # sigma * T fell to T_f or below; only zero-cost strategies fit


def budget(t_total: float, t_forward: float, sigma: float) -> Budget:
    """Latency budget left for backward + reforward after the forward pass."""
    if t_total <= 0:
        raise InputError("t_total must be positive")
    if t_forward < 0:
        raise InputError("t_forward must be non-negative")
    raw = sigma * t_total - t_forward
    if raw <= 0.0:
        return Budget(0.0, True)
    return Budget(raw, False)


@dataclass(frozen=True)
class ScheduleResult:
    strategy: UpdateStrategy
    achieved_importance: float
    predicted_extra: StrategyCost
    budget_ms: float
    slack_ms: float
    budget_clipped: bool
    explored: int  # search: staircase entries scored; oracle: subsets priced
    pruned: int  # search: entries scored over budget or cut by the prefix

    def to_document(self) -> dict:
        return {
            "selected_backward_indices": list(self.strategy.selected),
            "achieved_importance": self.achieved_importance,
            "t_backward_ms": self.predicted_extra.t_backward,
            "t_reforward_ms": self.predicted_extra.t_reforward,
            "budget_ms": self.budget_ms,
            "slack_ms": self.slack_ms,
            "subproblems": {"explored": self.explored, "pruned": self.pruned},
        }


class _FloatView(NamedTuple):
    """One instance's per-layer values as Python lists, indexed by backward
    index (slot 0 is padding)."""

    a: list
    t_dw: list
    cum_dx: list
    cum_re: list
    selectable: list


def _float_view(importance: ImportanceVector, profile: LatencyProfile) -> _FloatView:
    """The float view of an instance, read once per call; an importance
    vector and a profile of different lengths are an InputError."""
    if importance.n_layers != profile.n_layers:
        raise InputError(
            f"importance covers {importance.n_layers} layers, profile has "
            f"{profile.n_layers}"
        )
    return _FloatView(
        importance.a.tolist(),
        profile.t_dw.tolist(),
        profile.cum_dx.tolist(),
        profile.cum_re.tolist(),
        profile.selectable.tolist(),
    )


def _exact_gain(selected: tuple[int, ...], a: list) -> float:
    """Importance of a selection, summed in ascending backward order: the
    order in which the search accumulates its gains, so equal selections
    compare bit-identically."""
    total = 0.0
    for b in selected:
        total += a[b]
    return total


def _result(n, selected, gain, view, budget_ms, clipped, explored, pruned):
    """The ``ScheduleResult`` of an ascending selection, priced by
    ``closed_form_cost`` on the float view and built on the trusted path."""
    extra = closed_form_cost(view, selected)
    return _derived(
        ScheduleResult,
        strategy=_derived(UpdateStrategy, n_layers=n, selected=selected),
        achieved_importance=gain,
        predicted_extra=extra,
        budget_ms=budget_ms,
        slack_ms=budget_ms - extra.t_total_extra,
        budget_clipped=clipped,
        explored=explored,
        pruned=pruned,
    )


def _selection(key: int, n: int) -> tuple[int, ...]:
    """The ascending backward indices whose bits ``n - b`` are set in ``key``."""
    return tuple(b for b in range(1, n + 1) if key >> (n - b) & 1)


def _slack(n: int, bound: float) -> float:
    """A gap between two non-negative sums that the same ``n + 2`` further
    non-negative additions cannot close while the larger sum stays within
    ``bound``: each rounding moves each sum by at most half an ulp of
    ``bound``, so the gap changes by at most ``n + 2`` ulps of ``bound``,
    no more than this slack."""
    return (n + 2) * math.ulp(2.0 * bound)


def _staircase(entries: list, cost_slack: float, gain_slack: float) -> list:
    """Cost-sorted Pareto staircase of ``(t_dw_sum, -gain, key)`` entries.

    Plain tuple order sorts them by cost, then gain descending, then
    selection vector (key order, see ``solve_dp``). An entry is dropped
    when the current leader (the most important entry no more expensive) is
    at least as good on both axes and one of: the leader's vector is
    smaller, so it also wins every exact tie after extension; or the leader
    is cheaper by more than ``cost_slack`` or more important by more than
    ``gain_slack``, gaps that no rounding along an extension can close.
    Otherwise the dominated entry stays, since the same deeper layers added
    to both could round the two to an exact tie that its smaller vector
    wins. Of exact (cost, gain) duplicates the smaller vector sorts first
    and leads.
    """
    entries.sort()
    kept: list = []
    lead = None
    for entry in entries:
        if lead is None or entry[1] < lead[1]:
            kept.append(entry)
            lead = entry
        elif (
            entry[0] - lead[0] <= cost_slack
            and entry[1] - lead[1] <= gain_slack
            and entry[2] < lead[2]
        ):
            kept.append(entry)
    return kept


def solve_dp(
    importance: ImportanceVector,
    profile: LatencyProfile,
    config: SchedulerConfig | None = None,
) -> ScheduleResult:
    """Search the maximum-importance feasible strategy.

    Layers are visited in backward order over one staircase of prefix
    selections. At a selectable layer ``l`` each entry, extended by ``l``,
    is priced as a strategy whose deepest layer is ``l``; the staircase is
    cost-sorted, so the scan stops at the first entry over budget. The
    feasible extensions are merged back in. Once the activation-gradient
    prefix ``cum_dx[l - 1]`` alone exceeds the budget, no strategy reaching
    ``l`` or deeper fits and the walk stops. Both cuts rely on latencies
    being finite and non-negative, which ``LatencyProfile`` enforces.

    The strategy kept is the least ``(-gain, cost, deepest, key)``: more
    importance, then cheaper, then a shallower deepest layer, then the
    lexicographically smaller 0/1 selection vector. ``key`` sets bit
    ``n - b`` for each selected backward layer ``b``; layer 1 is the most
    significant bit, so numeric key order is vector order. That tuple is
    built only for an extension whose gain ties or beats the best so far.
    A layer that extends no entry leaves the staircase as it is, and the
    staircase after the last selectable layer is never read, so neither is
    merged.
    """
    config = config or SchedulerConfig()
    view = _float_view(importance, profile)
    n = profile.n_layers
    # a clipped budget is 0 ms, which still admits zero-cost selections,
    # exactly as the oracle sees it
    bud = budget(profile.t_total, profile.t_f_total, config.sigma)
    limit = bud.ms
    a, t_dw, cum_dx, cum_re, selectable = view
    layers = [l for l in range(1, n + 1) if selectable[l]]
    # An extension adds at most n terms to a sum and two more to a cost,
    # and no feasible cost exceeds the budget nor any gain the total
    # importance, so gaps beyond these slacks survive every extension.
    cost_slack = _slack(n, limit)
    gain_slack = _slack(n, _exact_gain(tuple(layers), a))

    # negated gains start at -0.0, so a zero gain is reported as 0.0
    stairs = [(0.0, -0.0, 0)]  # (t_dw_sum, -gain, key), cost-sorted
    best = (-0.0, 0.0, 0, 0)  # (-gain, cost, deepest, key): the empty strategy
    best_neg_gain = -0.0
    explored = 0
    pruned = 0
    last = layers[-1] if layers else 0
    for l in layers:
        dx_l = cum_dx[l - 1]
        if dx_l > limit:
            pruned += len(stairs)
            break
        dw_l, re_l, a_l, bit = t_dw[l], cum_re[l], a[l], 1 << (n - l)
        extended = []
        for t_dw_sum, neg_gain, key in stairs:
            grown = t_dw_sum + dw_l
            cost = (grown + dx_l) + re_l  # the additions of closed_form_parts
            if cost > limit:
                explored += 1
                pruned += 1
                break
            neg_gain -= a_l
            key |= bit
            if neg_gain <= best_neg_gain:
                cand = (neg_gain, cost, l, key)
                if cand < best:
                    best = cand
                    best_neg_gain = neg_gain
            extended.append((grown, neg_gain, key))
        explored += len(extended)
        if extended and l != last:
            stairs = _staircase(stairs + extended, cost_slack, gain_slack)

    return _result(
        n, _selection(best[3], n), -best[0], view, limit, bud.clipped, explored, pruned
    )


def brute_force(
    importance: ImportanceVector,
    profile: LatencyProfile,
    budget_ms: float,
) -> ScheduleResult:
    """Exhaustive certification oracle over all selectable subsets.

    Prices each subset, in ``itertools.combinations`` order, as
    ``t_backward + t_reforward`` from ``closed_form_parts`` on the float
    view (the sum ``StrategyCost.t_total_extra`` takes), with no object per
    subset. It shares the search's exact cost arithmetic and preference
    order, so on any instance within the selectable-layer guard the two
    return identical strategies.
    An exact ``(-gain, cost, deepest)`` tie goes to the larger ascending
    tuple, which at the same deepest layer is the smaller selection vector.
    """
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
            t_backward, t_reforward = closed_form_parts(view, combo)
            cost = t_backward + t_reforward
            if cost > budget_ms:
                pruned += 1
                continue
            cand = (-_exact_gain(combo, a), cost, combo[-1] if combo else 0)
            if cand < best or (cand == best and combo > selected):
                best, selected = cand, combo
    explored = 2 ** len(selectable)
    return _result(n, selected, -best[0], view, budget_ms, False, explored, pruned)


def _draw(rng: np.random.Generator, low: float, high: float, size, dyadic: bool):
    """Uniform draws, snapped to a 1/1024 grid when ``dyadic`` so cost sums
    stay float-exact."""
    raw = rng.uniform(low, high, size)
    return np.round(raw * 1024) / 1024 if dyadic else raw


def random_instance(
    rng: np.random.Generator, n_min: int = 4, n_max: int = 14, dyadic: bool = True
) -> dict:
    """One random scheduling instance for certification runs.

    Dyadic instances snap every latency to a 1/1024 grid, so cost sums are
    exact, and take the budget as a random share of the full extra time.
    Float instances keep the raw draws and pin the budget to the closed-form
    cost of a randomly drawn strategy, so the optimum often sits exactly on
    the budget, where rounding decides feasibility.
    """
    n = int(rng.integers(n_min, n_max + 1))
    selectable = rng.random(n) < 0.85
    if not selectable.any():
        selectable[int(rng.integers(0, n))] = True
    pad = lambda arr: np.concatenate(([0.0], arr))
    t_dw = _draw(rng, 0.05, 2.0, n, dyadic)
    t_dw[~selectable] = 0.0
    t_dx = _draw(rng, 0.05, 2.0, n, dyadic)
    t_re = _draw(rng, 0.05, 2.0, n, dyadic)
    t_f = _draw(rng, 0.05, 1.0, n, dyadic)
    a = rng.uniform(0.0, 10.0, n)
    a[~selectable] = 0.0
    profile = LatencyProfile.from_components(
        t_f=pad(t_f),
        t_dw=pad(t_dw),
        t_dx=pad(t_dx),
        t_re=pad(t_re),
        selectable=np.concatenate(([False], selectable)),
    )
    importance = ImportanceVector(a=pad(a))
    if dyadic:
        extra = float(rng.uniform(0.05, 1.0)) * (profile.t_b_total + profile.t_re_total)
    else:
        layers = np.flatnonzero(selectable) + 1
        chosen = tuple(int(b) for b in layers[rng.random(layers.size) < 0.5])
        extra = closed_form_cost(profile, chosen or (int(layers[0]),)).t_total_extra
    sigma = (extra + profile.t_f_total) / profile.t_total
    sigma = min(max(sigma, 1e-9), 1.0)
    return {"importance": importance, "profile": profile, "sigma": sigma}


def instance_to_document(instance: dict) -> dict:
    prof = instance["profile"]
    return {
        "a": [float(x) for x in instance["importance"].a[1:]],
        "t_f": [float(x) for x in prof.t_f[1:]],
        "t_dw": [float(x) for x in prof.t_dw[1:]],
        "t_dx": [float(x) for x in prof.t_dx[1:]],
        "t_re": [float(x) for x in prof.t_re[1:]],
        "selectable": [bool(x) for x in prof.selectable[1:]],
        "sigma": instance["sigma"],
    }


@dataclass(frozen=True)
class CertificationReport:
    instances: int
    matches: int
    elapsed_s: float
    failures: tuple[dict, ...] = ()

    @property
    def all_match(self) -> bool:
        return self.matches == self.instances


def certify(instances: int, max_n: int = 14, seed: int = 0) -> CertificationReport:
    """Cross-check the search against the enumeration oracle on random
    instances, alternating dyadic and float ones; any mismatch is
    serialized for replay."""
    if instances < 1:
        raise InputError("need at least one instance")
    if not 4 <= max_n <= BRUTE_FORCE_MAX_LAYERS:  # instances have at least 4 layers
        raise InputError(f"max_n must lie in 4..{BRUTE_FORCE_MAX_LAYERS}, got {max_n}")
    rng = np.random.default_rng(seed)
    matches = 0
    failures = []
    started = time.perf_counter()
    for index in range(instances):
        instance = random_instance(rng, n_min=4, n_max=max_n, dyadic=index % 2 == 0)
        config = SchedulerConfig(sigma=instance["sigma"])
        dp = solve_dp(instance["importance"], instance["profile"], config)
        bf = brute_force(instance["importance"], instance["profile"], dp.budget_ms)
        if (
            dp.strategy.selected == bf.strategy.selected
            and dp.achieved_importance == bf.achieved_importance
        ):
            matches += 1
        else:
            failures.append(
                {
                    "index": index,
                    "instance": instance_to_document(instance),
                    "dp": dp.to_document(),
                    "oracle": bf.to_document(),
                }
            )
    elapsed = time.perf_counter() - started
    return CertificationReport(
        instances=instances,
        matches=matches,
        elapsed_s=elapsed,
        failures=tuple(failures),
    )


def load_importance(document: dict) -> ImportanceVector:
    doc = convert(dict, document, "importance file")
    reject_unknown(doc, ("a",), "importance file")
    a = convert(list[float], doc.get("a"), "importance file: a")
    return ImportanceVector(a=np.array([0.0] + a))


def load_importance_file(path) -> ImportanceVector:
    return load_importance(read_json(path))
