"""Scheduler scaling sweep: ``solve_dp`` over chain length and sigma.

Each case runs ``solve_dp`` once on ``synthetic_network(n)`` under the
``contended`` resource condition with a seeded uniform importance vector.
A case that exceeds its time cap is stopped and recorded as timed out, not
dropped.
"""

from __future__ import annotations

import signal
import time

import numpy as np

from ttasched import latency, presets, scheduler
from ttasched.importance import ImportanceVector
from ttasched.scheduler import SchedulerConfig

SIZES = (24, 48, 72, 96)
SIGMAS = (0.4, 0.8)
CAP_S = 5.0


class _CapReached(Exception):
    pass


def _raise_cap(signum, frame):
    raise _CapReached


def timed_solve(vector, profile, config, cap_s: float):
    """(milliseconds, result) of one ``solve_dp`` call, or (cap, None) when
    the call is still running after ``cap_s`` seconds."""
    previous = signal.signal(signal.SIGALRM, _raise_cap)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = time.perf_counter_ns()
    try:
        result = scheduler.solve_dp(vector, profile, config)
    except _CapReached:
        return cap_s * 1e3, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return (time.perf_counter_ns() - start) / 1e6, result


def scheduler_sweep(seed: int, sizes=SIZES, sigmas=SIGMAS, cap_s: float = CAP_S) -> dict:
    """``{case: {"ms", "explored", "timed_out"}}`` with cases named
    ``n<n>_sigma<s>``."""
    rng = np.random.default_rng(seed)
    device = presets.demo_edge_device()
    state = presets.resource_conditions()["contended"]
    cases = {}
    for n in sizes:
        network = presets.synthetic_network(n)
        offline = presets.offline_from_costs(network, device)
        profile = latency.build_profile(network, offline, device, state)
        a = np.zeros(n + 1)
        a[profile.selectable] = rng.uniform(0.0, 1.0, int(profile.selectable.sum()))
        vector = ImportanceVector(a=a)
        for sigma in sigmas:
            ms, result = timed_solve(vector, profile, SchedulerConfig(sigma=sigma), cap_s)
            cases[f"n{n}_sigma{sigma}"] = {
                "ms": ms,
                "explored": result.explored if result else 0,
                "timed_out": 0 if result else 1,
            }
    return cases
