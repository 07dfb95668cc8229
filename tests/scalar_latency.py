"""The scalar latency model that tests compare ``LatencyTable`` against.

One layer at a time, as the paper states the predictor: the two expansion
factors, the layer's blend of them by its compute-to-memory ratio ``eta``,
and the split of a backward latency into its weight-gradient and
activation-gradient shares. Nothing here is cached or vectorized.
"""

from ttasched.latency import COMPUTE_BOUND, pi1, pi2


def factors(device, state) -> tuple[float, float]:
    """``(pi1, pi2)`` of ``device`` under ``state``."""
    return pi1(device, state), pi2(device, state)


def blend(t_off: float, eta_l: float, p1: float, p2: float) -> float:
    """Runtime latency of one layer from its offline latency: a
    compute-bound layer scales by ``p1``, any other by ``p1`` and ``p2``
    mixed with the weight ``eta / (eta + 1)``."""
    if eta_l == COMPUTE_BOUND:
        return p1 * t_off
    w = eta_l / (eta_l + 1.0)
    return (p2 + (p1 - p2) * w) * t_off


def split(t_b: float, layer) -> tuple[float, float]:
    """``(t_dw, t_dx)``: a layer with parameters spends half its backward
    time on the weight gradient, one without spends all of it on the
    activation gradient."""
    if not layer.has_params:
        return 0.0, t_b
    t_dw = 0.5 * t_b
    return t_dw, t_b - t_dw
