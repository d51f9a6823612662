"""Closed-form reference solutions for the linear model.

Kept deliberately separate from the package: these are the hand-derivable
formulas (exponential relaxation toward the drive's rest point, logarithmic
hit times, explicit pulse/decay chain) that the tests trust as ground truth.
"""

from __future__ import annotations

import math

A_STAR = -0.5
B_STAR = 0.2
THETA_STAR = 1.0


def equilibrium(a: float, b: float, drive: float) -> float:
    return -(b + drive) / a


def lin_flow(a: float, b: float, drive: float, t: float, x0: float) -> float:
    xeq = equilibrium(a, b, drive)
    return xeq + (x0 - xeq) * math.exp(a * t)


def lin_hit_time(a: float, b: float, theta: float, drive: float, x0: float) -> float | None:
    if a * theta + b + drive <= 0.0:
        return None
    xeq = equilibrium(a, b, drive)
    return math.log((theta - xeq) / (x0 - xeq)) / a


def lin_rise_time(a: float, b: float, theta: float, drive: float) -> float | None:
    """Hit time from a cold start, log(theta*a/(b+drive) + 1) / a."""
    arg = theta * a / (b + drive) + 1.0
    if arg <= 0.0:
        return None
    return math.log(arg) / a


def lin_strobe(
    a: float, b: float, theta: float, A: float, T: float, d: float, x0: float
) -> tuple[float, list[float]]:
    """One period of the pulsed dynamics via the explicit piecewise chain."""
    pulse = d * T
    t = 0.0
    x = x0
    spikes: list[float] = []
    while True:
        hit = lin_hit_time(a, b, theta, A, x)
        if hit is None or t + hit > pulse:
            break
        t += hit
        spikes.append(t)
        x = 0.0
    x = lin_flow(a, b, A, pulse - t, x)
    return lin_flow(a, b, 0.0, T - pulse, x), spikes


def lin_sigma(a: float, b: float, theta: float, A: float, T: float, d: float) -> float | None:
    """Backward flow of theta to t=0 so the n-th spike lands on the pulse end."""
    delta = lin_rise_time(a, b, theta, A)
    if delta is None:
        return None
    n = math.floor(d * T / delta) + 1
    t_first = d * T - (n - 1) * delta
    if t_first <= 0.0:
        return None
    xeq = equilibrium(a, b, A)
    return xeq + (theta - xeq) * math.exp(-a * t_first)


def branch_error_bound(a: float, b: float, theta: float, A: float, T: float, delta, k) -> float:
    """Error allowed to a float image of the linear map's k-spike branch, against the exact map.

    The image takes the period through exp(a*rest) and the spike train
    through ``pulse - k*delta``, with a slope of at most |a|*(|xeq| +
    theta) in both, xeq the rest point under A.  So a relative rounding of
    T and of ``k*delta`` costs that much, and ``delta`` itself carries its
    rounding times its condition number ``theta/((xeq - theta)*|a|*delta)``,
    which grows without bound as xeq nears theta.  The bound is 8 rounding
    units of that scale; scratch runs over 20,000 images of random forcings
    (a fifth of them with A within 1e-2 of the critical dose) reached 2.0.
    """
    xeq = equilibrium(a, b, A)
    span = T
    if k:
        span += k * delta * (1.0 + theta / ((xeq - theta) * abs(a) * delta))
    return 8.0 * 2.0**-53 * (theta + abs(a) * (abs(xeq) + theta) * span)
