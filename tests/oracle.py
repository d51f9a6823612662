"""Closed-form reference solutions for the linear model, and a numeric margin.

Kept deliberately separate from the package: these are the hand-derivable
formulas (exponential relaxation toward the drive's rest point, logarithmic
hit times, explicit pulse/decay chain) that the tests trust as ground truth,
the closed form's hit time and flow in the package's own float operations,
and the central-difference contraction margin that checks the package's
margin from field values on nonlinear fields.  ``_Flows`` is the
public-function reference: a drive whose hit times and flows are the
package's public ``time_to_threshold`` and ``flow``, which
:func:`flows_map` puts under a map in place of its closed form.
"""

from __future__ import annotations

import math

from ifstrobe import GenericModel, StrobeMap, flow, time_to_threshold

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


def closed_form_hit_time(a: float, b: float, theta: float, drive: float, x0: float):
    """The package's linear hit time, spelled out in its float operations.

    None when f(theta) + drive <= 0, else ``log1p(-(theta - x0)/(xeq - x0))/a``;
    a ``log1p`` argument at or below -1 (a rest point that rounds onto
    theta) raises ValueError, where the package raises IntegrationError.
    """
    if a * theta + b + drive <= 0.0:
        return None
    xeq = -(b + drive) / a
    return math.log1p(-(theta - x0) / (xeq - x0)) / a


def closed_form_flow(a: float, b: float, drive: float, s: float, x0: float) -> float:
    """The package's linear flow over time s, spelled out: ``x0 + (x0 - xeq)*expm1(a*s)``."""
    xeq = -(b + drive) / a
    return x0 if s == 0.0 else x0 + (x0 - xeq) * math.expm1(a * s)


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


def central_difference_log_multiplier(smap, points, h: float = 1e-6) -> float:
    """log S of the cycle through ``points`` from central differences of the map's images.

    S is the derivative of F^p along the cycle, the product by the chain
    rule of the map's slopes at the p points.  Each slope is ``(image(xr) -
    image(xl)) / (xr - xl)`` with xl, xr = x - h, x + h clipped to [0,
    theta); a probe that spikes otherwise than x (the cycle passing within
    h of sigma) is replaced by x itself, a one-sided difference.  Two maps
    per point; a central difference errs by about h^2 times the map's
    third derivative plus the images' error over h.
    """
    top = math.nextafter(smap.model.theta, 0.0)
    total = 0.0
    for x in points:
        n = smap.spike_count(x)
        xl, xr = max(x - h, 0.0), min(x + h, top)
        xl, xr = (p if smap.spike_count(p) == n else x for p in (xl, xr))
        total += math.log((smap.apply(xr)[0] - smap.apply(xl)[0]) / (xr - xl))
    return total


class _Flows:
    """One drive of a linear model, through the public ``time_to_threshold`` and ``flow``."""

    def __init__(self, model, drive: float) -> None:
        self._model, self._drive = model, drive

    @property
    def delta(self) -> float | None:
        return time_to_threshold(self._model, self._drive, 0.0)

    def hit_time(self, x: float) -> float | None:
        return time_to_threshold(self._model, self._drive, x)

    def flow(self, x: float, s: float) -> float:
        return flow(self._model, self._drive, s, x)


def flows_map(model, forcing, spike_cap: int, on: type = _Flows) -> StrobeMap:
    """The map of a linear model on the generic path, its drives ``on(model, A)`` and
    ``_Flows(model, 0.0)``.

    The same field as a ``GenericModel`` takes its drives from the map's
    ``_orbits`` store, here filled with the two drives in place of stored
    orbits, so every hit time and flow of the map, ``delta`` included, is the
    public function's.
    """
    store = {(forcing.A, True): on(model, forcing.A), (0.0, False): _Flows(model, 0.0)}
    generic = GenericModel(f=model.f, f_deriv=model.f_deriv, theta=model.theta)
    return StrobeMap(generic, forcing, spike_cap, _orbits=store)
