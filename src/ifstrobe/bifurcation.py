"""Border-collision curves and firing-rate limits.

A fixed point of the stroboscopic map spiking n times per period is destroyed
in two ways as parameters move: its first threshold crossing slides to the
pulse end (right collision) or an extra grazing touch appears exactly at the
pulse end (left collision).  Writing t1 for the first crossing time from the
fixed point and delta for the crossing time from 0, both cases reduce to an
alignment condition on the pulse width d*T:

    right (n >= 1):  t1 + (n - 1) * delta = d*T,  fixed point = decay of 0
                     over (1 - d) * T           (the nth spike lands on the
                                                  pulse end and is reset)
    left  (n >= 0):  t1 + n * delta       = d*T,  fixed point = decay of theta
                     over (1 - d) * T           (a grazing touch lands on the
                                                  pulse end, no reset)

The n = 0 left case is the onset curve separating spiking from non-spiking
dynamics; it is exposed as side ``ZERO``.  The alignment defect is strictly
monotone in the solved variable, so a bracketing solve (Brent's method)
is guaranteed to converge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._brent import brentq
from .model import (
    DomainError,
    Model,
    _check_forcing,
    averaged_time_to_threshold,
    classify_region,
    critical_dose,
    flow,
    time_to_threshold,
    Region,
)

__all__ = [
    "Side",
    "BifPoint",
    "RateLimits",
    "BifurcationNotFound",
    "bif_A",
    "bif_T",
    "rate_limits",
]

#: Relative cushion above the critical dose for amplitude brackets; roots
#: closer to the critical dose than this are reported at the cushion itself
#: (double precision cannot separate them from it).
_AMP_CUSHION = 1e-12

_AMP_CEILING = 1e12
_PERIOD_FLOOR = 1e-9
_PERIOD_CEILING = 1e9


class BifurcationNotFound(RuntimeError):
    """No admissible root for the requested border collision."""


class Side(enum.Enum):
    """Which boundary the fixed point collides with."""

    R = "R"
    L = "L"
    ZERO = "zero"


@dataclass(frozen=True)
class BifPoint:
    """Solved border-collision point with its re-evaluated equation defects.

    ``xbar`` is the colliding fixed point and ``t_first`` its first
    threshold-crossing time; ``residual`` is the max absolute defect of the
    defining equations at the returned parameters.  ``at_resolution`` marks
    amplitude solves clamped at the bracket cushion because the true root is
    closer to the critical dose than double precision can represent (the
    residual is then reported honestly and may be large).
    """

    n: int
    side: Side
    d: float
    T: float
    A: float
    residual: float
    xbar: float
    t_first: float
    at_resolution: bool = False


@dataclass(frozen=True)
class RateLimits:
    """Firing-rate limits and global extremes at fixed amplitude/duty cycle.

    ``r_infinity`` = d/delta is the large-period limit; ``r_zero`` the
    small-period limit (1/delta_hat in the permanent-spiking region, 0 in the
    conditional one, where ``T0`` is the spiking onset period).  ``r_max`` is
    certified by comparing k / T_k(right) across spike counts k; the premise
    "maximum at the 1-spike window" holds exactly when ``r_max_spikes == 1``.
    ``r_min_is_infimum`` marks a small-period infimum that is not attained.
    """

    r_infinity: float
    r_zero: float
    T0: float | None
    T1R: float
    T1L: float
    r_max: float
    r_max_at: float
    r_max_spikes: int
    r_min: float
    r_min_at: float | None
    r_min_is_infimum: bool


def _normalize_side(n: int, side: Side) -> tuple[Side, int]:
    """Map (n, side) onto the solver's alignment count k."""
    if n < 0:
        raise DomainError("spike count n must be >= 0")
    if side is Side.ZERO or (side is Side.L and n == 0):
        return Side.ZERO, 0
    if n == 0:
        raise DomainError("n = 0 admits only the onset collision (side ZERO)")
    if side is Side.R:
        return Side.R, n - 1
    return Side.L, n


def _reset_time(model: Model, A: float, k: int) -> float | None:
    # delta, the hit time from the reset state; only alignments with k >= 1 use it
    return time_to_threshold(model, A, 0.0) if k else 0.0


def _first_crossing(
    model: Model, A: float, d: float, T: float, side: Side
) -> tuple[float, float | None]:
    """The colliding fixed point ``xbar`` and its first threshold time (None if unreached)."""
    # right collisions reset at the pulse end (decay from 0); left and onset
    # collisions graze without reset (decay from theta)
    xbar = flow(model, 0.0, T * (1.0 - d), 0.0 if side is Side.R else model.theta)
    return xbar, time_to_threshold(model, A, xbar)


def _alignment_defect(
    model: Model, A: float, d: float, T: float, side: Side, k: int, delta: float | None
) -> float:
    t1 = _first_crossing(model, A, d, T, side)[1]
    if t1 is None or delta is None:
        return math.inf
    defect = t1 - d * T
    if k:
        defect += k * delta
    return defect


def _make_point(
    model: Model,
    n: int,
    side: Side,
    d: float,
    T: float,
    A: float,
    k: int,
    delta: float | None,
    at_resolution: bool,
) -> BifPoint:
    theta = model.theta
    xbar, t1 = _first_crossing(model, A, d, T, side)
    if t1 is None or delta is None:
        t1 = math.inf
        residual = math.inf
    else:
        defects = [
            abs(t1 + k * delta - d * T),
            abs(flow(model, A, t1, xbar) - theta),
        ]
        if k:
            defects.append(abs(flow(model, A, delta, 0.0) - theta))
        residual = max(defects)
    return BifPoint(
        n=n,
        side=side,
        d=d,
        T=T,
        A=A,
        residual=residual,
        xbar=xbar,
        t_first=t1,
        at_resolution=at_resolution,
    )


def _grow_bracket(defect, hi: float, ceiling: float, name: str, n: int, side: Side) -> float:
    """Quadruple ``hi`` until the defect turns non-positive there, up to ``ceiling``."""
    while defect(hi) > 0.0:
        hi *= 4.0
        if hi > ceiling:
            raise BifurcationNotFound(
                f"no {name} below {ceiling} satisfies the collision (n={n}, side={side.value})"
            )
    return hi


def bif_A(
    model: Model, n: int, side: Side, d: float, T: float, time_tol: float = 1e-14
) -> BifPoint:
    """Amplitude at which the n-spike fixed point undergoes the collision.

    The alignment defect decreases strictly in A, from +inf just above the
    critical dose to negative values for strong drive, so the root is
    bracketed and refined with brentq.  Raises :class:`BifurcationNotFound`
    when no admissible amplitude exists.
    """
    _check_forcing(T=T, d=d)
    side, k = _normalize_side(n, side)
    qc = critical_dose(model)
    lo = qc * (1.0 + _AMP_CUSHION)

    def defect(A: float) -> float:
        return _alignment_defect(model, A, d, T, side, k, _reset_time(model, A, k))

    at_resolution = not defect(lo) > 0.0
    if at_resolution:
        # true root is below the cushion; indistinguishable from the critical
        # dose in double precision
        A = lo
    else:
        hi = _grow_bracket(defect, max(2.0 * qc, qc + 1.0), _AMP_CEILING, "amplitude", n, side)
        A = brentq(defect, lo, hi, xtol=max(time_tol * 0.1, 1e-15), rtol=8.9e-16)
    return _make_point(model, n, side, d, T, A, k, _reset_time(model, A, k), at_resolution)


def bif_T(
    model: Model, n: int, side: Side, A: float, d: float, time_tol: float = 1e-14
) -> BifPoint:
    """Period at which the n-spike fixed point undergoes the collision.

    Solves the same alignment condition for T at fixed (A, d).  For the onset
    curve (side ZERO) a root exists only in the conditional-spiking region;
    elsewhere a window endpoint exists for every n >= 1 whenever A exceeds
    the critical dose.
    """
    _check_forcing(A=A, d=d)
    if not time_tol > 0.0:
        raise DomainError("time_tol must be > 0")
    side, k = _normalize_side(n, side)
    delta = time_to_threshold(model, A, 0.0)  # depends on A alone: once per solve
    if delta is None:
        raise BifurcationNotFound(f"A = {A} at or below the critical dose: no spiking orbit")

    def defect(T: float) -> float:
        return _alignment_defect(model, A, d, T, side, k, delta)

    lo = _PERIOD_FLOOR
    if not defect(lo) > 0.0:
        raise BifurcationNotFound(
            f"no onset period: ({A}, {d}) is not in the conditional-spiking region"
            if side is Side.ZERO
            else f"collision unreachable at small periods (n={n}, side={side.value})"
        )
    hi = _grow_bracket(defect, max(1.0, 2.0 * lo), _PERIOD_CEILING, "period", n, side)
    T = brentq(defect, lo, hi, xtol=time_tol, rtol=8.9e-16)
    return _make_point(model, n, side, d, T, A, k, delta, at_resolution=False)


def rate_limits(model: Model, A: float, d: float, max_spike_windows: int = 24) -> RateLimits:
    """Firing-rate limits, 1-spike window and certified global extremes.

    Requires (A, d) in the spiking region (A above the critical dose).  The
    global maximum candidate k / T_k(right) is scanned over spike counts k
    until it has declined three times in a row; the best candidate is
    reported together with the window attaining it.
    """
    region = classify_region(model, A, d)
    if region.kind == Region.NON_SPIKING:
        raise DomainError(f"(A={A}, d={d}) lies in the non-spiking region")
    delta = time_to_threshold(model, A, 0.0)  # not None above the critical dose
    r_infinity = d / delta

    if region.kind == Region.PERMANENT_SPIKING:
        delta_hat = averaged_time_to_threshold(model, A * d)
        r_zero = 1.0 / delta_hat
        T0 = None
    else:
        r_zero = 0.0
        T0 = bif_T(model, 0, Side.ZERO, A, d).T

    T1R = bif_T(model, 1, Side.R, A, d).T
    T1L = bif_T(model, 1, Side.L, A, d).T

    r_max = 1.0 / T1R
    r_max_at = T1R
    r_max_spikes = 1
    declines = 0
    k = 2
    while k <= max_spike_windows and declines < 3:
        tkr = bif_T(model, k, Side.R, A, d).T
        candidate = k / tkr
        if candidate > r_max:
            r_max = candidate
            r_max_at = tkr
            r_max_spikes = k
            declines = 0
        else:
            declines += 1
        k += 1

    if region.kind == Region.CONDITIONAL_SPIKING:
        r_min = 0.0
        r_min_at = T0
        r_min_is_infimum = False
    else:
        attained = 1.0 / T1L
        if r_zero < attained:
            r_min = r_zero
            r_min_at = None
            r_min_is_infimum = True
        else:
            r_min = attained
            r_min_at = T1L
            r_min_is_infimum = False

    return RateLimits(
        r_infinity=r_infinity,
        r_zero=r_zero,
        T0=T0,
        T1R=T1R,
        T1L=T1L,
        r_max=r_max,
        r_max_at=r_max_at,
        r_max_spikes=r_max_spikes,
        r_min=r_min,
        r_min_at=r_min_at,
        r_min_is_infimum=r_min_is_infimum,
    )
