"""Brent's bracketing root finder, a line-by-line port of scipy's ``brentq.c``.

The port keeps the C routine's float operations in the same order, so that
it returns the same double as ``scipy.optimize.brentq`` for the same
function, bracket and tolerances, and raises the same errors: ValueError for
a bracket without a sign change, a non-positive ``xtol``, an ``rtol`` below
4 eps or a NaN function value, RuntimeError after ``_ITER`` (100) iterations
without convergence.

Reference: R. P. Brent, *Algorithms for Minimization without Derivatives*
(1973), ch. 4; the extrapolation step is scipy's inverse quadratic variant.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["brentq", "EPS"]

EPS = sys.float_info.epsilon

_RTOL = 4 * EPS
_ITER = 100


def brentq(
    f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float = _RTOL
) -> float:
    """Root of ``f`` in the bracket [a, b] to within ``xtol + rtol*|x|``."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_ITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_ITER} iterations.")


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0
