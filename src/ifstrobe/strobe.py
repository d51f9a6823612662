"""Stroboscopic map with reset, its discontinuity boundary and attractors.

One application of the map flows the pulsed system for a full period T:
drive A on (0, d*T], drive 0 on (d*T, T], resetting to 0 at every threshold
crossing.  Spikes can only occur during (0, d*T]; the map is smooth except at
the single state ``sigma`` whose trajectory reaches the threshold exactly
when the pulse ends.  States at or right of ``sigma`` perform n spikes per
period, states left of it n-1 (right-branch convention at the boundary
itself).

Periodic attractors are detected by iterating the map, with symbolic
itineraries over {L, R} taken relative to ``sigma``:  R marks orbit points on
or right of the boundary.  The firing-number n/p and rotation number (#R)/p
are kept as exact rationals.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from scipy.optimize import brentq

from .model import Forcing, LinearModel, Model, flow, time_to_threshold

__all__ = [
    "SpikeRunawayError",
    "StrobeResult",
    "BoundaryInfo",
    "OrbitOptions",
    "OrbitSummary",
    "strobe",
    "boundary_sigma",
    "fixed_point",
    "attractor",
    "rotation_number",
]

logger = logging.getLogger(__name__)

#: Default cap on spikes within one map application.
SPIKE_CAP = 10**6

#: Default state tolerance for recurrence detection.
STATE_TOL = 1e-9

#: State tolerance for boundary bisection.
SIGMA_TOL = 1e-12


class SpikeRunawayError(RuntimeError):
    """Spike count exceeded the guard cap within a single map application."""


@dataclass(frozen=True)
class StrobeResult:
    """One application of the map: image point, spike count, spike times."""

    image: float
    spikes: int
    spike_times: tuple[float, ...]


@dataclass(frozen=True)
class BoundaryInfo:
    """Discontinuity of the map: states >= sigma spike ``n`` times per period."""

    sigma: float
    n: int


@dataclass(frozen=True)
class OrbitOptions:
    """Iteration budget and tolerances for attractor detection.

    :func:`attractor` applies the map at most ``transient + 2*max_period``
    times from ``seed`` and reports cycles of at most ``max_period`` maps;
    ``spike_cap`` bounds the spikes of one map.  Out-of-domain values raise
    ValueError.
    """

    transient: int = 10_000
    max_period: int = 10_000
    seed: float = 0.0
    state_tol: float = STATE_TOL
    spike_cap: int = SPIKE_CAP
    compute_margin: bool = True

    def __post_init__(self) -> None:
        if self.transient < 0:
            raise ValueError(f"transient must be >= 0, got {self.transient!r}")
        if self.max_period < 1:
            raise ValueError(f"max_period must be >= 1, got {self.max_period!r}")
        if not (math.isfinite(self.state_tol) and self.state_tol > 0.0):
            raise ValueError(f"state_tol must be finite and > 0, got {self.state_tol!r}")
        if self.spike_cap < 1:
            raise ValueError(f"spike_cap must be >= 1, got {self.spike_cap!r}")


@dataclass(frozen=True)
class OrbitSummary:
    """Detected periodic attractor of the stroboscopic map.

    ``eta`` = spikes_n / period_p and ``rho`` = (#R) / period_p are exact
    rationals; ``rate`` = eta / T.  ``word`` is the itinerary in its
    lexicographically minimal cyclic rotation; when no boundary lies in
    [0, theta) the orbit is single-branch and the word is "L" * p by
    convention.  ``converged`` is True when a cycle of length at most
    ``max_period`` was verified by a second cycle within the budget of
    :class:`OrbitOptions`.  Otherwise, when the budget ran out or the verified
    cycle is longer than ``max_period``, the fields describe the best
    candidate cycle among the last ``2*max_period`` map applications.
    """

    period_p: int
    spikes_n: int
    word: str
    eta: Fraction
    rho: Fraction
    rate: float
    points: tuple[float, ...]
    converged: bool
    contraction_margin: float
    single_branch: bool


def strobe(model: Model, forcing: Forcing, x0: float, spike_cap: int = SPIKE_CAP) -> StrobeResult:
    """Flow x0 through one full period of the square-wave drive.

    A crossing exactly at the pulse end t = d*T still counts as a spike, so
    the map takes its right-branch value on the boundary.
    """
    theta = model.theta
    if not 0.0 <= x0 < theta:
        raise ValueError(f"x0 = {x0} outside the map domain [0, {theta})")
    pulse = forcing.pulse_width
    times: list[float] = []
    spikes, elapsed = _spikes(model, forcing, x0, spike_cap, times)
    x = flow(model, forcing.A, pulse - elapsed, 0.0 if spikes else x0)
    image = flow(model, 0.0, forcing.T - pulse, x)
    return StrobeResult(image=image, spikes=spikes, spike_times=tuple(times))


def _spikes(
    model: Model, forcing: Forcing, x0: float, spike_cap: int, times: list[float] | None = None
) -> tuple[int, float]:
    """Number of spikes within the pulse from x0 and the time of the last one.

    The time is 0.0 without a spike; each spike time is appended to
    ``times`` when given.  Every spike after the first starts from the reset
    state, so it takes the same time ``delta`` and the threshold is solved
    at most twice.
    """
    pulse = forcing.pulse_width
    t = time_to_threshold(model, forcing.A, x0)
    if t is None or t > pulse:
        return 0, 0.0
    delta = time_to_threshold(model, forcing.A, 0.0)
    spikes = 0
    while True:
        spikes += 1
        if times is not None:
            times.append(t)
        if spikes > spike_cap:
            raise SpikeRunawayError(
                f"more than {spike_cap} spikes in one period (A={forcing.A}, T={forcing.T})"
            )
        after = t + delta
        if after > pulse:
            return spikes, t
        t = after


def _spike_count(model: Model, forcing: Forcing, x0: float, spike_cap: int) -> int:
    return _spikes(model, forcing, x0, spike_cap)[0]


def _ordinal(x: float) -> int:
    """Bit pattern of a double; it orders non-negative doubles like their values."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_ordinal(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _snap_to_branch_edge(
    model: Model, forcing: Forcing, sigma: float, n: int, spike_cap: int
) -> float | None:
    """Smallest double in (0, theta) spiking at least n times, searched from sigma.

    Gallops 1, 2, 4, ... ulps away from the guess until the count crosses n,
    then bisects the bracket, so the cost grows with the log of the
    distance.  None when 0.0 already spikes n times or no state below theta
    does.
    """

    def reaches(k: int) -> bool:
        return _spike_count(model, forcing, _from_ordinal(k), spike_cap) >= n

    top = _ordinal(math.nextafter(model.theta, 0.0))
    step = 1
    if reaches(_ordinal(sigma)):
        hi = _ordinal(sigma)
        while True:
            if hi == 0:
                return None
            lo = max(hi - step, 0)
            if not reaches(lo):
                break
            hi, step = lo, 2 * step
    else:
        lo = _ordinal(sigma)
        while True:
            if lo == top:
                return None
            hi = min(lo + step, top)
            if reaches(hi):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return _from_ordinal(hi)


def boundary_sigma(
    model: Model,
    forcing: Forcing,
    state_tol: float = SIGMA_TOL,
    spike_cap: int = SPIKE_CAP,
) -> BoundaryInfo | None:
    """Unique state whose trajectory reaches the threshold exactly at t = d*T.

    Returns None when every initial state yields the same spike count (in
    particular whenever A <= critical dose).  The returned point always lies
    on the n-spike side: ``strobe(sigma).spikes == n``.
    """
    theta = model.theta
    top = math.nextafter(theta, 0.0)
    if isinstance(model, LinearModel):
        delta = time_to_threshold(model, forcing.A, 0.0)
        if delta is None:
            return None
        pulse = forcing.pulse_width
        n = math.floor(pulse / delta) + 1
        t_first = pulse - (n - 1) * delta
        if t_first <= 0.0:
            return None
        xeq = model.equilibrium(forcing.A)
        sigma = xeq + (theta - xeq) * math.exp(-model.a * t_first)
        sigma = min(max(sigma, 0.0), top)
        snapped = _snap_to_branch_edge(model, forcing, sigma, n, spike_cap)
        if snapped is not None:
            return BoundaryInfo(sigma=snapped, n=n)
        logger.warning(
            "closed-form boundary (sigma=%r, n=%d) disagrees with the simulated spike count "
            "(A=%r, T=%r, d=%r); falling back to bisection",
            sigma, n, forcing.A, forcing.T, forcing.d,
        )
    lo = 0.0
    n_lo = _spike_count(model, forcing, lo, spike_cap)
    n_hi = _spike_count(model, forcing, top, spike_cap)
    if n_hi == n_lo:
        return None
    target = n_lo + 1
    hi = top
    while hi - lo > state_tol:
        mid = 0.5 * (lo + hi)
        if _spike_count(model, forcing, mid, spike_cap) >= target:
            hi = mid
        else:
            lo = mid
    return BoundaryInfo(sigma=hi, n=_spike_count(model, forcing, hi, spike_cap))


def fixed_point(
    model: Model, forcing: Forcing, n: int, spike_cap: int = SPIKE_CAP
) -> float | None:
    """Fixed point of the map restricted to its n-spike continuity branch.

    Absent when the requested branch does not exist or its fixed point has
    moved outside the branch domain.
    """
    if n < 0:
        raise ValueError("spike count n must be >= 0")
    theta = model.theta
    top = math.nextafter(theta, 0.0)
    info = boundary_sigma(model, forcing, spike_cap=spike_cap)
    if info is None:
        if _spike_count(model, forcing, 0.0, spike_cap) != n:
            return None
        lo, hi = 0.0, top
    elif n == info.n:
        lo, hi = info.sigma, top
    elif n == info.n - 1:
        lo, hi = 0.0, math.nextafter(info.sigma, 0.0)
    else:
        return None

    def defect(x: float) -> float:
        return strobe(model, forcing, x, spike_cap).image - x

    d_lo = defect(lo)
    d_hi = defect(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if math.copysign(1.0, d_lo) == math.copysign(1.0, d_hi):
        return None
    root = float(brentq(defect, lo, hi, xtol=1e-14))
    # a sign change at the branch edge is the discontinuity, not a fixed point
    at_root = strobe(model, forcing, root, spike_cap)
    if at_root.spikes != n or abs(at_root.image - root) > 1e-12 * max(1.0, theta):
        return None
    return root


def rotation_number(word: str) -> Fraction:
    """Fraction of R symbols in an itinerary word, as an exact rational."""
    if not word:
        raise ValueError("itinerary word must be nonempty")
    bad = set(word) - {"L", "R"}
    if bad:
        raise ValueError(f"invalid itinerary symbols: {sorted(bad)}")
    return Fraction(word.count("R"), len(word))


def _least_rotation(word: str) -> str:
    """Lexicographically minimal cyclic rotation (Booth's algorithm)."""
    doubled = word + word
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        sj = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return word[k:] + word[:k]


def _best_candidate(states: list[float], max_period: int) -> int:
    """Length of the closest return to ``states[0]``, at most max_period (the first on ties)."""
    lengths = range(1, min(len(states) - 1, max_period) + 1)
    return min(lengths, key=lambda p: abs(states[p] - states[0]))


def _repeats(states: list[float], counts: list[int], start: int, p: int, tol: float) -> bool:
    """Whether the p maps from ``start`` repeat: states within 10*tol, same spike counts."""
    return counts[start + p : start + 2 * p] == counts[start : start + p] and all(
        abs(states[start + p + j] - states[start + j]) < 10.0 * tol for j in range(p)
    )


def _contraction_margin(
    model: Model,
    forcing: Forcing,
    info: BoundaryInfo | None,
    spike_cap: int = SPIKE_CAP,
    grid: int = 33,
) -> float:
    """Length lost by the right branch under one map application.

    Positive values certify contraction of the branch [sigma, theta) (the
    devil's-staircase regime); non-positive values flag possible expansion.
    For a linear field the branch is affine with slope exp(a*(T - n*delta)),
    so the margin is (theta - sigma) * (1 - slope).  Generic fields use a
    sampled sup of the central-difference derivative, a heuristic bound.
    Without a boundary (``info`` is None, as returned by
    :func:`boundary_sigma`) the single branch is measured the same way.
    """
    theta = model.theta
    if info is None:
        lo = 0.0
        n = _spike_count(model, forcing, 0.0, spike_cap)
    else:
        lo = info.sigma
        n = info.n
    span = theta - lo
    if isinstance(model, LinearModel):
        ndelta = 0.0
        if n:
            delta = time_to_threshold(model, forcing.A, 0.0)
            ndelta = n * delta
        slope = math.exp(model.a * (forcing.T - ndelta))
        return span * (1.0 - slope)
    h = min(1e-6, span * 1e-3)
    top = math.nextafter(theta, 0.0)
    sup = -math.inf
    for i in range(grid):
        x = lo + span * (i + 0.5) / grid
        xl = max(x - h, lo)
        xr = min(x + h, top)
        if xr <= xl:
            continue
        sl = strobe(model, forcing, xl, spike_cap)
        sr = strobe(model, forcing, xr, spike_cap)
        if sl.spikes != n or sr.spikes != n:
            continue
        sup = max(sup, (sr.image - sl.image) / (xr - xl))
    if not math.isfinite(sup):
        return span
    return span * (1.0 - sup)


def attractor(model: Model, forcing: Forcing, opts: OrbitOptions | None = None) -> OrbitSummary:
    """Iterate the map to the periodic attractor and summarize it.

    One loop applies the map at most ``transient + 2*max_period`` times
    (``opts``).  Each state is compared with an anchor that moves after 1, 2,
    4, ... maps without a return (Brent's cycle detection), once more when
    ``transient`` maps are spent, and to the current state after a failed
    verification.  A return within ``state_tol`` at distance p, the only
    candidate since shorter ones failed from the same anchor, is verified by
    p more maps: states repeat within 10*state_tol with equal per-step spike
    counts.  A cycle longer than ``max_period``, or none within the budget,
    gives ``converged=False`` and the closest candidate cycle among the last
    2*max_period maps (expected only where the map loses contraction).
    """
    if opts is None:
        opts = OrbitOptions()
    tol = opts.state_tol
    states = [opts.seed]
    counts: list[int] = []
    anchor, power = 0, 1  # index of the anchor; maps it waits before it moves
    lam = 0  # distance of the return under verification, 0 when none
    period = 0  # length of the verified cycle, 0 when none
    while len(counts) < opts.transient + 2 * opts.max_period:
        r = strobe(model, forcing, states[-1], opts.spike_cap)
        states.append(r.image)
        counts.append(r.spikes)
        i = len(counts)
        if lam:
            if i == anchor + 2 * lam:
                if _repeats(states, counts, anchor, lam, tol):
                    period = lam
                    break
                anchor, power, lam = i, 1, 0
        elif abs(states[i] - states[anchor]) < tol:
            lam = i - anchor
        elif i == opts.transient or (i < opts.transient and i - anchor == power):
            anchor, power = i, 2 * power

    converged = 0 < period <= opts.max_period
    if converged:
        p = period
        start = len(counts) - p
    else:
        start = len(counts) - 2 * opts.max_period
        p = _best_candidate(states[start:], opts.max_period)
    points = tuple(states[start : start + p])
    n_spikes = sum(counts[start : start + p])

    info = boundary_sigma(model, forcing, spike_cap=opts.spike_cap)
    if info is None:
        word = "L" * p
        single_branch = True
    else:
        word = "".join("R" if pt >= info.sigma else "L" for pt in points)
        single_branch = False
    word = _least_rotation(word)

    margin = (
        _contraction_margin(model, forcing, info, spike_cap=opts.spike_cap)
        if opts.compute_margin
        else math.nan
    )
    return OrbitSummary(
        period_p=p,
        spikes_n=n_spikes,
        word=word,
        eta=Fraction(n_spikes, p),
        rho=Fraction(word.count("R"), p),
        rate=n_spikes / (p * forcing.T),
        points=points,
        converged=converged,
        contraction_margin=margin,
        single_branch=single_branch,
    )
