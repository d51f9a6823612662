"""Stroboscopic map with reset, its discontinuity boundary and attractors.

One application of the map flows the pulsed system for a full period T:
drive A on (0, d*T], drive 0 on (d*T, T], resetting to 0 at every threshold
crossing.  Spikes can only occur during (0, d*T]; the map is smooth except at
the single state ``sigma`` whose trajectory reaches the threshold exactly
when the pulse ends.  States at or right of ``sigma`` perform n spikes per
period, states left of it n-1 (right-branch convention at the boundary
itself), up to a band of a few thousand ulps around ``sigma`` where the
rounded spike count mixes n and n-1.

Periodic attractors are detected by iterating the map, with symbolic
itineraries over {L, R} taken relative to ``sigma``:  R marks orbit points on
or right of the boundary.  The firing-number n/p and rotation number (#R)/p
are kept as exact rationals.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._brent import brentq
from .model import (
    DomainError,
    Forcing,
    GenericModel,
    LinearModel,
    Model,
    _DriveOrbits,
    _check_count,
    _unresolvable,
    flow,
    time_to_threshold,
)

__all__ = [
    "SpikeRunawayError",
    "StrobeResult",
    "BoundaryInfo",
    "StrobeMap",
    "OrbitOptions",
    "OrbitSummary",
    "strobe",
    "boundary_sigma",
    "fixed_point",
    "attractor",
    "contraction_margin",
    "rotation_number",
]

#: Default cap on spikes within one map application.
SPIKE_CAP = 10**6

#: Default state tolerance for recurrence detection.
STATE_TOL = 1e-9


class SpikeRunawayError(RuntimeError):
    """Spike count exceeded the guard cap within a single map application."""


def _outside_domain(x0: float, theta: float) -> ValueError:
    return ValueError(f"x0 = {x0} outside the map domain [0, {theta})")


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
    ``spike_cap`` bounds the spikes of one map.  The three counts are
    integers; out-of-domain values raise :class:`~ifstrobe.model.DomainError`.
    """

    transient: int = 10_000
    max_period: int = 10_000
    seed: float = 0.0
    state_tol: float = STATE_TOL
    spike_cap: int = SPIKE_CAP
    compute_margin: bool = True

    def __post_init__(self) -> None:
        for name, least in (("transient", 0), ("max_period", 1), ("spike_cap", 1)):
            value = getattr(self, name)
            _check_count(name, value)
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value!r}")
        if not (math.isfinite(self.state_tol) and self.state_tol > 0.0):
            raise DomainError(f"state_tol must be finite and > 0, got {self.state_tol!r}")


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


class StrobeMap:
    """The stroboscopic map of one forcing, set up once and applied many times.

    Built once per ``(model, forcing, spike_cap)``, ``spike_cap`` an integer
    of at least 1.  ``delta`` is the reset hit time ``time_to_threshold(model,
    forcing.A, 0.0)``, bit for bit, None when the threshold is unreachable.
    One rule times the spikes: spike k from x0 comes at ``t1 + (k-1)*delta``,
    t1 the hit time from x0, if that is at or before the pulse end.  The
    count, found in closed form, the edge probes, the boundary's guess and
    the contraction margin all read it, with one spacing, ``delta`` or inf
    when it is None: a ``delta`` that is None or infinite (a reset hit time
    that overflows) means no second spike.  A count past ``spike_cap``,
    endless for a zero spacing or a NaN hit time, raises
    :class:`SpikeRunawayError` at once.  :meth:`apply`, :meth:`iterate` and
    :meth:`spike_count` share one domain, [0, theta), and raise ValueError
    outside it.

    For a linear model with ``a < 0`` (the standing hypothesis) the
    constants of the closed form are computed here.  :meth:`apply`, and
    with it :meth:`spike_count` and the edge probes of :meth:`boundary`,
    repeats the float operations of ``time_to_threshold`` and ``flow`` in
    their order, so its images, spike counts and errors equal theirs bit
    for bit.  :meth:`iterate` instead steps the map's two exact affine
    branches, of n - 1 and n spikes, with slopes ``s_k = exp(a*(T -
    k*delta))``, split at the boundary's sigma (see :meth:`_build_branches`).
    For a generic model every trajectory of a constant drive is a time
    shift of a stored orbit (``model._DriveOrbits``), one per drive and
    side of its rest point, integrated once and extended on demand: the
    reset orbit is the run ``time_to_threshold(model, A, 0.0)`` starts, the
    hit time from x0 is ``delta - u_A(x0)``, u_A being the time at which
    that orbit passes x0, and the image is read off the orbit of drive 0 at
    ``u_0(y) + (1 - d)*T`` from the pulse-end state y.  So after construction its maps,
    spike counts and edge probes start no integrator run beyond extending
    those orbits.  A linear model with ``a >= 0`` calls ``flow`` and
    ``time_to_threshold`` in each application, which keep its errors (a
    division by zero, an overflow) where they raise them, except that
    ``delta`` is solved, and may raise, at construction.  For both, the
    map's :meth:`iterate` is a loop over :meth:`apply`.
    """

    def __init__(self, model: Model, forcing: Forcing, spike_cap: int = SPIKE_CAP) -> None:
        _check_count("spike_cap", spike_cap, 1)
        self.model = model
        self.forcing = forcing
        self.spike_cap = spike_cap
        self._theta = model.theta
        self._pulse = pulse = forcing.pulse_width
        self._rest = rest = forcing.T - pulse
        self._closed_form = isinstance(model, LinearModel) and model.a < 0.0
        if isinstance(model, GenericModel):
            self._on = _DriveOrbits(model.f, forcing.A, model.theta, threshold=True)
            self._off = _DriveOrbits(model.f, 0.0, model.theta, threshold=False)
            delta = self._on.delta
        else:
            delta = time_to_threshold(model, forcing.A, 0.0)
            if not self._closed_form:
                self._on, self._off = _Flows(model, forcing.A), _Flows(model, 0.0)
            else:
                self._a = a = model.a
                self._reachable = a * model.theta + model.b + forcing.A > 0.0
                self._xeq_on = model.equilibrium(forcing.A)
                self._xeq_off = model.equilibrium(0.0)
                self._expm1_rest = math.expm1(a * rest)
        self.delta = delta
        # the time between spikes after the first, inf when no second spike comes
        self._spacing = spacing = math.inf if delta is None else delta
        # the offset of spike spike_cap + 1 from the first, which must not come
        # (a cap past the largest double bounds nothing more)
        self._cap_span = min(spike_cap, sys.float_info.max) * spacing
        # found on first use: the boundary, as (info,), and iterate's branches
        self._edge = self._branches = None

    def apply(self, x0: float, times: list[float] | None = None) -> tuple[float, int]:
        """Image of x0 after one period and the number of spikes on the way.

        Each spike time is appended to ``times`` when given.  A crossing
        exactly at the pulse end t = d*T still counts as a spike, so the map
        takes its right-branch value on the boundary.  Raises ValueError
        outside the map domain [0, theta) and SpikeRunawayError past
        ``spike_cap`` spikes.
        """
        if not 0.0 <= x0 < self._theta:
            raise _outside_domain(x0, self._theta)
        spikes, last = self._spikes(x0, times)
        if not self._closed_form:
            x = self._on.flow(0.0 if spikes else x0, self._pulse - last)
            return self._off.flow(x, self._rest), spikes
        return self._flows(0.0 if spikes else x0, self._pulse - last), spikes

    def _flows(self, x: float, s: float) -> float:
        """The float operations of ``flow(model, A, s, x)``, then of ``flow(model, 0.0, rest, y)``;
        a negative s runs the first flow backwards, as a branch through 0 may need."""
        y = x if s == 0.0 else x + (x - self._xeq_on) * math.expm1(self._a * s)
        return y + (y - self._xeq_off) * self._expm1_rest if self._rest != 0.0 else y

    def iterate(
        self, states: list[float], counts: list[int], stop: int, target: float, tol: float
    ) -> None:
        """Apply the map from ``states[-1]`` until ``len(counts) == stop`` or a return.

        Appends each image to ``states`` and its spike count to ``counts``,
        and stops early after an image within ``tol`` of ``target`` (never
        when ``tol`` is 0); the maps before an error stay appended.  For a
        linear model with ``a < 0`` each map is a step of the branch map,
        built before the first map (:meth:`_build_branches`), in one loop
        with no call per map: the exact map's image to within rounding, not
        :meth:`apply`'s bit for bit, and a count that follows sigma in the
        band of mixed counts.  Otherwise each map is :meth:`apply`'s.
        """
        n, x = len(counts), states[-1]
        if not self._closed_form:
            apply = self.apply
            while n < stop:
                x, spikes = apply(x)
                states.append(x)
                counts.append(spikes)
                n += 1
                if abs(x - target) < tol:
                    return
            return
        if n >= stop:
            return
        branches = self._branches or self._build_branches()
        sigma, (c_left, s_left, n_left), (z_right, s_right, n_right) = branches
        theta = self._theta
        push_state, push_count = states.append, counts.append
        while n < stop:
            if not 0.0 <= x < theta:
                raise _outside_domain(x, theta)
            if x >= sigma:
                x = z_right + s_right * (x - sigma)
                push_count(n_right)
            else:
                x = c_left + s_left * x
                push_count(n_left)
            push_state(x)
            n += 1
            if abs(x - target) < tol:
                return

    def _build_branches(self) -> tuple[float, tuple[float, float, int], tuple[float, float, int]]:
        """Keep and return sigma and the linear map's left and right branches ``(c, s, k)``.

        x < sigma maps to ``c + s*x`` with k = n - 1 spikes, c the image of 0
        had its k-th spike come at ``k*delta``; x >= sigma maps to ``z + s*(x
        - sigma)`` with n, z the image of sigma (its n-th spike at ``t1 +
        (n-1)*delta``).  Two terms of one sign (for ``b >= 0``): an expanding
        right branch loses nothing to the cancellation of ``z - s*sigma``.
        Without a boundary the left form with ``k = spike_count(0.0)`` serves
        every state, and sigma is inf.  Errors of :meth:`boundary` and counts
        past ``spike_cap`` raise here.
        """
        info = self.boundary()
        k = self.spike_count(0.0) if info is None else info.n - 1
        c = self._flows(0.0, self._pulse - (k * self._spacing if k else 0.0))
        left = (c, self._slope(k), k)
        sigma, right = math.inf, left
        if info is not None:
            sigma, n = info.sigma, info.n
            last = self._first_spike(sigma) + ((n - 1) * self._spacing if n > 1 else 0.0)
            right = (self._flows(0.0, self._pulse - last), self._slope(n), n)
        self._branches = sigma, left, right
        return self._branches

    def _slope(self, k: int) -> float:
        """``exp(a*(T - k*delta))``, the slope of a linear map's k-spike branch."""
        if k and self._spacing == math.inf:
            raise DomainError(
                f"slope exp(a*(T - n*delta)) of the {k}-spike branch undefined: delta is None "
                f"or infinite (delta = {self.delta}) under A={self.forcing.A}"
            )
        return math.exp(self.model.a * (self.forcing.T - (k * self._spacing if k else 0.0)))

    def spike_count(self, x0: float) -> int:
        """Spikes of one map application from x0, without its image.

        The domain is :meth:`apply`'s: ValueError outside [0, theta), NaN
        included.
        """
        if not 0.0 <= x0 < self._theta:
            raise _outside_domain(x0, self._theta)
        return self._spikes(x0)[0]

    def _spikes(self, x0: float, times: list[float] | None = None) -> tuple[int, float]:
        """Number of spikes within the pulse from x0 and the time of the last one (0.0 without).

        The count of the spike rule is ``floor((pulse - t1)/delta) + 1``,
        settled on the rule by one correction up or down.  A zero spacing or
        a NaN, which no spike time stops, meets the cap test first.
        """
        t = self._first_spike(x0)
        pulse, delta = self._pulse, self._spacing
        if t is None or t > pulse:
            return 0, 0.0
        spikes, last = 1, t
        if not t + delta > pulse:
            if not t + self._cap_span > pulse:
                raise self._runaway()
            k = int((pulse - t) / delta)  # the last spike is spike k + 1
            last = t + k * delta
            if last > pulse:
                k -= 1
                last = t + k * delta
            elif not (after := t + (k + 1) * delta) > pulse:
                k += 1
                last = after
            spikes = k + 1
        if times is not None:
            times.extend(t + k * delta if k else t for k in range(spikes))
        return spikes, last

    def _first_spike(self, x0: float) -> float | None:
        """Hit time of the threshold from x0 under the drive, None when unreachable."""
        if not self._closed_form:
            return self._on.hit_time(x0)
        if not self._reachable:
            return None
        try:
            return math.log1p(-(self._theta - x0) / (self._xeq_on - x0)) / self._a
        except ValueError as exc:
            raise _unresolvable(x0, self.forcing.A) from exc

    def _at_least(self, n: int) -> Callable[[float], bool]:
        """The edge probe ``x0 -> spike_count(x0) >= n``, for n from 1 to ``spike_cap``.

        It compares the times of spikes n and n + 1, ``t1 + (n-1)*delta`` and
        ``t1 + n*delta``, with the pulse end, the products taken once.  A
        probe with room for spike n + 1, or with a NaN hit time, takes the
        full count, which raises past ``spike_cap`` as the map does.
        """
        first, pulse, delta = self._first_spike, self._pulse, self._spacing
        span = (n - 1) * delta if n > 1 else 0.0
        beyond = n * delta

        def fits(x0: float) -> bool:
            t = first(x0)
            if t is None or t + span > pulse:
                return False
            return t + beyond > pulse or self._spikes(x0)[0] >= n

        return fits

    def _runaway(self) -> SpikeRunawayError:
        return SpikeRunawayError(
            f"more than {self.spike_cap} spikes in one period "
            f"(A={self.forcing.A}, T={self.forcing.T})"
        )

    def boundary(self) -> BoundaryInfo | None:
        """The map's discontinuity (see :func:`boundary_sigma`), found once for every reader."""
        if self._edge is None:
            self._edge = (self._find_edge(),)
        return self._edge[0]

    def _find_edge(self) -> BoundaryInfo | None:
        top = math.nextafter(self._theta, 0.0)
        n = self.spike_count(top)
        if n == 0:
            return None
        delta = self._spacing
        if delta == math.inf:  # no second spike: n is 1
            guess = top
        else:
            t_first = self._pulse - (n - 1) * delta
            s = max(delta - t_first, 0.0)
            if self._closed_form:
                guess = flow(self.model, self.forcing.A, s, 0.0)
            else:
                guess = self._on.flow(0.0, s)
        sigma = _snap_to_branch_edge(self, min(max(guess, 0.0), top), n)
        return None if sigma is None else BoundaryInfo(sigma=sigma, n=n)


class _Flows:
    """One drive's flows of a linear model with ``a >= 0``, through the public functions."""

    def __init__(self, model: LinearModel, drive: float) -> None:
        self._model, self._drive = model, drive

    def hit_time(self, x: float) -> float | None:
        return time_to_threshold(self._model, self._drive, x)

    def flow(self, x: float, s: float) -> float:
        return flow(self._model, self._drive, s, x)


def strobe(model: Model, forcing: Forcing, x0: float, spike_cap: int = SPIKE_CAP) -> StrobeResult:
    """Flow x0 through one full period of the square-wave drive.

    A crossing exactly at the pulse end t = d*T still counts as a spike, so
    the map takes its right-branch value on the boundary.  Callers applying
    the map of one forcing many times build a :class:`StrobeMap` once.
    """
    times: list[float] = []
    image, spikes = StrobeMap(model, forcing, spike_cap).apply(x0, times)
    return StrobeResult(image=image, spikes=spikes, spike_times=tuple(times))


def _ordinal(x: float) -> int:
    """Bit pattern of a double; it orders non-negative doubles like their values."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_ordinal(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _snap_to_branch_edge(smap: StrobeMap, sigma: float, n: int) -> float | None:
    """The double in (0, theta) spiking at least n times whose predecessor spikes fewer.

    Gallops 1, 2, 4, ... ulps from the guess sigma, down while the probes
    spike at least n times and up while they spike fewer, until the count
    crosses n, then bisects the bracket, so the cost grows with the log of
    the distance.  Going up it stops by the last double below theta, which
    spikes n times; None when it goes down to 0.0 without a crossing.  The
    probes are :meth:`StrobeMap._at_least`'s, ``spike_count(probe) >= n``
    exactly.
    """
    top = _ordinal(math.nextafter(smap.model.theta, 0.0))
    k = _ordinal(sigma)
    fits = smap._at_least(n)
    above = fits(sigma)
    step = -1 if above else 1
    while True:
        if above and k == 0:
            return None
        probe = min(max(k + step, 0), top)
        if fits(_from_ordinal(probe)) != above:
            break
        k, step = probe, 2 * step
    lo, hi = sorted((k, probe))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(_from_ordinal(mid)):
            hi = mid
        else:
            lo = mid
    return _from_ordinal(hi)


def boundary_sigma(
    model: Model, forcing: Forcing, spike_cap: int = SPIKE_CAP
) -> BoundaryInfo | None:
    """State whose trajectory reaches the threshold at t = d*T, snapped to the branch edge.

    n is the map's own spike count from ``top``, the last double below
    theta.  None when n is 0 (in particular whenever A <= critical dose) or
    when the edge search walks down to 0.0 without finding a state that
    spikes fewer than n times; either way ``spike_count(0.0) >=
    spike_count(top)``.  Otherwise sigma spikes at least n times and the
    double below it fewer.  The spike count rounds unevenly near the edge,
    so sigma is one edge of a band of mixed counts that can be a few
    thousand ulps wide.  The guess is the point of the reset trajectory
    ``t_first`` = pulse - (n-1)*delta short of the threshold, the time of
    the first of the n spikes by the map's spike rule.  The search tests
    each probe's count against n with the map's own spike times, one hit
    time per probe, and the count of ``top`` is closed-form, so the cost
    does not grow with n (see :func:`_snap_to_branch_edge`).  With an
    infinite spacing (``delta`` None or infinite) a state spikes at most
    once and the search starts from ``top``.  :meth:`StrobeMap.boundary`
    computes it for a map already built.
    """
    return StrobeMap(model, forcing, spike_cap).boundary()


def fixed_point(
    model: Model, forcing: Forcing, n: int, spike_cap: int = SPIKE_CAP
) -> float | None:
    """Fixed point of the map restricted to its n-spike continuity branch.

    Absent when the requested branch does not exist or its fixed point has
    moved outside the branch domain.
    """
    _check_count("spike count n", n, 0)
    theta = model.theta
    top = math.nextafter(theta, 0.0)
    smap = StrobeMap(model, forcing, spike_cap)
    info = smap.boundary()
    if info is None:
        if smap.spike_count(0.0) != n:
            return None
        lo, hi = 0.0, top
    elif n == info.n:
        lo, hi = info.sigma, top
    elif n == info.n - 1:
        lo, hi = 0.0, math.nextafter(info.sigma, 0.0)
    else:
        return None

    def defect(x: float) -> float:
        return smap.apply(x)[0] - x

    d_lo = defect(lo)
    d_hi = defect(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if math.copysign(1.0, d_lo) == math.copysign(1.0, d_hi):
        return None
    root = brentq(defect, lo, hi, xtol=1e-14)
    # a sign change at the branch edge is the discontinuity, not a fixed point
    image, spikes = smap.apply(root)
    if spikes != n or abs(image - root) > 1e-12 * max(1.0, theta):
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
    x = states[0]
    gaps = [abs(y - x) for y in states[1 : min(len(states) - 1, max_period) + 1]]
    return gaps.index(min(gaps)) + 1


def _repeats(states: list[float], counts: list[int], start: int, p: int, tol: float) -> bool:
    """Whether the p maps from ``start`` repeat: states within 10*tol, same spike counts."""
    return counts[start + p : start + 2 * p] == counts[start : start + p] and all(
        abs(states[start + p + j] - states[start + j]) < 10.0 * tol for j in range(p)
    )


def _contraction_margin(smap: StrobeMap, info: BoundaryInfo | None, grid: int = 33) -> float:
    """Length lost by the right branch under one map application.

    Positive values certify contraction of the branch [sigma, theta) (the
    devil's-staircase regime); non-positive values flag possible expansion.
    For a linear field the branch is affine with slope exp(a*(T - n*delta)),
    so the margin is (theta - sigma) * (1 - slope).  Generic fields use a
    sampled sup of the central-difference derivative, a heuristic bound.
    Without a boundary (``info`` is None, as returned by
    :meth:`StrobeMap.boundary`) the single branch is measured the same way.
    A linear branch with spikes but an infinite spacing raises DomainError
    (see :meth:`StrobeMap._slope`).
    """
    model = smap.model
    theta = model.theta
    if info is None:
        lo = 0.0
        n = smap.spike_count(0.0)
    else:
        lo = info.sigma
        n = info.n
    span = theta - lo
    if isinstance(model, LinearModel):
        return span * (1.0 - smap._slope(n))
    h = min(1e-6, span * 1e-3)
    top = math.nextafter(theta, 0.0)
    sup = -math.inf
    for i in range(grid):
        x = lo + span * (i + 0.5) / grid
        xl = max(x - h, lo)
        xr = min(x + h, top)
        if xr <= xl:
            continue
        image_l, spikes_l = smap.apply(xl)
        image_r, spikes_r = smap.apply(xr)
        if spikes_l != n or spikes_r != n:
            continue
        sup = max(sup, (image_r - image_l) / (xr - xl))
    if not math.isfinite(sup):
        return span
    return span * (1.0 - sup)


def contraction_margin(model: Model, forcing: Forcing) -> float:
    """Interval length lost by the right branch of the map; > 0 certifies
    contraction there.  Without a boundary the single branch is measured,
    which is always contracting under the standing hypotheses."""
    smap = StrobeMap(model, forcing)
    return _contraction_margin(smap, smap.boundary())


def attractor(model: Model, forcing: Forcing, opts: OrbitOptions | None = None) -> OrbitSummary:
    """Iterate the map to the periodic attractor and summarize it.

    The map is applied at most ``transient + 2*max_period`` times
    (``opts``), by one :meth:`StrobeMap.iterate` call between checkpoints of
    the detector.  Each state is compared with an anchor that moves after 1,
    2, 4, ... maps without a return (Brent's cycle detection), once more
    when ``transient`` maps are spent, and to the current state after a
    failed verification.  A return within ``state_tol`` at distance p, the only
    candidate since shorter ones failed from the same anchor, is verified by
    p more maps: states repeat within 10*state_tol with equal per-step spike
    counts.  A cycle longer than ``max_period``, or none within the budget,
    gives ``converged=False`` and the closest candidate cycle among the last
    2*max_period maps (expected only where the map loses contraction).  A
    linear ``a < 0`` map steps its branches (:meth:`StrobeMap.iterate`),
    split at the boundary that also sets the word.
    """
    if opts is None:
        opts = OrbitOptions()
    tol, transient = opts.state_tol, opts.transient
    budget = transient + 2 * opts.max_period
    smap = StrobeMap(model, forcing, opts.spike_cap)
    states = [opts.seed]
    counts: list[int] = []
    anchor, power = 0, 1  # index of the anchor; maps it waits before it moves
    lam = 0  # distance of the return under verification, 0 when none
    period = 0  # length of the verified cycle, 0 when none
    i = 0  # maps applied
    # one iterate call per checkpoint: a return to the anchor, an anchor move,
    # the end of a verification or the budget
    while i < budget:
        if lam:
            smap.iterate(states, counts, min(anchor + 2 * lam, budget), 0.0, 0.0)
            i = len(counts)
            if i == anchor + 2 * lam:
                if _repeats(states, counts, anchor, lam, tol):
                    period = lam
                    break
                anchor, power, lam = i, 1, 0
            continue
        stop = min(anchor + power, transient) if i < transient else budget
        smap.iterate(states, counts, stop, states[anchor], tol)
        i = len(counts)
        if abs(states[i] - states[anchor]) < tol:
            lam = i - anchor
        elif i == transient or (i < transient and i - anchor == power):
            anchor, power = i, 2 * power

    converged = 0 < period <= opts.max_period
    if converged:
        p = period
        start = len(counts) - p
    else:
        # keep the last 2*max_period maps alone: the states before them are
        # freed before the candidate search builds its gaps
        window = len(counts) - 2 * opts.max_period
        states, counts, start = states[window:], counts[window:], 0
        p = _best_candidate(states, opts.max_period)
    points = tuple(states[start : start + p])
    n_spikes = sum(counts[start : start + p])

    info = smap.boundary()
    if info is None:
        word = "L" * p
        single_branch = True
    else:
        word = "".join("R" if pt >= info.sigma else "L" for pt in points)
        single_branch = False
    word = _least_rotation(word)

    margin = _contraction_margin(smap, info) if opts.compute_margin else math.nan
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
