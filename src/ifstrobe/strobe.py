"""Stroboscopic map with reset, its discontinuity boundary and attractors.

One application of the map flows the pulsed system for a full period T:
drive A on (0, d*T], drive 0 on (d*T, T], resetting to 0 at every threshold
crossing.  Spikes can only occur during (0, d*T]; the map is smooth except at
the single state ``sigma`` whose trajectory reaches the threshold exactly
when the pulse ends.  States at or right of ``sigma`` perform n spikes per
period, states left of it n-1 (right-branch convention at the boundary
itself), up to a band of a few thousand ulps around ``sigma`` where the
rounded spike count mixes n and n-1.

A linear map whose two affine branches both contract finds its periodic
attractor by a Stern-Brocot descent over the branch constants; any other map
iterates under Brent's cycle detector.  Symbolic itineraries over {L, R} are
taken relative to ``sigma``:  R marks orbit points on or right of the
boundary.  The firing-number n/p and rotation number (#R)/p are kept as exact
rationals.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from ._brent import brentq
from .model import (
    DomainError,
    Forcing,
    GenericModel,
    Model,
    _Checked,
    _DriveOrbits,
    _LinearDrive,
    _check_count,
    _flow_slope,
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


class StrobeResult(NamedTuple):
    """One application of the map: image point, spike count, spike times."""

    image: float
    spikes: int
    spike_times: tuple[float, ...]


class BoundaryInfo(NamedTuple):
    """Discontinuity of the map: states >= sigma spike ``n`` times per period."""

    sigma: float
    n: int


class _OrbitFields(NamedTuple):
    transient: int = 10_000
    max_period: int = 10_000
    seed: float = 0.0
    state_tol: float = STATE_TOL
    spike_cap: int = SPIKE_CAP


class OrbitOptions(_Checked, _OrbitFields):
    """Iteration budget and tolerances for attractor detection.

    :func:`attractor` reports cycles of at most ``max_period`` maps, and
    ``spike_cap`` bounds the spikes of one map.  Brent's detector applies
    the map at most ``transient + 2*max_period`` times from ``seed`` and
    compares states within ``state_tol``; the descent of a linear map with
    both branch slopes below 1 reads ``max_period`` alone (``seed`` must
    still lie in [0, theta)).  The three counts are
    integers; out-of-domain values raise :class:`~ifstrobe.model.DomainError`.
    Every summary computes its cycle's multiplier, ``log_multiplier``.
    """

    __slots__ = ()

    def _check(self) -> None:
        for name, least in (("transient", 0), ("max_period", 1), ("spike_cap", 1)):
            value = getattr(self, name)
            _check_count(name, value)
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value!r}")
        if not (math.isfinite(self.state_tol) and self.state_tol > 0.0):
            raise DomainError(f"state_tol must be finite and > 0, got {self.state_tol!r}")


class OrbitSummary(NamedTuple):
    """Detected periodic attractor of the stroboscopic map.

    ``eta`` = spikes_n / period_p and ``rho`` = (#R) / period_p are exact
    rationals; ``rate`` = eta / T.  ``word`` is the itinerary in its
    lexicographically minimal cyclic rotation, and ``points[i]`` is the
    cycle's point with the symbol ``word[i]``; when no boundary lies in
    [0, theta) the orbit is single-branch and the word is "L" * p by
    convention.  ``converged`` is True when the descent found the cycle
    (its points are then the cycle's, to rounding) or when Brent's detector
    verified a cycle of length at most ``max_period`` by a second cycle
    within the budget of :class:`OrbitOptions` (its points are then states
    within about ``10*state_tol/(1 - S)`` of the cycle).  Otherwise, when the
    budget ran out or the verified cycle is longer than ``max_period``, the
    fields describe the best candidate cycle among the last
    ``2*max_period`` map applications.
    ``log_multiplier`` is log S, S the product of the map's slopes at the
    p ``points``: the cycle contracts where it is below 0, the one verdict
    a sweep reports as ``contraction_ok`` (see :func:`_log_multiplier`).
    """

    period_p: int
    spikes_n: int
    word: str
    eta: Fraction
    rho: Fraction
    rate: float
    points: tuple[float, ...]
    converged: bool
    log_multiplier: float
    single_branch: bool


class _Branches(NamedTuple):
    """A linear map's two affine branches (see :meth:`StrobeMap._build_branches`)."""

    sigma: float
    c: float
    s_L: float
    n_L: int
    z: float
    s_R: float
    n_R: int


class StrobeMap:
    """The stroboscopic map of one forcing, set up once and applied many times.

    Built once per ``(model, forcing, spike_cap)``, ``spike_cap`` an integer
    of at least 1.  ``delta`` is the reset hit time ``time_to_threshold(model,
    forcing.A, 0.0)``, bit for bit, None when the threshold is unreachable.
    One rule times the spikes: spike k from x0 comes at ``t1 + (k-1)*delta``,
    t1 the hit time from x0, if that is at or before the pulse end.  The
    count, found in closed form, the edge probes, the boundary's guess and
    the branch slopes all read it, with one spacing, ``delta`` or inf
    when it is None: a ``delta`` that is None or infinite (a reset hit time
    that overflows) means no second spike.  A count past ``spike_cap``,
    endless for a zero spacing or a NaN hit time, raises
    :class:`SpikeRunawayError` at once.  :meth:`apply`, :meth:`iterate` and
    :meth:`spike_count` share one domain, [0, theta), and raise ValueError
    outside it.

    The map reads its two constant drives, A during the pulse and 0 after
    it, through one interface for both model kinds: each drive has a
    ``delta``, a ``hit_time(x)`` and a ``flow(x, s)``, and :meth:`apply`,
    the spike count, the edge probes and the boundary's guess call them the
    same way.  The model kind is read where the maths differs: which drives
    are built, how :meth:`iterate` steps and how the cycle multiplier is
    taken (:func:`_log_multiplier`).

    A linear model must have ``a < 0``, the standing hypothesis of one
    attracting rest point; any other ``a``, 0.0 and -0.0 included, raises
    :class:`~ifstrobe.model.DomainError` before ``delta`` is solved.  Its
    drives are ``model._LinearDrive``'s closed form, the code of the public
    ``time_to_threshold`` and ``flow``, so :meth:`apply`, :meth:`spike_count`
    and the edge probes of :meth:`boundary` equal those functions bit for
    bit, errors included.  :meth:`iterate` instead steps the map's two
    exact affine branches, of n - 1 and n spikes, with slopes ``s_k =
    exp(a*(T - k*delta))``, split at the boundary's sigma (see
    :meth:`_build_branches`).  For a generic model every trajectory of a
    constant drive is a time shift of a stored orbit
    (``model._DriveOrbits``), one per drive and side of its rest point,
    integrated once and extended on demand: the reset orbit is the run
    ``time_to_threshold(model, A, 0.0)`` starts, the hit time from x0 is
    ``delta - u_A(x0)``, u_A being the time at which that orbit passes x0,
    and the image is read off the orbit of drive 0 at ``u_0(y) + (1 -
    d)*T`` from the pulse-end state y.  So after construction its maps,
    spike counts and edge probes start no integrator run beyond extending
    those orbits, and its :meth:`iterate` is a loop over :meth:`apply`.  A
    map builds its own orbits; the nodes of one ``sweep_T`` or
    ``scan_plane`` call pass the call's store as the private ``_orbits``, a
    dict of ``_DriveOrbits`` by ``(drive, threshold)``, and share the
    orbits of each drive.
    """

    def __init__(
        self,
        model: Model,
        forcing: Forcing,
        spike_cap: int = SPIKE_CAP,
        *,
        _orbits: dict | None = None,
    ) -> None:
        _check_count("spike_cap", spike_cap, 1)
        self.model = model
        self.forcing = forcing
        self.spike_cap = spike_cap
        self._theta = model.theta
        self._pulse = pulse = forcing.pulse_width
        self._rest = forcing.T - pulse
        self._generic = isinstance(model, GenericModel)
        if self._generic:
            self._on = _drive_orbits(model, forcing.A, True, _orbits)
            self._off = _drive_orbits(model, 0.0, False, _orbits)
        else:
            a = model.a
            if not a < 0.0:
                raise DomainError(
                    f"a linear field needs a < 0 (one attracting rest point), got a = {a!r}"
                )
            self._on, self._off = _LinearDrive(model, forcing.A), _LinearDrive(model, 0.0)
        self.delta = delta = self._on.delta
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
        return self._image(0.0 if spikes else x0, self._pulse - last), spikes

    def _image(self, x: float, s: float) -> float:
        """The state after time s under the drive from x, then the off phase; a
        linear drive also runs a negative s, backwards, as a branch through 0 may need."""
        return self._off.flow(self._on.flow(x, s), self._rest)

    def iterate(
        self, states: list[float], counts: list[int], stop: int, target: float, tol: float
    ) -> None:
        """Apply the map from ``states[-1]`` until ``len(counts) == stop`` or a return.

        Appends each image to ``states`` and its spike count to ``counts``,
        and stops early after an image within ``tol`` of ``target`` (never
        when ``tol`` is 0); the maps before an error stay appended.  For a
        linear model each map is a step of the branch map, built before the
        first map (:meth:`_build_branches`), in one loop with no call per
        map: the exact map's image to within rounding, not :meth:`apply`'s
        bit for bit, and a count that follows sigma in the band of mixed
        counts.  For a generic model each map is :meth:`apply`'s.
        """
        n, x = len(counts), states[-1]
        if self._generic:
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
        sigma, c, s_L, n_L, z, s_R, n_R = self._branches or self._build_branches()
        theta = self._theta
        push_state, push_count = states.append, counts.append
        while n < stop:
            if not 0.0 <= x < theta:
                raise _outside_domain(x, theta)
            if x >= sigma:
                x = z + s_R * (x - sigma)
                push_count(n_R)
            else:
                x = c + s_L * x
                push_count(n_L)
            push_state(x)
            n += 1
            if abs(x - target) < tol:
                return

    def _build_branches(self) -> _Branches:
        """Keep and return sigma and the linear map's left and right branches.

        x < sigma maps to ``c + s_L*x`` with n_L = n - 1 spikes, c the image
        of 0 had its n_L-th spike come at ``n_L*delta``; x >= sigma maps to ``z
        + s_R*(x - sigma)`` with n_R = n, z the image of sigma (its n-th spike
        at ``t1 + (n-1)*delta``).  Two terms of one sign (for ``b >= 0``): an
        expanding right branch loses nothing to the cancellation of ``z -
        s_R*sigma``.  Without a boundary the left form with ``n_L =
        spike_count(0.0)`` serves every state, as both branches, and sigma is
        inf.  Errors of :meth:`boundary` and counts past ``spike_cap`` raise
        here.
        """
        info = self.boundary()
        k = self.spike_count(0.0) if info is None else info.n - 1
        c = self._image(0.0, self._pulse - (k * self._spacing if k else 0.0))
        s = self._slope(k)
        if info is None:
            self._branches = _Branches(math.inf, c, s, k, c, s, k)
        else:
            sigma, n = info.sigma, info.n
            last = self._on.hit_time(sigma) + ((n - 1) * self._spacing if n > 1 else 0.0)
            z = self._image(0.0, self._pulse - last)
            self._branches = _Branches(sigma, c, s, k, z, self._slope(n), n)
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
        t = self._on.hit_time(x0)
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

    def _at_least(self, n: int) -> Callable[[float], bool]:
        """The edge probe ``x0 -> spike_count(x0) >= n``, for n from 1 to ``spike_cap``.

        It compares the times of spikes n and n + 1, ``t1 + (n-1)*delta`` and
        ``t1 + n*delta``, with the pulse end, the products taken once.  A
        probe with room for spike n + 1, or with a NaN hit time, takes the
        full count, which raises past ``spike_cap`` as the map does.
        """
        first, pulse, delta = self._on.hit_time, self._pulse, self._spacing
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
            guess = self._on.flow(0.0, max(delta - t_first, 0.0))
        sigma = _snap_to_branch_edge(self, min(max(guess, 0.0), top), n)
        return None if sigma is None else BoundaryInfo(sigma=sigma, n=n)


def _drive_orbits(
    model: GenericModel, drive: float, threshold: bool, store: dict | None
) -> _DriveOrbits:
    """The orbits of one drive: from ``store`` when given, built there on first use."""
    if store is None:
        return _DriveOrbits(model.f, drive, model.theta, threshold)
    orbits = store.get((drive, threshold))
    if orbits is None:
        orbits = store[drive, threshold] = _DriveOrbits(model.f, drive, model.theta, threshold)
    return orbits


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
    moved outside the branch domain.  A linear field takes it in closed
    form from its affine branches (:meth:`StrobeMap._build_branches`):
    ``c/(1 - s_L)`` left of sigma, ``sigma + (z - sigma)/(1 - s_R)`` at or
    right of it; a slope that rounds to exactly 1 makes the branch a
    translation, with no isolated fixed point, and gives None.  A generic
    field solves ``apply(x) = x`` on the branch by Brent's method.
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
    if not smap._generic:
        sigma, c, s_L, _, z, s_R, _ = smap._branches or smap._build_branches()
        right = info is not None and n == info.n
        s = s_R if right else s_L
        if s == 1.0:
            return None
        x = sigma + (z - sigma) / (1.0 - s) if right else c / (1.0 - s)
        return x if lo <= x <= hi else None

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


def _least_rotation_start(word: str) -> int:
    """The k of the lexicographically minimal rotation ``word[k:] + word[:k]`` (Booth's algorithm)."""
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
    return k


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


def _log_multiplier(smap: StrobeMap, points: tuple[float, ...], spikes: int) -> float:
    """log S, S the cycle multiplier: the product of the map's slopes at ``points``.

    A linear map's k-spike branch has slope ``exp(a*(T - k*delta))``, so
    for p points and ``spikes`` = N spikes in all log S is ``a*(p*T -
    N*delta)``; a spiking branch with an infinite spacing has raised when
    the branches were built.  A generic map adds up the logs of
    :func:`_map_slope` at each point, a slope that underflows to 0 giving
    -inf.
    """
    if not smap._generic:
        spacing = smap._spacing
        return smap.model.a * (len(points) * smap.forcing.T - (spikes * spacing if spikes else 0.0))
    total = 0.0
    for x in points:
        slope = _map_slope(smap, x, *smap._spikes(x))
        total += math.log(slope) if slope else -math.inf
    return total


def _map_slope(smap: StrobeMap, x0: float, spikes: int, last: float) -> float:
    """The generic map's derivative at x0, which spikes ``spikes`` times, the last at ``last``.

    Along a constant drive D the flow's derivative is ``g_D(end)/g_D(start)``,
    g_D = f + D, and a reset's saltation cancels the factors of the hit
    times, so the map's slope is ``g_A(y)*g_0(z) / (g_A(x0)*g_0(y))``, y the
    pulse-end state and z the image.  With spikes, ``g_A(y)/g_A(x0)`` is
    taken as it is: both states lie on the reset orbit, where g_A is at
    least f(theta) + A.  Each reset-free flow, the off phase and an on phase
    without spikes, takes :func:`~ifstrobe.model._flow_slope`'s rule, which
    replaces the quotient by ``exp(s*f')`` near the drive's rest point.
    """
    model, A, rest = smap.model, smap.forcing.A, smap._rest
    s = smap._pulse - last
    y = smap._on.flow(0.0 if spikes else x0, s)
    z = smap._off.flow(y, rest)
    if spikes:
        on = (model.f(y) + A) / (model.f(x0) + A)
    else:
        on = _flow_slope(model, A, s, x0, y)
    return on * _flow_slope(model, 0.0, rest, y, z)


def attractor(model: Model, forcing: Forcing, opts: OrbitOptions | None = None) -> OrbitSummary:
    """Find the map's periodic attractor and summarize it.

    A linear map whose branch slopes are both below 1 has one attracting
    cycle, found by a Stern-Brocot descent over its branch constants with
    no map applied (:func:`_descend`): ``converged`` unless its period
    passes ``max_period``.  Every other map, and such a map past
    ``max_period``, runs Brent's detector, unchanged.  It applies the map
    at most ``transient + 2*max_period`` times (``opts``), by one
    :meth:`StrobeMap.iterate` call between checkpoints of the detector.  Each state is compared with an anchor that moves after 1,
    2, 4, ... maps without a return (Brent's cycle detection), once more
    when ``transient`` maps are spent, and to the current state after a
    failed verification.  A return within ``state_tol`` at distance p, the only
    candidate since shorter ones failed from the same anchor, is verified by
    p more maps: states repeat within 10*state_tol with equal per-step spike
    counts.  A cycle longer than ``max_period``, or none within the budget,
    gives ``converged=False`` and the closest candidate cycle among the last
    2*max_period maps (expected only where the map loses contraction).  A
    linear map steps its branches (:meth:`StrobeMap.iterate`),
    split at the boundary that also sets the word.
    """
    if opts is None:
        opts = OrbitOptions()
    return _attractor(StrobeMap(model, forcing, opts.spike_cap), opts)


def _attractor(smap: StrobeMap, opts: OrbitOptions) -> OrbitSummary:
    """:func:`attractor` of a map already built, with ``opts.spike_cap`` as its cap."""
    cycle = None if smap._generic else _descend(smap, opts)
    if cycle is None:
        word, points, n_spikes, converged = _detect(smap, opts)
    else:
        word, points = cycle[0], tuple(cycle[1])
        _, _, _, n_L, _, _, n_R = smap._branches
        n_spikes = len(word) * n_L + word.count("R") * (n_R - n_L)
        converged = True
    p = len(points)
    return OrbitSummary(
        period_p=p,
        spikes_n=n_spikes,
        word=word,
        eta=Fraction(n_spikes, p),
        rho=Fraction(word.count("R"), p),
        rate=n_spikes / (p * smap.forcing.T),
        points=points,
        converged=converged,
        log_multiplier=_log_multiplier(smap, points, n_spikes),
        single_branch=smap.boundary() is None,
    )


def _side_test(br: _Branches, word: str, x: float, band: float) -> tuple[int, list[float]]:
    """Step ``word``'s branches from x: 0 and the points when each lies on its symbol's side.

    A point within ``band`` of sigma lies on either side.  Otherwise the
    first point off its side stops the walk: an L point right of sigma
    gives +1 (the rotation number lies above the word's), an R point left
    of it -1, with the points stepped so far.
    """
    sigma, c, s_L, _, z, s_R, _ = br
    points: list[float] = []
    for symbol in word:
        points.append(x)
        if symbol == "L":
            if x - sigma >= band:
                return 1, points
            x = c + s_L * x
        else:
            if sigma - x >= band:
                return -1, points
            x = z + s_R * (x - sigma)
    return 0, points


def _then(u: tuple, v: tuple) -> tuple:
    """The word u then v, each ``(q, C, S, word)`` for the affine map ``C + S*x`` it composes."""
    return u[0] + v[0], v[1] + v[2] * u[1], u[2] * v[2], u[3] + v[3]


def _descend(smap: StrobeMap, opts: OrbitOptions) -> tuple[str, list[float]] | None:
    """A linear map's cycle, word and points, by Stern-Brocot descent; None for the detector.

    It runs where both branch slopes are below 1.  Every image then lies
    in J = [z, b], b = c + s_L*sigma the left limit at sigma, and on J the
    map is injective: ``s_R*(b - sigma) + s_L*(sigma - z) <= b - z``, as
    both slopes are at most 1.  So it has one rotation number rho, the
    share of R symbols, and at most one cycle of rotation number p/q: the
    q-fold composition along its word, the lower Christoffel word, is
    affine with slope below 1.  That cycle attracts every seed, and
    :func:`_stern_brocot` finds it.  None, for Brent's detector, where a
    slope is 1 or more, where the search passes ``max_period`` (the only
    field of ``opts`` it reads), or where a point of the cycle leaves [0,
    theta).  The seed must lie in [0, theta) on both paths.
    """
    br = smap._branches or smap._build_branches()
    theta, seed = smap._theta, opts.seed
    if not 0.0 <= seed < theta:
        raise _outside_domain(seed, theta)
    if not (br.s_L < 1.0 and br.s_R < 1.0):
        return None
    cycle = _stern_brocot(br, opts.max_period, 2.0**-50 * theta)
    if cycle is None or not (0.0 <= min(cycle[1]) and max(cycle[1]) < theta):
        return None
    return cycle


def _stern_brocot(br: _Branches, cap: int, unit: float) -> tuple[str, list[float]] | None:
    """The word and points of the cycle of rotation number p/q, q at most ``cap``, else None.

    It tries 0/1 (the left fixed point ``c/(1 - s_L)``) and 1/1 (the right
    one, ``sigma + (z - sigma)/(1 - s_R)``), then mediants.  A mediant's
    word is its lower parent's then its upper parent's, so its map ``C +
    S*x`` is one product of theirs (:func:`_then`), and its candidate
    point is ``C/(1 - S)``.  :func:`_side_test` steps the candidate's q
    points along its word, with a band of ``q*unit/(1 - S)`` around sigma,
    the candidate's rounding, and accepts it or tells on which side of p/q
    rho lies.  Each run of one direction gallops by doubling steps until
    the side flips, then bisects with the halved steps, so the tests grow
    with the log of each partial quotient.  The word, a Lyndon word, is
    its least rotation, and ``points[i]`` has the symbol ``word[i]``.
    """
    sigma, c, s_L, _, z, s_R, _ = br

    def test(node: tuple, x: float | None = None) -> tuple[int, list[float]]:
        q, C, S, word = node
        return _side_test(br, word, C / (1.0 - S) if x is None else x, q * unit / (1.0 - S))

    lo, hi = (1, c, s_L, "L"), (1, z - s_R * sigma, s_R, "R")
    for node, x in ((lo, None), (hi, sigma + (z - sigma) / (1.0 - s_R))):
        d, points = test(node, x)
        if not d:
            return node[3], points
    while True:
        node = _then(lo, hi)
        if node[0] > cap:
            return None
        d, points = test(node)
        if not d:
            return node[3], points
        # rho lies beyond node, toward hi for d > 0 and toward lo for d < 0
        base, step, halves = node, hi if d > 0 else lo, []
        while True:
            cand = _then(base, step) if d > 0 else _then(step, base)
            if cand[0] > cap:
                break
            e, points = test(cand)
            if not e:
                return cand[3], points
            if e != d:
                break
            base = cand
            halves.append(step)
            step = _then(step, step)
        for step in reversed(halves):
            cand = _then(base, step) if d > 0 else _then(step, base)
            if cand[0] > cap:  # the gallop stopped at the cap, not at a flip
                continue
            e, points = test(cand)
            if not e:
                return cand[3], points
            if e == d:
                base = cand
        lo, hi = (base, _then(base, hi)) if d > 0 else (_then(lo, base), base)


def _detect(smap: StrobeMap, opts: OrbitOptions) -> tuple[str, tuple[float, ...], int, bool]:
    """Brent's detector: the word, points, spikes and ``converged`` of :func:`attractor`."""
    tol, transient = opts.state_tol, opts.transient
    budget = transient + 2 * opts.max_period
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
    points = states[start : start + p]
    n_spikes = sum(counts[start : start + p])
    info = smap.boundary()
    if info is None:
        return "L" * p, tuple(points), n_spikes, converged
    word = "".join("R" if pt >= info.sigma else "L" for pt in points)
    k = _least_rotation_start(word)
    return word[k:] + word[:k], tuple(points[k:] + points[:k]), n_spikes, converged
