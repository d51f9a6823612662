"""Subthreshold model, square-wave forcing and constant-drive flows.

The state obeys

    x' = f(x) + I(t),      x = theta  -->  x = 0   (instantaneous reset)

where f has a single attracting equilibrium in (0, theta) and is strictly
decreasing on [0, theta].  I(t) is a square wave of amplitude ``A``, period
``T`` and duty cycle ``d`` (on during the first ``d*T`` of every period).

Two model flavours are supported, each with a drive object that gives the
hit times and flows of one constant drive through the same three members,
``delta``, ``hit_time(x)`` and ``flow(x, s)``:

* :class:`LinearModel` with f(x) = a*x + b; every quantity has a closed
  form, written once in :class:`_LinearDrive`.
* :class:`GenericModel` with user-supplied f and f'; flows come from one
  step iterator, a scalar Dormand-Prince 5(4) stepper in plain floats with
  the step control of scipy's RK45 (rtol 1e-10, atol 1e-14).  A non-finite
  stage, or a run past :data:`MAX_STEPS` steps, raises
  :class:`IntegrationError`.  One class, :class:`_Orbit`, locates threshold
  crossings, on a step's quartic dense output by Brent's method: a
  :func:`time_to_threshold` is the ``delta`` of one orbit run from x0, and
  a :func:`flow` is one fixed-time run (:func:`solve_ivp`).  The
  stroboscopic map stores, per drive, the orbit from 0 and the orbit from
  theta (:class:`_DriveOrbits`): every other trajectory of that drive is a
  time shift of one of them, so a map reads its flows and hit times off
  these orbits, and the nodes of one grid call share them.

All functions here treat constant drive only; the pulsed dynamics (spikes,
stroboscopic map) live in :mod:`ifstrobe.strobe`.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from typing import Callable, Iterator, NamedTuple, Union

from ._brent import EPS, brentq

__all__ = [
    "LinearModel",
    "GenericModel",
    "Model",
    "Forcing",
    "Region",
    "RegionClass",
    "HypothesisReport",
    "IntegrationError",
    "DomainError",
    "validate_hypotheses",
    "flow",
    "time_to_threshold",
    "critical_dose",
    "averaged_time_to_threshold",
    "classify_region",
]

# Integrator settings for the generic path.  The relative tolerance is the
# documented contract; the absolute one just keeps tiny states honest.
_RTOL = 1e-10
_ATOL = 1e-14

#: Most steps, accepted or rejected, that one integrator run may attempt:
#: 2 + 6*MAX_STEPS evaluations of f.  On f' = -0.5 the steps near the rest
#: point reach about 5.6 time units, so a run spans about 1.1e5 at most.
MAX_STEPS = 20_000

# Newton iterations an orbit lookup tries before it falls back to Brent's method.
_NEWTON_ITER = 8

#: Number of grid points used for the sampled monotonicity check of generic f.
HYPOTHESIS_GRID = 1024

#: Tolerance used to flag parameter points sitting on a region boundary.
BOUNDARY_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Numerical integration blew up or failed to locate a crossing."""


class DomainError(ValueError):
    """A model, forcing or protocol parameter outside the domain the library accepts."""


class _Checked:
    """Mixin, before a record's NamedTuple base, that runs the record's ``_check`` on it.

    Every new record passes the check: a call, ``_make`` and so ``_replace``,
    and unpickling all go through ``__new__``.  ``_check`` raises DomainError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _LinearFields(NamedTuple):
    a: float
    b: float
    theta: float = 1.0


class LinearModel(_Checked, _LinearFields):
    """Linear subthreshold field f(x) = a*x + b with threshold ``theta``.

    The standard hypotheses require a < 0, f(0) = b > 0 and f(theta) < 0, so
    that the rest point -b/a lies in (0, theta); they are checked by
    :func:`validate_hypotheses`, not at construction, so that invalid
    parameter sets can be built and reported on.
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_threshold(self.theta)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("a and b must be finite")

    def f(self, x: float) -> float:
        return self.a * x + self.b

    def f_deriv(self, x: float) -> float:
        return self.a

    def equilibrium(self, drive: float = 0.0) -> float:
        """Rest point of x' = f(x) + drive (requires a != 0)."""
        return -(self.b + drive) / self.a


class _GenericFields(NamedTuple):
    f: Callable[[float], float]
    f_deriv: Callable[[float], float]
    theta: float = 1.0


class GenericModel(_Checked, _GenericFields):
    """Generic scalar field given by callables ``f`` and its derivative.

    Flows, hit times and the map's slope read ``f``; ``f_deriv`` serves
    :func:`validate_hypotheses` and the cycle multiplier's slopes next to
    a drive's rest point (:func:`_flow_slope`).  Grids with ``workers > 1``
    send the model to worker processes, so both must then be picklable.
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_threshold(self.theta)


Model = Union[LinearModel, GenericModel]


def _check_threshold(theta: float) -> None:
    """Apply the one domain rule of the threshold; raises DomainError."""
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError("theta must be finite and strictly positive")


def _check_forcing(A: float | None = None, T: float | None = None, d: float | None = None) -> None:
    """Apply the one domain rule of each given forcing parameter; raises DomainError."""
    if A is not None and not (math.isfinite(A) and A >= 0.0):
        raise DomainError("amplitude A must be finite and >= 0")
    if T is not None and not (math.isfinite(T) and T > 0.0):
        raise DomainError("period T must be finite and > 0")
    if d is not None and not (0.0 < d < 1.0):
        raise DomainError("duty cycle d must lie in the open interval (0, 1)")


def _check_count(name: str, value: int, least: int | None = None) -> None:
    """Apply the one domain rule of a count: an integer, and at least ``least`` when given.

    Raises DomainError naming the parameter.  A float is no count, even
    with an integral value, nor is a bool.  Callers whose range message
    is worded otherwise leave out ``least`` and test the range themselves.
    """
    # int first: the ABC check is slow
    if type(value) is bool or not isinstance(value, (int, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}")


class _ForcingFields(NamedTuple):
    A: float
    T: float
    d: float


class Forcing(_Checked, _ForcingFields):
    """Square-wave input: amplitude ``A`` on (nT, nT + dT], zero otherwise."""

    __slots__ = ()

    def _check(self) -> None:
        _check_forcing(self.A, self.T, self.d)

    @property
    def dose(self) -> float:
        """Average input per period, Q = A*d."""
        return self.A * self.d

    @property
    def pulse_width(self) -> float:
        """Duration of the on-phase, d*T."""
        return self.d * self.T


class Region:
    """Spiking-region labels; values double as the CLI output strings."""

    NON_SPIKING = "NonSpiking"
    CONDITIONAL_SPIKING = "ConditionalSpiking"
    PERMANENT_SPIKING = "PermanentSpiking"


class RegionClass(NamedTuple):
    """Region label plus boundary flags.

    Exactly-on-boundary points are tie-broken by the dynamics: A == Q_c never
    spikes (equilibrium parked at the threshold), A*d == Q_c behaves like the
    conditional region for small periods.  The flags record proximity within
    ``BOUNDARY_TOL`` of either defining equality.
    """

    kind: str
    on_amplitude_boundary: bool = False
    on_dose_boundary: bool = False


class HypothesisFailure(NamedTuple):
    name: str
    witness: float
    detail: str


class HypothesisReport(NamedTuple):
    passed: bool
    failures: tuple[HypothesisFailure, ...] = ()

    def failed_names(self) -> set[str]:
        return {f.name for f in self.failures}


def validate_hypotheses(model: Model, grid_points: int = HYPOTHESIS_GRID) -> HypothesisReport:
    """Check the two standing assumptions of the subthreshold field.

    * ``attracting_equilibrium``: f has an attracting rest point strictly
      inside (0, theta), i.e. f(0) > 0 and f(theta) < 0.
    * ``monotone_decreasing``: f'(x) < 0 on [0, theta].

    Every field goes through the same check: the derivative condition is
    sampled on a uniform grid of ``grid_points`` nodes (an integer >= 2,
    else DomainError), which is exact for a linear field, whose f' is
    constant, and a heuristic, not a proof, for a generic one.  For a
    linear field the verdict is therefore ``a < 0 and b > 0 and
    critical_dose(model) > 0``, in floats.  Failures are reported with a
    witness point (for the equilibrium, the end of [0, theta] where f has
    the wrong sign), never raised.
    """
    _check_count("grid_points", grid_points, 2)
    failures: list[HypothesisFailure] = []
    theta = model.theta
    f0 = model.f(0.0)
    fth = model.f(theta)
    if f0 <= 0.0:
        failures.append(HypothesisFailure("attracting_equilibrium", 0.0, f"f(0) = {f0} <= 0"))
    if fth >= 0.0:
        failures.append(
            HypothesisFailure("attracting_equilibrium", theta, f"f(theta) = {fth} >= 0")
        )
    step = theta / (grid_points - 1)
    for i in range(grid_points):
        x = i * step
        slope = model.f_deriv(x)
        if slope >= 0.0:
            failures.append(HypothesisFailure("monotone_decreasing", x, f"f'({x}) = {slope} >= 0"))
            break
    return HypothesisReport(passed=not failures, failures=tuple(failures))


def _steps(
    f: Callable[[float], float], drive: float, y0: float, t_end: float
) -> Iterator[tuple[float, float, float, float, tuple[float, ...]]]:
    """Accepted Dormand-Prince 5(4) steps of x' = f(x) + drive from x(0) = y0.

    Yields ``(t, t_new, y, y_new, stages)`` per accepted step, ``stages``
    being the step's stages 1 and 3 to 7 (stage 2 has weight 0), and stops
    after the step that reaches ``t_end`` (which may be infinite).

    The tableau, the dense output and the step control are those of scipy's
    RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Norsett
    & Wanner, *Solving ODEs I*, II.4-6), in plain floats: the initial step
    selection, the error norm |err| / (atol + max(|x|, |x_new|)*rtol),
    safety 0.9, step factors clamped to [0.2, 10] with exponent -1/5, no
    growth after a rejection, a minimum step of 10 ulps of t and the last
    step clipped to t_end.  A non-finite stage raises IntegrationError at
    once instead of shrinking the step to its minimum, and so does the
    attempt past :data:`MAX_STEPS`, so one run evaluates f at most
    ``2 + 6*MAX_STEPS`` times.
    """
    rtol, atol = _RTOL, _ATOL
    t = 0.0
    try:
        y = y0
        k1 = f(y) + drive
        if not math.isfinite(k1):
            raise _blow_up(t, y0, drive)
        scale = atol + abs(y) * rtol
        d0 = abs(y) / scale
        d1 = abs(k1) / scale
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end)
        # h0 is 0.0 only when d1 overflows, and then h1 is 0.0 whatever d2 is
        d2 = abs(f(y + h0 * k1) + drive - k1) / scale / h0 if h0 else math.inf
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        h_abs = min(100 * h0, h1, t_end)
        attempts = 0
        while True:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"step size fell below 10 ulps at t={t} (x0={y0}, drive={drive})"
                    )
                if attempts == MAX_STEPS:
                    raise IntegrationError(
                        f"more than {MAX_STEPS} steps by t={t} (x0={y0}, drive={drive})"
                    )
                attempts += 1
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                h_abs = h
                k2 = f(y + 1 / 5 * k1 * h) + drive
                k3 = f(y + (3 / 40 * k1 + 9 / 40 * k2) * h) + drive
                k4 = f(y + (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3) * h) + drive
                s5 = 19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4
                k5 = f(y + s5 * h) + drive
                s6 = (
                    9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                    + 49 / 176 * k4 - 5103 / 18656 * k5
                )  # fmt: skip
                k6 = f(y + s6 * h) + drive
                s7 = (
                    35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                    - 2187 / 6784 * k5 + 11 / 84 * k6
                )  # fmt: skip
                y_new = y + h * s7
                k7 = f(y_new) + drive
                # one sum catches any inf or nan among the stages (and sums
                # past the largest double, which only a blow-up reaches)
                if not math.isfinite(k1 + k2 + k3 + k4 + k5 + k6 + k7 + y_new):
                    raise _blow_up(t, y0, drive)
                err = (
                    -71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4
                    + 17253 / 339200 * k5 - 22 / 525 * k6 + 1 / 40 * k7
                ) * h  # fmt: skip
                error_norm = abs(err) / (atol + max(abs(y), abs(y_new)) * rtol)
                if error_norm < 1:
                    factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm**-0.2)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(0.2, 0.9 * error_norm**-0.2)
                rejected = True
            yield t, t_new, y, y_new, (k1, k3, k4, k5, k6, k7)
            t, y, k1 = t_new, y_new, k7
            if t >= t_end:
                return
    except (OverflowError, FloatingPointError) as exc:
        raise _blow_up(t, y0, drive) from exc


def solve_ivp(f: Callable[[float], float], drive: float, y0: float, t_end: float) -> float:
    """Dormand-Prince 5(4) run of x' = f(x) + drive from x(0) = y0; x(t_end) for t_end > 0.

    The steps are those of :func:`_steps`, with its step cap.  This is the
    fixed-time run behind a generic :func:`flow`; a hit time is the run of
    an :class:`_Orbit` instead.  The benchmark's per-layer counters
    (``perfbench/tracer.py``) count these runs under this name,
    ``model.solve_ivp``.
    """
    y = y0
    for _, _, _, y, _ in _steps(f, drive, y0, t_end):
        pass
    return y


def _blow_up(t: float, y0: float, drive: float) -> IntegrationError:
    return IntegrationError(f"integration blew up near t={t} (x0={y0}, drive={drive})")


def _dense_poly(
    t: float, t_new: float, y: float, stages: tuple[float, ...]
) -> tuple[float, ...]:
    """The quartic dense output of the step from (t, y) to t_new with these stages.

    ``stages`` are the step's stages 1 and 3 to 7 (stage 2 has weight 0); the
    result ``(t, t_new, h, y, k1, q2, q3, q4)`` is read by :func:`_dense_value`.
    """
    k1, k3, k4, k5, k6, k7 = stages
    q2 = (
        -8048581381 / 2820520608 * k1
        + 131558114200 / 32700410799 * k3
        - 1754552775 / 470086768 * k4
        + 127303824393 / 49829197408 * k5
        - 282668133 / 205662961 * k6
        + 40617522 / 29380423 * k7
    )
    q3 = (
        8663915743 / 2820520608 * k1
        - 68118460800 / 10900136933 * k3
        + 14199869525 / 1410260304 * k4
        - 318862633887 / 49829197408 * k5
        + 2019193451 / 616988883 * k6
        - 110615467 / 29380423 * k7
    )
    q4 = (
        -12715105075 / 11282082432 * k1
        + 87487479700 / 32700410799 * k3
        - 10690763975 / 1880347072 * k4
        + 701980252875 / 199316789632 * k5
        - 1453857185 / 822651844 * k6
        + 69997945 / 29380423 * k7
    )
    return t, t_new, t_new - t, y, k1, q2, q3, q4


def _dense_value(poly: tuple[float, ...], s: float) -> float:
    """The dense output ``poly`` of :func:`_dense_poly` at time s (y exactly at s = t)."""
    t, _, h, y, k1, q2, q3, q4 = poly
    x = (s - t) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return h * (k1 * x + q2 * x2 + q3 * x3 + q4 * x4) + y


def _dense_time(poly: tuple[float, ...], target: float) -> float:
    """Time in the step where its dense output equals target, by Brent's method
    (xtol = rtol = 4 eps); ValueError when the step's ends do not bracket it."""
    return brentq(lambda s: _dense_value(poly, s) - target, poly[0], poly[1], 4 * EPS, 4 * EPS)


def _dense_inverse(poly: tuple[float, ...], y_new: float, target: float) -> float:
    """Time in a monotone step from y to y_new where its dense output equals target.

    Newton's method from the chord converges in a few iterations; Brent's
    method (:func:`_dense_time`) takes over when an iterate leaves the step
    or none has converged after ``_NEWTON_ITER``.  A target within rounding
    of y_new that the quartic misses gives the step's end time.
    """
    t, t_new, h, y, k1, q2, q3, q4 = poly
    s = t + h * ((target - y) / (y_new - y))
    for _ in range(_NEWTON_ITER):
        r = (s - t) / h
        slope = k1 + r * (2.0 * q2 + r * (3.0 * q3 + r * 4.0 * q4))
        if not slope:
            break
        correction = (_dense_value(poly, s) - target) / slope
        s -= correction
        if not t <= s <= t_new:
            break
        if abs(correction) <= 2 * EPS * (1.0 + abs(s)):  # Brent's tolerance
            return s
    try:
        return _dense_time(poly, target)
    except ValueError:
        return t_new


class _Orbit:
    """One stored DP5(4) run of x' = f(x) + drive, monotone from its start state.

    It keeps its accepted steps and takes more only when a lookup reaches
    past them; a step's quartic dense output is built on its first lookup
    and kept.  With a ``threshold`` that the drive reaches (f(threshold) +
    drive > 0) it is a hit run: it runs at most to the analytic bound of the
    hit (:func:`_hit_horizon`), ends in the step that reaches the threshold
    and keeps the crossing time on that step's quartic, found by Brent's
    method (xtol = rtol = 4 eps), as ``delta``.  Otherwise ``delta`` is None
    and the orbit comes to rest at the first step that moves the state
    toward the rest point by no more than the integrator's error scale,
    ``atol + rtol*max(|x|, |x_new|)``: that step is dropped, and from then
    on the orbit stays at its last state.  Either way one orbit is one run
    of :func:`_steps`, with its step cap.
    """

    def __init__(
        self,
        f: Callable[[float], float],
        drive: float,
        start: float,
        upward: bool,
        threshold: float | None = None,
    ) -> None:
        horizon = None if threshold is None else _hit_horizon(f, drive, threshold, start)
        self._threshold = None if horizon is None else threshold
        self._run = _steps(f, drive, start, math.inf if horizon is None else horizon)
        self._start, self._drive = start, drive
        self._sign = 1.0 if upward else -1.0
        self._times = [0.0]  # step ends, from the start
        self._keys = [self._sign * start]  # sign * state at the step ends: increasing
        self._accepted: list[tuple] = []  # as yielded by _steps
        self._polys: list[tuple | None] = []  # each step's _dense_poly, once looked up
        self._last = start
        self._open = True
        self.delta: float | None = None
        if self._threshold is not None:
            while self._extend():
                pass

    def _extend(self) -> bool:
        """Store one more step; False when the orbit has ended instead."""
        if not self._open:
            return False
        try:
            step = next(self._run)
        except StopIteration:  # only a hit run has a finite end: the hit's analytic bound
            raise IntegrationError(
                "threshold crossing not located within its analytic bound "
                f"(x0={self._start}, drive={self._drive})"
            ) from None
        t, t_new, y, y_new, stages = step
        theta = self._threshold
        if theta is None and self._sign * (y_new - y) <= _ATOL + _RTOL * max(abs(y), abs(y_new)):
            self._open = False
            return False
        self._accepted.append(step)
        self._polys.append(None)
        self._times.append(t_new)
        self._keys.append(self._sign * y_new)
        self._last = y_new
        if theta is not None and y_new >= theta:
            try:
                self.delta = _dense_time(self._poly(-1), theta)
            except ValueError as exc:  # the quartic misses theta at the step end by rounding
                raise IntegrationError(
                    f"threshold crossing not bracketed on [{t}, {t_new}]"
                ) from exc
            self._open = False
        return self._open

    def _poly(self, i: int) -> tuple[float, ...]:
        """The quartic dense output of stored step i, built on its first lookup."""
        poly = self._polys[i]
        if poly is None:
            t, t_new, y, _, stages = self._accepted[i]
            poly = self._polys[i] = _dense_poly(t, t_new, y, stages)
        return poly

    def time_of(self, x: float) -> float | None:
        """Time at which the orbit passes x, 0.0 at or behind its start; None
        when it ends short of x."""
        key = self._sign * x
        keys = self._keys
        while keys[-1] < key:
            if not self._extend():
                return None
        i = bisect_left(keys, key)
        if i == 0:
            return 0.0
        return _dense_inverse(self._poly(i - 1), self._accepted[i - 1][3], x)

    def at(self, s: float) -> float:
        """State at time s >= 0; the last state when the orbit came to rest before s."""
        times = self._times
        while times[-1] < s and self._extend():
            pass
        i = bisect_left(times, s)
        if i == 0:
            return self._start
        if i == len(times):
            if self.delta is None:
                return self._last
            i -= 1  # past the hit run's crossing by rounding: that step's quartic
        return _dense_value(self._poly(i - 1), s)


class _DriveOrbits:
    """The flow of x' = f(x) + drive on [0, theta] as time shifts along stored orbits.

    Under the standing hypotheses f + drive has at most one zero, the rest
    point, and every trajectory is a time shift of one monotone orbit on its
    side of it: the orbit from 0 where f(x) + drive > 0, the orbit from
    theta where it is < 0.  Each is an :class:`_Orbit`, built when first
    needed and extended on demand.  With ``threshold`` and f(theta) + drive
    > 0 the orbit from 0 is the reset orbit: every state of [0, theta) lies
    on it, and ``delta`` is its hit time, the same run as
    ``time_to_threshold(model, drive, 0.0)``.

    The rest-point rule: a state where f(x) + drive is 0, or that the orbit
    of its side does not pass before that orbit comes to rest, lies within
    about the integrator's error scale of the rest point.  It is at rest:
    it does not move, and no orbit is extended further for it.

    The orbits depend on f, the drive and theta alone, and a lookup's value
    does not depend on the lookups before it, so one instance per drive
    serves every map of a grid call (``StrobeMap``'s ``_orbits``).
    """

    def __init__(
        self, f: Callable[[float], float], drive: float, theta: float, threshold: bool
    ) -> None:
        self._f, self._drive, self._theta = f, drive, theta
        self._up = _Orbit(f, drive, 0.0, True, theta if threshold else None)
        self.delta = self._up.delta
        self._down: _Orbit | None = None

    def hit_time(self, x: float) -> float | None:
        """Time from x in [0, theta) to the threshold, None when unreachable."""
        if self.delta is None:
            return None
        return max(self.delta - self._up.time_of(x), 0.0)

    def flow(self, x: float, s: float) -> float:
        """State after time s >= 0 from x, as ``flow(model, drive, s, x)``."""
        if s == 0.0:
            return x
        if self.delta is not None:
            orbit = self._up
        else:
            speed = self._f(x) + self._drive
            if not math.isfinite(speed):
                raise IntegrationError(f"f(x) + drive = {speed} at x={x}")
            if speed == 0.0:
                return x
            if speed > 0.0:
                orbit = self._up
            else:
                if self._down is None:
                    self._down = _Orbit(self._f, self._drive, self._theta, False)
                orbit = self._down
        u = orbit.time_of(x)
        return x if u is None else orbit.at(u + s)


class _LinearDrive:
    """The flow of x' = a*x + b + drive in closed form, with the members of :class:`_DriveOrbits`.

    xeq = -(b + drive)/a is the drive's rest point.  ``hit_time(x)`` is
    ``log1p(-(theta - x)/(xeq - x))/a``, None when f(theta) + drive <= 0; a
    rest point that rounds onto theta, or onto x itself, makes the ``log1p``
    argument -1 or less or its quotient divide by 0 and raises
    IntegrationError.  ``flow(x, s)`` is ``x + (x -
    xeq)*expm1(a*s)``, also for a negative s, which runs the flow
    backwards.  ``delta`` is the hit time from 0, solved on each read.  The
    public :func:`time_to_threshold` and :func:`flow` of a linear field are
    these, in the same float operations, so a map's closed form equals them
    bit for bit.  Building one computes xeq, a ZeroDivisionError at a = 0.
    """

    __slots__ = ("_a", "_theta", "_drive", "_xeq", "_unreachable")

    def __init__(self, model: LinearModel, drive: float) -> None:
        self._a, self._theta, self._drive = model.a, model.theta, drive
        self._xeq = model.equilibrium(drive)
        self._unreachable = model.a * model.theta + model.b + drive <= 0.0

    @property
    def delta(self) -> float | None:
        return self.hit_time(0.0)

    def hit_time(self, x: float) -> float | None:
        """Time from x in [0, theta) to the threshold, None when unreachable."""
        if self._unreachable:
            return None
        try:
            return math.log1p(-(self._theta - x) / (self._xeq - x)) / self._a
        except (ValueError, ZeroDivisionError) as exc:
            raise IntegrationError(
                f"threshold crossing not resolvable: the rest point under drive={self._drive} "
                f"rounds onto the threshold (x0={x})"
            ) from exc

    def flow(self, x: float, s: float) -> float:
        """State after time s from x, as ``flow(model, drive, s, x)`` for s >= 0."""
        return x if s == 0.0 else x + (x - self._xeq) * math.expm1(self._a * s)


def _flow_slope(model: GenericModel, drive: float, s: float, x: float, y: float) -> float:
    """The derivative of the flow over time s of x' = g(x) = f(x) + drive at x, y its image.

    It is g(y)/g(x) (the variational equation along a scalar autonomous
    flow) or ``exp(s*(f'(x) + f'(y))/2)``, whichever has the smaller error
    bound.  The quotient errs by about ``e(x)/|g(x)| + e(y)/|g(y)|``
    relative, e(u) = |f'(u)|*(atol + rtol*|u|) being the change of g over
    the integrator's error scale at u, which grows without bound as the
    states near the drive's rest point.  The exponential averages f' at
    the two ends; f' varies by |f'(x) - f'(y)| between them, so it errs by
    at most about ``s*|f'(x) - f'(y)|/2`` relative, which shrinks as the
    states near the rest point (and is 0 for a linear field).
    """
    gx, gy = model.f(x) + drive, model.f(y) + drive
    dx, dy = model.f_deriv(x), model.f_deriv(y)
    ex, ey = abs(dx) * (_ATOL + _RTOL * abs(x)), abs(dy) * (_ATOL + _RTOL * abs(y))
    if gx and gy and ex / abs(gx) + ey / abs(gy) <= 0.5 * s * abs(dx - dy):
        return gy / gx
    return math.exp(0.5 * s * (dx + dy))


def flow(model: Model, drive: float, t: float, x0: float) -> float:
    """Solution at time ``t`` of x' = f(x) + drive from x(0) = x0, no reset.

    A linear field's is :meth:`_LinearDrive.flow`, a generic one's a
    :func:`solve_ivp` run.
    """
    if t < 0.0:
        raise ValueError("flow duration must be >= 0")
    if t == 0.0:
        return x0
    if isinstance(model, LinearModel):
        return _LinearDrive(model, drive).flow(x0, t)
    return solve_ivp(model.f, drive, x0, t)


def time_to_threshold(model: Model, drive: float, x0: float) -> float | None:
    """Smallest t >= 0 with flow(t; x0) = theta, or None when unreachable.

    The threshold is unreachable exactly when f(theta) + drive <= 0, since f
    is decreasing and the motion stalls at the rest point below theta.  A
    linear field with ``a > 0``, outside the hypotheses, also never reaches
    it from an x0 where f(x0) + drive <= 0: the state rests or moves away
    from its repelling rest point.  Past that test a linear hit time is
    :meth:`_LinearDrive.hit_time`; a generic one is the ``delta`` of one
    :class:`_Orbit` run from x0.
    """
    theta = model.theta
    if x0 > theta:
        raise ValueError(f"x0 = {x0} above the threshold {theta}")
    if x0 == theta:
        return 0.0
    if x0 < 0.0:
        raise ValueError(f"x0 = {x0} negative")
    if isinstance(model, LinearModel):
        if model.a * x0 + model.b + drive <= 0.0:
            return None
        return _LinearDrive(model, drive).hit_time(x0)
    return _Orbit(model.f, drive, x0, True, theta).delta


def _hit_horizon(
    f: Callable[[float], float], drive: float, theta: float, x0: float
) -> float | None:
    """Time by which x' = f(x) + drive reaches theta from x0 <= theta, None when it never does."""
    try:
        fth = f(theta) + drive
    except OverflowError as exc:
        raise IntegrationError(f"f(theta) overflows at theta={theta}") from exc
    if fth <= 0.0:
        return None
    if not fth < math.inf:
        raise IntegrationError(f"f(theta) + drive = {fth} at theta={theta}")
    # f decreasing => speed >= fth on [x0, theta], so the hit occurs by then.
    return (theta - x0) / fth * (1.0 + 1e-6) + 1e-12


def critical_dose(model: Model) -> float:
    """Smallest constant drive placing the rest point at the threshold, -f(theta)."""
    return -model.f(model.theta)


def averaged_time_to_threshold(model: Model, Q: float) -> float | None:
    """Threshold time from 0 under the averaged constant drive Q = A*d.

    Absent when Q <= critical dose: the averaged system then rests at or
    below the threshold and never crosses it.
    """
    if Q < 0.0:
        raise DomainError("dose Q must be >= 0")
    return time_to_threshold(model, Q, 0.0)


def classify_region(model: Model, A: float, d: float, tol: float = BOUNDARY_TOL) -> RegionClass:
    """Partition of the (d, 1/A) plane by spiking behaviour.

    Strictly: non-spiking for A < Q_c, permanent spiking for A*d > Q_c,
    conditional spiking for Q_c < A with A*d < Q_c.  The result depends only
    on A, d and the model, never on the period.
    """
    _check_forcing(A=A, d=d)
    qc = critical_dose(model)
    on_amp = abs(A - qc) <= tol
    on_dose = abs(A * d - qc) <= tol
    if A <= qc:
        kind = Region.NON_SPIKING
    elif A * d > qc:
        kind = Region.PERMANENT_SPIKING
    else:
        kind = Region.CONDITIONAL_SPIKING
    return RegionClass(kind=kind, on_amplitude_boundary=on_amp, on_dose_boundary=on_dose)
