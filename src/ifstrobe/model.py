"""Subthreshold model, square-wave forcing and constant-drive flows.

The state obeys

    x' = f(x) + I(t),      x = theta  -->  x = 0   (instantaneous reset)

where f has a single attracting equilibrium in (0, theta) and is strictly
decreasing on [0, theta].  I(t) is a square wave of amplitude ``A``, period
``T`` and duty cycle ``d`` (on during the first ``d*T`` of every period).

Two model flavours are supported:

* :class:`LinearModel` with f(x) = a*x + b; every quantity has a closed form.
* :class:`GenericModel` with user-supplied f and f'; flows come from
  :func:`solve_ivp`, a scalar Dormand-Prince 5(4) stepper in plain floats
  with the step control of scipy's RK45 (rtol 1e-10, atol 1e-14), and
  threshold crossings are located on its quartic dense output by Brent's
  method.  A non-finite stage raises :class:`IntegrationError`.

All functions here treat constant drive only; the pulsed dynamics (spikes,
stroboscopic map) live in :mod:`ifstrobe.strobe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

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

#: Number of grid points used for the sampled monotonicity check of generic f.
HYPOTHESIS_GRID = 1024

#: Tolerance used to flag parameter points sitting on a region boundary.
BOUNDARY_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Numerical integration blew up or failed to locate a crossing."""


class DomainError(ValueError):
    """A model, forcing or protocol parameter outside the domain the library accepts."""


@dataclass(frozen=True)
class LinearModel:
    """Linear subthreshold field f(x) = a*x + b with threshold ``theta``.

    The standard hypotheses require a < 0, f(0) = b > 0 and f(theta) < 0, so
    that the rest point -b/a lies in (0, theta); they are checked by
    :func:`validate_hypotheses`, not at construction, so that invalid
    parameter sets can be built and reported on.
    """

    a: float
    b: float
    theta: float = 1.0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class GenericModel:
    """Generic scalar field given by callables ``f`` and its derivative."""

    f: Callable[[float], float]
    f_deriv: Callable[[float], float]
    theta: float = 1.0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Forcing:
    """Square-wave input: amplitude ``A`` on (nT, nT + dT], zero otherwise."""

    A: float
    T: float
    d: float

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class RegionClass:
    """Region label plus boundary flags.

    Exactly-on-boundary points are tie-broken by the dynamics: A == Q_c never
    spikes (equilibrium parked at the threshold), A*d == Q_c behaves like the
    conditional region for small periods.  The flags record proximity within
    ``BOUNDARY_TOL`` of either defining equality.
    """

    kind: str
    on_amplitude_boundary: bool = False
    on_dose_boundary: bool = False


@dataclass(frozen=True)
class HypothesisFailure:
    name: str
    witness: float
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    failures: tuple[HypothesisFailure, ...] = field(default_factory=tuple)

    def failed_names(self) -> set[str]:
        return {f.name for f in self.failures}


def validate_hypotheses(model: Model, grid_points: int = HYPOTHESIS_GRID) -> HypothesisReport:
    """Check the two standing assumptions of the subthreshold field.

    * ``attracting_equilibrium``: f has an attracting rest point strictly
      inside (0, theta), i.e. f(0) > 0 and f(theta) < 0.
    * ``monotone_decreasing``: f'(x) < 0 on [0, theta].

    Every field goes through the same check: the derivative condition is
    sampled on a uniform grid (``grid_points`` nodes), which is exact for a
    linear field, whose f' is constant, and a heuristic, not a proof, for a
    generic one.  For a linear field the verdict is therefore ``a < 0 and
    b > 0 and critical_dose(model) > 0``, in floats.  Failures are reported
    with a witness point (for the equilibrium, the end of [0, theta] where f
    has the wrong sign), never raised.
    """
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


def solve_ivp(
    f: Callable[[float], float], drive: float, y0: float, t_end: float, theta: float | None = None
) -> float | None:
    """Dormand-Prince 5(4) run of x' = f(x) + drive from x(0) = y0 up to t_end > 0.

    Without ``theta`` it returns x(t_end).  With ``theta`` it stops in the
    first step that ends at or above ``theta`` and returns the crossing time,
    located on that step's quartic dense output by Brent's method
    (xtol = rtol = 4 eps), or None when the state stays below ``theta`` up
    to t_end.

    The tableau, the dense output and the step control are those of scipy's
    RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Norsett
    & Wanner, *Solving ODEs I*, II.4-6), in plain floats: the initial step
    selection, the error norm |err| / (atol + max(|x|, |x_new|)*rtol),
    safety 0.9, step factors clamped to [0.2, 10] with exponent -1/5, no
    growth after a rejection, a minimum step of 10 ulps of t and the last
    step clipped to t_end.  A non-finite stage raises IntegrationError at
    once instead of shrinking the step to its minimum.  The benchmark's
    per-layer counters (``perfbench/tracer.py``) count integrator runs under
    this name, ``model.solve_ivp``.
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
            if theta is not None and y_new >= theta:
                return _dense_crossing(t, t_new, y, theta, (k1, k3, k4, k5, k6, k7))
            t, y, k1 = t_new, y_new, k7
            if t >= t_end:
                return y if theta is None else None
    except (OverflowError, FloatingPointError) as exc:
        raise _blow_up(t, y0, drive) from exc


def _blow_up(t: float, y0: float, drive: float) -> IntegrationError:
    return IntegrationError(f"integration blew up near t={t} (x0={y0}, drive={drive})")


def _dense_crossing(
    t: float, t_new: float, y: float, theta: float, stages: tuple[float, ...]
) -> float:
    """Time in [t, t_new] where the step's quartic dense output from y reaches theta.

    ``stages`` are the step's stages 1 and 3 to 7 (stage 2 has weight 0).
    """
    k1, k3, k4, k5, k6, k7 = stages
    h = t_new - t
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

    def above(s: float) -> float:
        x = (s - t) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return h * (k1 * x + q2 * x2 + q3 * x3 + q4 * x4) + y - theta

    try:
        return brentq(above, t, t_new, xtol=4 * EPS, rtol=4 * EPS)
    except ValueError as exc:  # the quartic misses theta at the step end by rounding
        raise IntegrationError(f"threshold crossing not bracketed on [{t}, {t_new}]") from exc


def flow(model: Model, drive: float, t: float, x0: float) -> float:
    """Solution at time ``t`` of x' = f(x) + drive from x(0) = x0, no reset."""
    if t < 0.0:
        raise ValueError("flow duration must be >= 0")
    if t == 0.0:
        return x0
    if isinstance(model, LinearModel):
        xeq = model.equilibrium(drive)
        return x0 + (x0 - xeq) * math.expm1(model.a * t)
    return solve_ivp(model.f, drive, x0, t)


def time_to_threshold(model: Model, drive: float, x0: float) -> float | None:
    """Smallest t >= 0 with flow(t; x0) = theta, or None when unreachable.

    The threshold is unreachable exactly when f(theta) + drive <= 0, since f
    is decreasing and the motion stalls at the rest point below theta.
    """
    theta = model.theta
    if x0 > theta:
        raise ValueError(f"x0 = {x0} above the threshold {theta}")
    if x0 == theta:
        return 0.0
    if x0 < 0.0:
        raise ValueError(f"x0 = {x0} negative")
    if isinstance(model, LinearModel):
        if model.a * theta + model.b + drive <= 0.0:
            return None
        xeq = model.equilibrium(drive)
        return math.log1p(-(theta - x0) / (xeq - x0)) / model.a
    try:
        fth = model.f(theta) + drive
    except OverflowError as exc:
        raise IntegrationError(f"f(theta) overflows at theta={theta}") from exc
    if fth <= 0.0:
        return None
    if not fth < math.inf:
        raise IntegrationError(f"f(theta) + drive = {fth} at theta={theta}")
    # f decreasing => speed >= fth on [x0, theta], so the hit occurs by then.
    horizon = (theta - x0) / fth * (1.0 + 1e-6) + 1e-12
    hit = solve_ivp(model.f, drive, x0, horizon, theta)
    if hit is None:
        raise IntegrationError(
            f"threshold crossing not located within its analytic bound (x0={x0}, drive={drive})"
        )
    return hit


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
