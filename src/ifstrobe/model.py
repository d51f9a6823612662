"""Subthreshold model, square-wave forcing and constant-drive flows.

The state obeys

    x' = f(x) + I(t),      x = theta  -->  x = 0   (instantaneous reset)

where f has a single attracting equilibrium in (0, theta) and is strictly
decreasing on [0, theta].  I(t) is a square wave of amplitude ``A``, period
``T`` and duty cycle ``d`` (on during the first ``d*T`` of every period).

Two model flavours are supported:

* :class:`LinearModel` with f(x) = a*x + b; every quantity has a closed form.
* :class:`GenericModel` with user-supplied f and f'; flows are obtained with
  an adaptive RK45 integrator and threshold crossings are localized on the
  integrator's dense output.

All functions here treat constant drive only; the pulsed dynamics (spikes,
stroboscopic map) live in :mod:`ifstrobe.strobe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

from scipy.integrate import solve_ivp

__all__ = [
    "LinearModel",
    "GenericModel",
    "Model",
    "Forcing",
    "Region",
    "RegionClass",
    "HypothesisReport",
    "IntegrationError",
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


@dataclass(frozen=True)
class LinearModel:
    """Linear subthreshold field f(x) = a*x + b with threshold ``theta``.

    The standard hypotheses require a < 0 and 0 < -b/a < theta; they are
    checked by :func:`validate_hypotheses`, not at construction, so that
    invalid parameter sets can be built and reported on.
    """

    a: float
    b: float
    theta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("theta must be finite and strictly positive")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("a and b must be finite")

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
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("theta must be finite and strictly positive")


Model = Union[LinearModel, GenericModel]


@dataclass(frozen=True)
class Forcing:
    """Square-wave input: amplitude ``A`` on (nT, nT + dT], zero otherwise."""

    A: float
    T: float
    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.A) and self.A >= 0.0):
            raise ValueError("amplitude A must be finite and >= 0")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("period T must be finite and > 0")
        if not (0.0 < self.d < 1.0):
            raise ValueError("duty cycle d must lie in the open interval (0, 1)")

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

    For generic models the derivative condition is sampled on a uniform grid
    (``grid_points`` nodes); this is a heuristic, not a proof.  Failures are
    reported with a witness point, never raised.
    """
    failures: list[HypothesisFailure] = []
    theta = model.theta
    if isinstance(model, LinearModel):
        if model.a >= 0.0:
            failures.append(
                HypothesisFailure(
                    "monotone_decreasing", 0.0, f"f'(x) = a = {model.a} is not negative"
                )
            )
            if model.b <= 0.0 or model.f(theta) >= 0.0:
                failures.append(
                    HypothesisFailure(
                        "attracting_equilibrium",
                        0.0,
                        "no attracting equilibrium inside (0, theta)",
                    )
                )
        else:
            xbar = model.equilibrium()
            if not (0.0 < xbar < theta):
                failures.append(
                    HypothesisFailure(
                        "attracting_equilibrium",
                        xbar,
                        f"equilibrium -b/a = {xbar} outside (0, {theta})",
                    )
                )
    else:
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
                failures.append(
                    HypothesisFailure("monotone_decreasing", x, f"f'({x}) = {slope} >= 0")
                )
                break
    return HypothesisReport(passed=not failures, failures=tuple(failures))


def _rhs(model: GenericModel, drive: float):
    f = model.f
    return lambda t, y: (f(y[0]) + drive,)


def flow(model: Model, drive: float, t: float, x0: float) -> float:
    """Solution at time ``t`` of x' = f(x) + drive from x(0) = x0, no reset."""
    if t < 0.0:
        raise ValueError("flow duration must be >= 0")
    if t == 0.0:
        return x0
    if isinstance(model, LinearModel):
        xeq = model.equilibrium(drive)
        return x0 + (x0 - xeq) * math.expm1(model.a * t)
    try:
        sol = solve_ivp(
            _rhs(model, drive), (0.0, t), (x0,), method="RK45", rtol=_RTOL, atol=_ATOL, t_eval=(t,)
        )
    except (OverflowError, FloatingPointError) as exc:
        raise IntegrationError(f"flow blew up before t={t} (x0={x0}, drive={drive})") from exc
    if not sol.success or not math.isfinite(sol.y[0][-1]):
        raise IntegrationError(f"flow integration failed at t={t}, x0={x0}, drive={drive}")
    return float(sol.y[0][-1])


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
    fth = model.f(theta) + drive
    if fth <= 0.0:
        return None
    # f decreasing => speed >= fth on [x0, theta], so the hit occurs by then.
    horizon = (theta - x0) / fth * (1.0 + 1e-6) + 1e-12

    def crossing(t, y):
        return y[0] - theta

    crossing.terminal = True
    crossing.direction = 1.0
    sol = solve_ivp(
        _rhs(model, drive),
        (0.0, horizon),
        (x0,),
        method="RK45",
        rtol=_RTOL,
        atol=_ATOL,
        events=crossing,
    )
    if not sol.success:
        raise IntegrationError(f"threshold search failed from x0={x0}, drive={drive}")
    if sol.t_events[0].size == 0:
        raise IntegrationError(
            f"threshold crossing not located within its analytic bound (x0={x0}, drive={drive})"
        )
    return float(sol.t_events[0][0])


def critical_dose(model: Model) -> float:
    """Smallest constant drive placing the rest point at the threshold, -f(theta)."""
    return -model.f(model.theta)


def averaged_time_to_threshold(model: Model, Q: float) -> float | None:
    """Threshold time from 0 under the averaged constant drive Q = A*d.

    Absent when Q <= critical dose: the averaged system then rests at or
    below the threshold and never crosses it.
    """
    if Q < 0.0:
        raise ValueError("dose Q must be >= 0")
    return time_to_threshold(model, Q, 0.0)


def classify_region(model: Model, A: float, d: float, tol: float = BOUNDARY_TOL) -> RegionClass:
    """Partition of the (d, 1/A) plane by spiking behaviour.

    Strictly: non-spiking for A < Q_c, permanent spiking for A*d > Q_c,
    conditional spiking for Q_c < A with A*d < Q_c.  The result depends only
    on A, d and the model, never on the period.
    """
    if not (0.0 < d < 1.0):
        raise ValueError("duty cycle d must lie in (0, 1)")
    if A < 0.0:
        raise ValueError("amplitude A must be >= 0")
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
