"""Closed-form reference for the linear integrate-and-fire model.

The model is x' = a*x + b + I(t) with reset x = theta -> 0, driven by a
square wave of amplitude A, period T and duty cycle d.  Everything here is
derived by hand from the exponential relaxation toward the drive's rest
point and does not import ``ifstrobe``: the benchmark checks the package
against these formulas, so they must not share its code.

The map uses the spike-count formula rather than a per-spike loop: after
the first crossing at t1 the state restarts from 0 and crosses every
``delta`` (the rise time from 0), so a pulse of width w holds
1 + floor((w - t1) / delta) spikes when t1 <= w.  A crossing exactly at the
pulse end counts as a spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Linear:
    """Linear field f(x) = a*x + b with threshold ``theta``."""

    a: float
    b: float
    theta: float = 1.0

    def rest(self, drive: float) -> float:
        return -(self.b + drive) / self.a

    def flow(self, drive: float, t: float, x0: float) -> float:
        """State after time t under constant drive, no reset."""
        xeq = self.rest(drive)
        return xeq + (x0 - xeq) * math.exp(self.a * t)

    def hit_time(self, drive: float, x0: float) -> float | None:
        """Time to reach theta from x0 under constant drive, None if never."""
        if self.a * self.theta + self.b + drive <= 0.0:
            return None
        xeq = self.rest(drive)
        return math.log((self.theta - xeq) / (x0 - xeq)) / self.a

    def critical_dose(self) -> float:
        return -(self.a * self.theta + self.b)


def map_period(model: Linear, A: float, T: float, d: float, x0: float) -> tuple[float, int]:
    """One period of the pulsed dynamics from x0: (image, spike count)."""
    pulse = d * T
    t1 = model.hit_time(A, x0)
    if t1 is None or t1 > pulse:
        x = model.flow(A, pulse, x0)
        spikes = 0
    else:
        delta = model.hit_time(A, 0.0)
        spikes = 1 + math.floor((pulse - t1) / delta)
        x = model.flow(A, pulse - t1 - (spikes - 1) * delta, 0.0)
    return model.flow(0.0, T - pulse, x), spikes


@dataclass(frozen=True)
class Orbit:
    """Periodic attractor found by iteration: period p, n spikes per cycle."""

    period: int
    spikes: int
    points: tuple[float, ...]

    @property
    def eta(self) -> Fraction:
        return Fraction(self.spikes, self.period)


def attractor(
    model: Linear,
    A: float,
    T: float,
    d: float,
    max_period: int = 2000,
    burn_in: int = 20_000,
    tol: float = 1e-10,
) -> Orbit | None:
    """Iterate the map from 0 and return the minimal period it settles on.

    A candidate p must return within ``tol`` after p steps and repeat its
    states and per-step spike counts over a second cycle.  None when no
    period up to ``max_period`` is found after ``burn_in`` steps.
    """
    x = 0.0
    for _ in range(burn_in):
        x = map_period(model, A, T, d, x)[0]
    states = [x]
    counts = []
    for _ in range(2 * max_period):
        x, n = map_period(model, A, T, d, x)
        states.append(x)
        counts.append(n)
    for p in range(1, max_period + 1):
        if abs(states[p] - states[0]) >= tol or counts[p : 2 * p] != counts[:p]:
            continue
        if all(abs(states[j + p] - states[j]) < tol for j in range(p)):
            return Orbit(period=p, spikes=sum(counts[:p]), points=tuple(states[:p]))
    return None


def sigma(model: Linear, A: float, T: float, d: float) -> tuple[float, int] | None:
    """Map discontinuity: the state whose n-th spike lands on the pulse end.

    Flows theta backward from t = d*T - (n-1)*delta to t = 0.  None when the
    drive never reaches threshold.
    """
    delta = model.hit_time(A, 0.0)
    if delta is None:
        return None
    n = math.floor(d * T / delta) + 1
    t_first = d * T - (n - 1) * delta
    xeq = model.rest(A)
    return xeq + (model.theta - xeq) * math.exp(-model.a * t_first), n


def _bisect_decreasing(fn, lo: float, hi: float) -> float:
    """Root of a function that is positive at lo and negative at hi."""
    while fn(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def one_spike_window(model: Linear, A: float, d: float) -> tuple[float, float]:
    """(T1R, T1L): the periods bounding the window of the 1-spike fixed point.

    Right edge of the condition t1 = d*T, with the fixed point the decay of
    0 over (1-d)*T (the spike lands on the pulse end and is reset).  Left
    edge of t1 + delta = d*T, with the fixed point the decay of theta (a
    second, grazing crossing lands on the pulse end).  Both alignment
    defects decrease in T, so bisection finds them.
    """
    delta = model.hit_time(A, 0.0)

    def right(T: float) -> float:
        t1 = model.hit_time(A, model.flow(0.0, (1.0 - d) * T, 0.0))
        return t1 - d * T

    def left(T: float) -> float:
        t1 = model.hit_time(A, model.flow(0.0, (1.0 - d) * T, model.theta))
        return t1 + delta - d * T

    return _bisect_decreasing(right, 1e-9, 1.0), _bisect_decreasing(left, 1e-9, 1.0)


def r_infinity(model: Linear, A: float, d: float) -> float:
    """Large-period limit of the firing rate, d / delta."""
    return d / model.hit_time(A, 0.0)
