"""The ported Brent solver against scipy's brentq, bit for bit."""

import math
import random
import struct

import pytest

from ifstrobe import _brent
from ifstrobe._brent import EPS, brentq

scipy_brentq = pytest.importorskip("scipy.optimize").brentq


def _outcome(solve, f, a, b, **kwargs):
    """The root's bit pattern, or the type and message of the error raised."""
    try:
        return "root", struct.pack("<d", solve(f, a, b, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


FAMILIES = (
    lambda c, p: lambda x: x**3 - c,
    lambda c, p: lambda x: math.exp(p * x) - c - 1.0,
    lambda c, p: lambda x: math.atan(p * (x - c)),
    lambda c, p: lambda x: (x - c) ** 5,
    lambda c, p: lambda x: math.sin(p * x) - c / 3.0,
    lambda c, p: lambda x: 1.0 if x > c else -1.0,
    lambda c, p: lambda x: math.tanh(50.0 * (x - c)) + 1e-3 * p,
    lambda c, p: lambda x: math.expm1(-p * (x - c)),
    lambda c, p: lambda x: math.nan if x > c + 1.0 else x - c,
)


def test_brentq_matches_scipy_bit_for_bit(monkeypatch):
    rng = random.Random(20131216)
    outcomes = set()
    for _ in range(4000):
        f = rng.choice(FAMILIES)(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0))
        a, b = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
        if rng.random() < 0.5:
            a, b = b, a
        kwargs = {
            "xtol": rng.choice((2e-12, 1e-15, 1e-8, 4 * EPS, 0.0)),
            "rtol": rng.choice((4 * EPS, 8.9e-16, 1e-10, 1e-17)),
        }
        # the port's iteration budget is a module constant; small ones reach non-convergence
        maxiter = rng.choice((100, 100, 5, 2, 0))
        monkeypatch.setattr(_brent, "_ITER", maxiter)
        expected = _outcome(scipy_brentq, f, a, b, maxiter=maxiter, **kwargs)
        assert _outcome(brentq, f, a, b, **kwargs) == expected, (a, b, maxiter, kwargs)
        outcomes.add(expected[0] if expected[0] != "ValueError" else expected[1][:12])
    # roots, non-convergence, and each ValueError: signs, xtol, rtol and NaN
    assert outcomes == {
        "root",
        "RuntimeError",
        "f(a) and f(b",
        "xtol too sma",
        "rtol too sma",
        "The function",
    }
