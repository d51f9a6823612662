import concurrent.futures
import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ifstrobe import GenericModel, LinearModel, StrobeMap


def linear_f(x: float) -> float:
    return -0.5 * x + 0.2


def linear_f_deriv(x: float) -> float:
    return -0.5


@pytest.fixture
def lif() -> LinearModel:
    """The worked linear example: a=-0.5, b=0.2, theta=1."""
    return LinearModel(a=-0.5, b=0.2, theta=1.0)


@pytest.fixture
def lif_generic() -> GenericModel:
    """Same field wrapped as a generic model, driving the integrator path."""
    return GenericModel(f=linear_f, f_deriv=linear_f_deriv, theta=1.0)


@pytest.fixture
def counted_generic() -> tuple[GenericModel, list]:
    """The ``lif_generic`` field and a list with one entry per evaluation of its f."""
    evaluations = []

    def f(x: float) -> float:
        evaluations.append(None)
        return linear_f(x)

    return GenericModel(f=f, f_deriv=linear_f_deriv, theta=1.0), evaluations


@pytest.fixture
def strobe_calls(monkeypatch) -> list:
    """One entry per map application, by ``StrobeMap.apply`` or ``StrobeMap.iterate``, from here on.

    A generic or ``a >= 0`` ``iterate`` loops over ``apply``, so only the
    outermost call counts: one entry per ``apply`` and one per state that
    ``iterate`` appends.
    """
    apply, iterate = StrobeMap.apply, StrobeMap.iterate
    calls, running = [], []

    def counting_apply(self, *args, **kwargs):
        if not running:
            calls.append(None)
        running.append(None)
        try:
            return apply(self, *args, **kwargs)
        finally:
            running.pop()

    def counting_iterate(self, states, counts, *args):
        outermost, before = not running, len(counts)
        running.append(None)
        try:
            return iterate(self, states, counts, *args)
        finally:
            running.pop()
            if outermost:
                calls.extend([None] * (len(counts) - before))

    monkeypatch.setattr(StrobeMap, "apply", counting_apply)
    monkeypatch.setattr(StrobeMap, "iterate", counting_iterate)
    return calls


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a process pool starts (the grid runner imports the class to start one)."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of each process pool started from here on; the pools are real."""
    real = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def recording(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording)
    return sizes


@pytest.fixture(params=["first-node", "mid-grid", "none"])
def pool_regime(request, monkeypatch, pool_sizes) -> tuple[str, list]:
    """Drive the grid runner's pool decision instead of leaving it to the clock.

    On two usable CPUs, a pool with ``workers > 1`` starts before the first
    node (a negative start-up cost), after six nodes of one second each (a
    clock that ticks once a read, against a 5.5 s start-up), or never (the
    ``no_pool`` fixture, with an infinite start-up).  Returns the regime and
    the sizes of the pools started.
    """
    sweep = sys.modules["ifstrobe.sweep"]
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    if request.param == "first-node":
        monkeypatch.setattr(sweep, "_POOL_START_S", -1.0)
    elif request.param == "mid-grid":
        ticks = itertools.count()
        monkeypatch.setattr("time.perf_counter", lambda: float(next(ticks)))
        monkeypatch.setattr(sweep, "_POOL_START_S", 5.5)
    else:
        monkeypatch.setattr(sweep, "_POOL_START_S", math.inf)
        request.getfixturevalue("no_pool")
    return request.param, pool_sizes
