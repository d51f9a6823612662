import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ifstrobe import GenericModel, LinearModel


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
def strobe_calls(monkeypatch) -> list:
    """One entry per map application from here on."""
    # ifstrobe.strobe is the re-exported function, so patch the module itself
    module = sys.modules["ifstrobe.strobe"]
    original = module.strobe
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "strobe", counting)
    return calls
