import logging
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifstrobe import (
    Forcing,
    LinearModel,
    OrbitOptions,
    attractor,
    bif_T,
    boundary_sigma,
    contraction_margin,
    fixed_point,
    rotation_number,
    strobe,
    Side,
)
from ifstrobe.strobe import _least_rotation

import oracle

PULSED = dict(A=10 / 3, T=1.0, d=0.2)

# amplitude correction at T = 60 (delta = 3, Q = 0.6667): 40 spikes per period
FORTY_SPIKES = Forcing(A=0.6667 * 60 / 3, T=60.0, d=0.05)


def test_strobe_subthreshold_start(lif):
    res = strobe(lif, Forcing(**PULSED), 0.0)
    image, spikes = oracle.lin_strobe(-0.5, 0.2, 1.0, 10 / 3, 1.0, 0.2, 0.0)
    assert spikes == []
    assert res.spikes == 0 and res.spike_times == ()
    assert res.image == pytest.approx(image, abs=1e-12)
    assert res.image == pytest.approx(0.5826503116016529, abs=1e-12)


def test_strobe_single_spike(lif):
    res = strobe(lif, Forcing(**PULSED), 0.5)
    image, spikes = oracle.lin_strobe(-0.5, 0.2, 1.0, 10 / 3, 1.0, 0.2, 0.5)
    assert len(spikes) == 1
    assert res.spikes == 1
    assert res.spike_times[0] == pytest.approx(spikes[0], abs=1e-12)
    assert res.spike_times[0] == pytest.approx(0.15839408332238633, abs=1e-12)
    assert res.image == pytest.approx(image, abs=1e-12)
    assert res.image == pytest.approx(0.22939619110967918, abs=1e-12)


def test_strobe_no_drive_decays(lif):
    res = strobe(lif, Forcing(A=0.0, T=2.5, d=0.4), 0.7)
    assert res.spikes == 0
    assert res.image == pytest.approx(oracle.lin_flow(-0.5, 0.2, 0.0, 2.5, 0.7), abs=1e-12)


def test_strobe_rejects_states_outside_domain(lif):
    with pytest.raises(ValueError):
        strobe(lif, Forcing(**PULSED), 1.0)
    with pytest.raises(ValueError):
        strobe(lif, Forcing(**PULSED), -0.1)


def test_strobe_spike_times_sorted_within_pulse(lif):
    forcing = Forcing(A=10 / 3, T=8.0, d=0.5)
    res = strobe(lif, forcing, 0.9)
    assert list(res.spike_times) == sorted(res.spike_times)
    assert all(0.0 < t <= forcing.pulse_width for t in res.spike_times)
    assert res.spikes == len(res.spike_times)


def test_boundary_matches_backward_flow(lif):
    info = boundary_sigma(lif, Forcing(**PULSED))
    assert info.n == 1
    assert info.sigma == pytest.approx(oracle.lin_sigma(-0.5, 0.2, 1.0, 10 / 3, 1.0, 0.2), abs=1e-9)
    assert info.sigma == pytest.approx(0.3619630970077372, abs=1e-9)
    info5 = boundary_sigma(lif, Forcing(A=10 / 3, T=5.0, d=0.2))
    assert info5.n == 4
    assert info5.sigma == pytest.approx(0.7381204597233646, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    forcing=st.builds(
        Forcing, A=st.floats(0.31, 30.0), T=st.floats(0.05, 100.0), d=st.floats(0.01, 0.95)
    )
)
@example(forcing=FORTY_SPIKES)
def test_boundary_is_the_exact_branch_edge(forcing):
    lif = LinearModel(a=-0.5, b=0.2, theta=1.0)
    info = boundary_sigma(lif, forcing)
    if info is None:
        return
    assert strobe(lif, forcing, info.sigma).spikes == info.n
    assert strobe(lif, forcing, math.nextafter(info.sigma, 0.0)).spikes == info.n - 1


def test_boundary_fallback_logs_a_warning(lif, monkeypatch, caplog):
    module = sys.modules["ifstrobe.strobe"]
    monkeypatch.setattr(module, "_snap_to_branch_edge", lambda *args: None)
    with caplog.at_level(logging.WARNING, logger="ifstrobe"):
        info = boundary_sigma(lif, Forcing(**PULSED))
    assert info.n == 1
    assert info.sigma == pytest.approx(0.3619630970077372, abs=1e-9)
    [record] = caplog.records
    assert record.name.startswith("ifstrobe.") and record.levelno == logging.WARNING
    assert "bisection" in record.getMessage()


def test_map_solves_the_threshold_at_most_twice(lif, monkeypatch):
    sigma = boundary_sigma(lif, FORTY_SPIKES).sigma
    # ifstrobe.strobe is the re-exported function, so patch the module itself
    module = sys.modules["ifstrobe.strobe"]
    calls = {"time_to_threshold": 0, "flow": 0}
    for name in calls:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    assert strobe(lif, FORTY_SPIKES, sigma).spikes == 40
    assert calls["time_to_threshold"] == 2
    calls.update(time_to_threshold=0, flow=0)
    assert boundary_sigma(lif, FORTY_SPIKES).sigma == sigma
    assert calls["flow"] == 0


def test_boundary_absent_without_spiking(lif):
    assert boundary_sigma(lif, Forcing(A=0.25, T=1.0, d=0.5)) is None


def test_boundary_right_continuity(lif):
    forcing = Forcing(**PULSED)
    info = boundary_sigma(lif, forcing)
    at = strobe(lif, forcing, info.sigma)
    above = strobe(lif, forcing, info.sigma * (1.0 + 1e-12))
    assert at.spikes == info.n
    assert above.spikes == info.n
    assert abs(at.image - above.image) < 1e-9


def test_spike_count_is_two_valued_step(lif):
    forcing = Forcing(A=10 / 3, T=5.0, d=0.2)
    info = boundary_sigma(lif, forcing)
    counts = {strobe(lif, forcing, x0).spikes for x0 in np.linspace(0.0, 0.999999, 200)}
    assert counts == {info.n - 1, info.n}
    below = strobe(lif, forcing, info.sigma - 1e-9).spikes
    assert below == info.n - 1


def test_generic_boundary_agrees_with_linear(lif, lif_generic):
    forcing = Forcing(**PULSED)
    lin = boundary_sigma(lif, forcing)
    gen = boundary_sigma(lif_generic, forcing)
    assert gen.n == lin.n
    assert gen.sigma == pytest.approx(lin.sigma, abs=1e-8)


def test_fixed_point_subthreshold(lif):
    forcing = Forcing(A=0.25, T=2.0, d=0.5)
    u = math.exp(-0.5)
    hand = (0.4 + 0.5 * u - 0.9 * u * u) / (1.0 - u * u)
    x = fixed_point(lif, forcing, 0)
    assert x == pytest.approx(hand, abs=1e-12)
    assert x == pytest.approx(0.5887703343990727, abs=1e-12)
    assert fixed_point(lif, forcing, 1) is None


def test_fixed_point_one_spike_window(lif):
    T = 1.6  # inside the 1-spike window [1.2944, 2.0673]
    forcing = Forcing(A=10 / 3, T=T, d=0.2)
    x = fixed_point(lif, forcing, 1)
    res = strobe(lif, forcing, x)
    assert res.spikes == 1
    assert abs(res.image - x) < 1e-12


def test_fixed_point_absent_outside_window(lif):
    left = bif_T(lif, 1, Side.R, 10 / 3, 0.2).T
    forcing = Forcing(A=10 / 3, T=left * 0.98, d=0.2)
    assert fixed_point(lif, forcing, 1) is None


def test_rotation_number_values():
    assert rotation_number("LR") == Fraction(1, 2)
    assert rotation_number("LLLLR") == Fraction(1, 5)
    assert rotation_number("L") == Fraction(0)
    assert rotation_number("R") == Fraction(1)
    with pytest.raises(ValueError):
        rotation_number("")
    with pytest.raises(ValueError):
        rotation_number("LXR")


def test_least_rotation_is_minimal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        word = "".join(rng.choice(["L", "R"], size=rng.integers(1, 12)))
        best = min(word[i:] + word[:i] for i in range(len(word)))
        assert _least_rotation(word) == best


def test_attractor_subthreshold_fixed_point(lif):
    orbit = attractor(lif, Forcing(A=0.25, T=2.0, d=0.5))
    assert orbit.converged
    assert (orbit.period_p, orbit.spikes_n) == (1, 0)
    assert orbit.eta == Fraction(0) and orbit.rho == Fraction(0)
    assert orbit.rate == 0.0
    assert orbit.single_branch and orbit.word == "L"
    assert orbit.points[0] == pytest.approx(0.5887703343990727, abs=1e-9)


def test_attractor_one_spike_window(lif):
    right = bif_T(lif, 1, Side.R, 10 / 3, 0.2).T
    left = bif_T(lif, 1, Side.L, 10 / 3, 0.2).T
    T = 0.5 * (right + left)
    orbit = attractor(lif, Forcing(A=10 / 3, T=T, d=0.2))
    assert orbit.converged
    assert (orbit.period_p, orbit.spikes_n) == (1, 1)
    assert orbit.eta == Fraction(1)
    assert orbit.rate == pytest.approx(1.0 / T, rel=1e-15)


def test_attractor_large_period_spike_count(lif):
    orbit = attractor(lif, Forcing(A=10 / 3, T=100.0, d=0.2))
    assert orbit.converged and orbit.period_p == 1
    assert orbit.spikes_n in (65, 66)  # floor(d*T/delta) or one more
    assert orbit.rate == pytest.approx(0.2 / 0.3051591751904341, rel=0.02)


def test_attractor_closes_after_p_steps(lif):
    forcing = Forcing(A=10 / 3, T=1.1, d=0.2)
    orbit = attractor(lif, forcing)
    assert orbit.converged
    x = orbit.points[0]
    for _ in range(orbit.period_p):
        x = strobe(lif, forcing, x).image
    assert abs(x - orbit.points[0]) < 1e-9


def test_attractor_seed_independence(lif):
    forcing = Forcing(A=10 / 3, T=1.1, d=0.2)
    a = attractor(lif, forcing, OrbitOptions(seed=0.05))
    b = attractor(lif, forcing, OrbitOptions(seed=0.93))
    assert a.contraction_margin > 0.0
    assert (a.period_p, a.spikes_n, a.eta) == (b.period_p, b.spikes_n, b.eta)
    assert a.word == b.word  # canonical rotation makes them directly comparable
    assert a.rate == pytest.approx(b.rate, abs=1e-6)


def test_attractor_computes_the_boundary_once(lif, monkeypatch):
    forcing = Forcing(A=10 / 3, T=1.6, d=0.2)
    margin = contraction_margin(lif, forcing)
    # ifstrobe.strobe is the re-exported function, so patch the module itself
    module = sys.modules["ifstrobe.strobe"]
    calls = []
    original = module.boundary_sigma

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "boundary_sigma", counting)
    orbit = attractor(lif, forcing)
    assert len(calls) == 1
    assert orbit.contraction_margin == margin > 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(transient=-1),
        dict(max_period=0),
        dict(state_tol=0.0),
        dict(state_tol=-1e-9),
        dict(state_tol=math.nan),
        dict(state_tol=math.inf),
        dict(spike_cap=0),
    ],
)
def test_orbit_options_reject_out_of_domain_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        OrbitOptions(**bad)


def test_attractor_anchors_once_more_when_the_transient_is_spent(lif):
    # the last doubling anchor before the transient (2047) lies off the cycle
    # and the next one (4095) comes after it, so only the anchor placed at the
    # transient sees the cycle return
    forcing = Forcing(A=2.6741647000591087, T=0.07739807593168964, d=0.8272023821560168)
    orbit = attractor(lif, forcing, OrbitOptions(transient=4000, max_period=20))
    assert orbit.converged
    assert (orbit.period_p, orbit.eta, orbit.word) == (6, Fraction(1, 6), "LLLLLR")


# amplitude correction at T = delta: duty cycle 1 - 1e-12, no contraction
UNCONVERGED = Forcing(A=0.6667, T=3 * (1 + 1e-12), d=1 / (1 + 1e-12))


@pytest.mark.parametrize(
    "opts", [OrbitOptions(), OrbitOptions(transient=300, max_period=50)], ids=["default", "short"]
)
def test_attractor_budget_bounds_the_map_applications(lif, strobe_calls, opts):
    orbit = attractor(lif, UNCONVERGED, opts)
    assert not orbit.converged
    assert 1 <= orbit.period_p <= opts.max_period
    assert len(strobe_calls) <= opts.transient + 2 * opts.max_period


def test_attractor_eta_equals_spikes_plus_rotation(lif):
    # orbit words alternating n and n+1 spikes satisfy eta = n + rho
    for T in (0.9, 1.05, 2.2, 2.45):
        orbit = attractor(lif, Forcing(A=10 / 3, T=T, d=0.2))
        if orbit.converged and not orbit.single_branch and orbit.period_p > 1:
            counts = {strobe(lif, Forcing(A=10 / 3, T=T, d=0.2), x).spikes for x in orbit.points}
            low = min(counts)
            assert counts <= {low, low + 1}
            assert orbit.eta == low + orbit.rho


def test_rationals_are_exact(lif):
    orbit = attractor(lif, Forcing(A=10 / 3, T=1.1, d=0.2))
    assert isinstance(orbit.eta, Fraction)
    assert isinstance(orbit.rho, Fraction)
    assert orbit.eta == Fraction(orbit.spikes_n, orbit.period_p)


def test_strobe_runaway_guard(lif):
    from ifstrobe import SpikeRunawayError

    forcing = Forcing(A=10 / 3, T=8.0, d=0.5)  # four spikes per period
    with pytest.raises(SpikeRunawayError):
        strobe(lif, forcing, 0.0, spike_cap=2)


def test_generic_strobe_matches_linear(lif, lif_generic):
    forcing = Forcing(**PULSED)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.uniform(0.0, 0.999)
        lin = strobe(lif, forcing, x0)
        gen = strobe(lif_generic, forcing, x0)
        assert gen.spikes == lin.spikes
        assert gen.image == pytest.approx(lin.image, abs=1e-8)
