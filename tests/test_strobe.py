import logging
import math
import struct
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
    SpikeRunawayError,
    StrobeMap,
    StrobeResult,
    flow,
    time_to_threshold,
)
from ifstrobe.strobe import SPIKE_CAP, _least_rotation

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
# pulse - 27*delta rounds to just above delta: the guess flows for a clamped 0.0
@example(forcing=Forcing(A=10 / 3, T=42.72228452666078, d=0.2))
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


def test_map_solves_the_threshold_at_most_twice(lif, lif_generic, monkeypatch):
    sigma = boundary_sigma(lif_generic, FORTY_SPIKES).sigma
    sigma_linear = boundary_sigma(lif, FORTY_SPIKES).sigma
    # ifstrobe.strobe is the re-exported function, so patch the module itself
    module = sys.modules["ifstrobe.strobe"]
    calls = {"time_to_threshold": 0, "flow": 0}
    for name in calls:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    assert strobe(lif_generic, FORTY_SPIKES, sigma).spikes == 40
    assert calls["time_to_threshold"] == 2
    calls.update(time_to_threshold=0, flow=0)
    assert boundary_sigma(lif_generic, FORTY_SPIKES).sigma == sigma
    assert calls["flow"] == 1  # the guess; the edge search only counts spikes
    # the linear closed form solves delta once per map object and calls
    # neither function per application
    calls.update(time_to_threshold=0, flow=0)
    assert strobe(lif, FORTY_SPIKES, sigma_linear).spikes == 40
    assert calls == {"time_to_threshold": 1, "flow": 0}
    calls.update(time_to_threshold=0, flow=0)
    assert boundary_sigma(lif, FORTY_SPIKES).sigma == sigma_linear
    assert calls == {"time_to_threshold": 1, "flow": 1}


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
    for T, n in [(1.0, 1), (1.7, 2)]:
        forcing = Forcing(A=10 / 3, T=T, d=0.2)
        lin = boundary_sigma(lif, forcing)
        gen = boundary_sigma(lif_generic, forcing)
        assert gen.n == lin.n == n
        assert gen.sigma == pytest.approx(lin.sigma, abs=1e-8)
        assert strobe(lif_generic, forcing, gen.sigma).spikes == n
        assert strobe(lif_generic, forcing, math.nextafter(gen.sigma, 0.0)).spikes == n - 1


@pytest.mark.parametrize("kind", ["linear", "generic"])
def test_strobe_given_delta_is_bit_identical(kind, lif, lif_generic):
    # one map object, with its delta solved once, gives what strobe gives
    model = lif if kind == "linear" else lif_generic
    forcing = Forcing(A=10 / 3, T=5.0, d=0.2)
    smap = StrobeMap(model, forcing)
    assert smap.delta == time_to_threshold(model, forcing.A, 0.0)
    for x0 in np.linspace(0.0, 0.99, 7):
        times = []
        image, spikes = smap.apply(x0, times)
        assert StrobeResult(image, spikes, tuple(times)) == strobe(model, forcing, x0)
        assert smap.spike_count(x0) == spikes


def test_generic_attractor_solves_the_reset_hit_time_once(lif_generic, monkeypatch):
    module = sys.modules["ifstrobe.strobe"]
    original = module.time_to_threshold
    starts = []

    def counting(model, drive, x0):
        starts.append(x0)
        return original(model, drive, x0)

    monkeypatch.setattr(module, "time_to_threshold", counting)
    # seeded off 0.0, so every solve from 0.0 is the reset hit time delta
    orbit = attractor(lif_generic, Forcing(**PULSED), OrbitOptions(seed=0.5))
    assert orbit.converged and orbit.period_p == 8
    # once, when attractor builds its map object; the maps, the boundary's
    # guess and edge probes and the margin all reuse it
    assert starts.count(0.0) == 1
    assert len(starts) > 100


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _strobe_from_flows(model, forcing, x0, spike_cap):
    """The map as two flows around a spike loop, each spike time by time_to_threshold."""
    theta = model.theta
    if not 0.0 <= x0 < theta:
        raise ValueError(f"x0 = {x0} outside the map domain [0, {theta})")
    pulse = forcing.pulse_width
    times = []
    spikes, elapsed = 0, 0.0
    t = time_to_threshold(model, forcing.A, x0)
    if not (t is None or t > pulse):
        delta = time_to_threshold(model, forcing.A, 0.0)
        while True:
            spikes += 1
            times.append(t)
            if spikes > spike_cap:
                raise SpikeRunawayError(f"more than {spike_cap} spikes")
            after = t + delta
            if after > pulse:
                elapsed = t
                break
            t = after
    x = flow(model, forcing.A, pulse - elapsed, 0.0 if spikes else x0)
    return flow(model, 0.0, forcing.T - pulse, x), spikes, tuple(times)


def _outcome(fn):
    """Bit patterns of the image and the spike times plus the count, or the error type."""
    try:
        image, spikes, times = fn()
    except (ValueError, SpikeRunawayError) as exc:
        return type(exc)
    return _bits(image), spikes, tuple(map(_bits, times))


@settings(max_examples=400, deadline=None)
@given(
    a=st.floats(-3.0, -0.05),
    rest=st.floats(0.02, 0.98),
    theta=st.floats(0.3, 4.0),
    forcing=st.builds(
        Forcing, A=st.floats(0.0, 40.0), T=st.floats(1e-3, 200.0), d=st.floats(0.001, 0.999)
    ),
    share=st.floats(-0.25, 1.25),
    spike_cap=st.integers(1, 100),
)
@example(a=-0.5, rest=0.4, theta=1.0, forcing=FORTY_SPIKES, share=0.5, spike_cap=SPIKE_CAP)
@example(a=-0.5, rest=0.4, theta=1.0, forcing=FORTY_SPIKES, share=0.5, spike_cap=39)
def test_linear_map_is_bit_identical_to_the_flows(a, rest, theta, forcing, share, spike_cap):
    # rest places the equilibrium -b/a inside (0, theta); share places x0
    # around the map domain [0, theta), past both ends
    model = LinearModel(a=a, b=-a * theta * rest, theta=theta)
    x0 = share * theta
    smap = StrobeMap(model, forcing, spike_cap)

    def mapped():
        times = []
        image, spikes = smap.apply(x0, times)
        return image, spikes, times

    expected = _outcome(lambda: _strobe_from_flows(model, forcing, x0, spike_cap))
    assert _outcome(mapped) == expected
    # the same without spike times, and the count alone
    if isinstance(expected, type):
        with pytest.raises(expected):
            smap.apply(x0)
        if expected is SpikeRunawayError:
            with pytest.raises(SpikeRunawayError):
                smap.spike_count(x0)
    else:
        image, spikes = smap.apply(x0)
        assert (_bits(image), spikes) == expected[:2]
        assert smap.spike_count(x0) == spikes


def test_linear_field_without_decay_keeps_the_errors_of_the_flows():
    # a = 0 breaks the standing hypotheses and the closed form's equilibrium
    # divides by zero; the map calls flow and time_to_threshold instead
    model = LinearModel(a=0.0, b=-0.5, theta=1.0)
    forcing = Forcing(A=0.2, T=1.0, d=0.5)  # the threshold is unreachable
    assert StrobeMap(model, forcing).delta is None
    assert boundary_sigma(model, forcing) is None
    with pytest.raises(ZeroDivisionError):
        strobe(model, forcing, 0.5)


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
    calls = []
    original = StrobeMap.boundary

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(StrobeMap, "boundary", counting)
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
    assert len(strobe_calls) == opts.transient + 2 * opts.max_period


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
