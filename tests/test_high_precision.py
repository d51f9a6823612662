"""Cross-checks against 50-digit arithmetic, independent of float rounding.

mpmath re-derives the reference quantities from scratch (exponentials, logs
and a bisection on the onset condition); the package must agree to within a
small multiple of double-precision rounding.
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from ifstrobe import (
    Forcing,
    IntegrationError,
    LinearModel,
    Side,
    SpikeRunawayError,
    StrobeMap,
    attractor,
    bif_A,
    boundary_sigma,
    critical_dose,
    fixed_point,
    time_to_threshold,
)

mp.mp.dps = 50

A_ = mp.mpf("-0.5")
B_ = mp.mpf("0.2")
THETA = mp.mpf(1)

LIF = LinearModel(a=-0.5, b=0.2, theta=1.0)


def mp_flow(drive, t, x0):
    xeq = -(B_ + drive) / A_
    return xeq + (x0 - xeq) * mp.e ** (A_ * t)


def mp_rise_time(drive, x0=mp.mpf(0)):
    xeq = -(B_ + drive) / A_
    return mp.log((THETA - xeq) / (x0 - xeq)) / A_


def test_rise_times_match_high_precision():
    drive = mp.mpf(10) / 3
    exact = mp_rise_time(drive)
    got = time_to_threshold(LIF, 10 / 3, 0.0)
    assert abs(got - float(exact)) < 5e-16
    exact_avg = mp_rise_time(mp.mpf("0.6667"))
    got_avg = time_to_threshold(LIF, 0.6667, 0.0)
    assert abs(got_avg - float(exact_avg)) < 5e-15


def test_boundary_matches_high_precision():
    drive = mp.mpf(10) / 3
    xeq = -(B_ + drive) / A_
    sigma = xeq + (THETA - xeq) * mp.e ** (-A_ * mp.mpf("0.2"))
    got = boundary_sigma(LIF, Forcing(A=10 / 3, T=1.0, d=0.2)).sigma
    assert abs(got - float(sigma)) < 1e-14


def test_subthreshold_fixed_point_matches_high_precision():
    u = mp.e ** mp.mpf("-0.5")
    xbar = (mp.mpf("0.4") + mp.mpf("0.5") * u - mp.mpf("0.9") * u * u) / (1 - u * u)
    got = fixed_point(LIF, Forcing(A=0.25, T=2.0, d=0.5), 0)
    assert abs(got - float(xbar)) < 1e-13


def test_onset_amplitude_matches_high_precision_bisection():
    # A solves flow(d*T; xbar0; A) = theta with xbar0 the decay of theta
    xbar0 = mp_flow(mp.mpf(0), mp.mpf(1), THETA)

    def grazing_defect(drive):
        return mp_flow(drive, mp.mpf(1), xbar0) - THETA

    lo, hi = mp.mpf("0.3"), mp.mpf(2)
    for _ in range(200):
        mid = (lo + hi) / 2
        if grazing_defect(mid) < 0:
            lo = mid
        else:
            hi = mid
    exact = (lo + hi) / 2
    got = bif_A(LIF, 0, Side.ZERO, 0.5, 2.0).A
    assert got == pytest.approx(float(exact), abs=1e-13)


def mp_image(model, forcing, x):
    """The exact map's image of x and its spike count, the float inputs taken as exact."""
    a, b, theta, drive = (mp.mpf(v) for v in (model.a, model.b, model.theta, forcing.A))
    pulse = mp.mpf(forcing.d) * mp.mpf(forcing.T)
    xeq, y, spikes = -(b + drive) / a, mp.mpf(x), 0
    if xeq > theta:
        first = mp.log((theta - xeq) / (y - xeq)) / a
        if first <= pulse:
            delta = mp.log((theta - xeq) / -xeq) / a
            spikes = int(mp.floor((pulse - first) / delta)) + 1
            y = xeq - xeq * mp.e ** (a * (pulse - first - (spikes - 1) * delta))
    if not spikes:
        y = xeq + (y - xeq) * mp.e ** (a * pulse)
    rest_point = -b / a
    return rest_point + (y - rest_point) * mp.e ** (a * (mp.mpf(forcing.T) - pulse)), spikes


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-3.0, -0.05),
    theta=st.floats(0.3, 4.0),
    rest=st.floats(0.02, 0.98),
    dose=st.one_of(st.floats(0.0, 12.0), st.floats(1e-12, 1e-2).map(lambda e: 1.0 + e)),
    T=st.floats(1e-3, 200.0),
    d=st.floats(0.001, 0.999),
    share=st.floats(0.0, 1.0, exclude_max=True),
    edge=st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
)
@example(a=-0.5, theta=1.0, rest=0.2, dose=4.0, T=1.6, d=0.2, share=0.45, edge=None)
@example(a=-0.5, theta=1.0, rest=0.2, dose=4.0, T=30.0, d=0.2, share=0.0, edge=0.0)
def test_branch_images_match_high_precision(a, theta, rest, dose, T, d, share, edge):
    # one step of the iterated branch map against the exact map, within the
    # rounding bound of oracle.branch_error_bound; x near sigma when edge is set
    model = LinearModel(a=a, b=-a * theta * rest, theta=theta)
    forcing = Forcing(A=critical_dose(model) * dose, T=T, d=d)
    top = math.nextafter(theta, 0.0)
    try:
        smap = StrobeMap(model, forcing)
        info = smap.boundary()
        x = min(share * theta, top)
        if edge is not None and info is not None:
            x = min(max(info.sigma + edge * theta, 0.0), top)
        states, counts = [x], []
        smap.iterate(states, counts, 1, 0.0, 0.0)
    except (IntegrationError, SpikeRunawayError):  # a rest point that rounds onto theta
        assume(False)
    exact, spikes = mp_image(model, forcing, x)
    assume(spikes == counts[0])  # the band of mixed counts around sigma
    bound = oracle.branch_error_bound(a, model.b, theta, forcing.A, T, smap.delta, spikes)
    assert abs(mp.mpf(states[1]) - exact) <= bound


def test_one_spike_right_fixed_point_matches_high_precision():
    # T = 3: the attractor is the two-spike branch's fixed point, right of sigma,
    # taken in closed form as sigma + (z - sigma)/(1 - s_R)
    forcing = Forcing(A=10 / 3, T=3.0, d=0.2)
    got = fixed_point(LIF, forcing, 2)
    exact = mp.findroot(lambda x: mp_image(LIF, forcing, x)[0] - x, mp.mpf(got))
    assert mp_image(LIF, forcing, exact)[1] == 2
    assert abs(mp.mpf(got) - exact) <= 4 * math.ulp(got)


# descent cycles of the LIF with periods 1 to 277: (A, T, d) and the period
DESCENT_CYCLES = [
    ((10 / 3, 1.6, 0.2), 1),
    ((10 / 3, 1.1, 0.2), 3),
    ((10 / 3, 1.0, 0.2), 8),
    ((10 / 3, 0.5, 0.2), 13),
    ((3.308526683630994, 0.3407191579772489, 0.8955593155137267), 162),
    ((4.2886584669045416, 0.24827390412412392, 0.7973355094948102), 277),
]


@pytest.mark.parametrize("forcing, period", DESCENT_CYCLES)
def test_descent_cycles_match_their_word_composed_in_high_precision(forcing, period):
    # the float branch constants taken as exact: the word's q branches composed
    # in 50 digits give the cycle C/(1 - S), and each float point lies within
    # half the rounding band of the descent, q*2**-51*theta/(1 - S), of it
    forcing = Forcing(*forcing)
    orbit = attractor(LIF, forcing)
    assert orbit.converged and orbit.period_p == period
    sigma, c, s_L, _, z, s_R, _ = (mp.mpf(v) for v in StrobeMap(LIF, forcing)._build_branches())

    def step(symbol, x):
        return c + s_L * x if symbol == "L" else z + s_R * (x - sigma)

    C, S = mp.mpf(0), mp.mpf(1)
    for symbol in orbit.word:
        C, S = step(symbol, C), S * (s_L if symbol == "L" else s_R)
    bound = period * 2.0**-51 * float(THETA) / float(1 - S)
    x = C / (1 - S)
    for symbol, point in zip(orbit.word, orbit.points):
        assert abs(mp.mpf(point) - x) <= bound
        assert (x >= sigma) == (symbol == "R")  # the exact cycle has the word
        x = step(symbol, x)
    assert abs(x - C / (1 - S)) < mp.mpf(10) ** -45
