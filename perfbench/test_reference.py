"""Tests of the closed-form reference against the paper's printed values.

Run with ``python3 -m pytest perfbench``.
"""

from fractions import Fraction

import pytest

import reference as ref

LIF = ref.Linear(a=-0.5, b=0.2, theta=1.0)


@pytest.mark.parametrize(
    "d, invA, expected",
    [(0.2, 0.3, 0.655), (0.8, 1.2, 0.604), (0.2, 0.777, 0.244), (0.8, 3.111, 0.125)],
)
def test_r_infinity_matches_printed_limits(d, invA, expected):
    assert ref.r_infinity(LIF, 1.0 / invA, d) == pytest.approx(expected, abs=1e-3)


def test_sigma_matches_hand_value():
    value, n = ref.sigma(LIF, 10 / 3, 1.0, 0.2)
    assert n == 1
    assert value == pytest.approx(0.361963, abs=1e-6)


def test_non_spiking_fixed_point_matches_hand_value():
    orbit = ref.attractor(LIF, 0.25, 2.0, 0.5)
    assert orbit.period == 1 and orbit.eta == 0
    assert orbit.points[0] == pytest.approx(0.58877033, abs=1e-8)


def test_map_agrees_with_spike_by_spike_chain():
    for A, T, d, x0 in [(10 / 3, 1.6, 0.2, 0.0), (26.0, 117.0, 3 / 117, 0.4), (1.0, 5.0, 0.2, 0.9)]:
        pulse, t, x, spikes = d * T, 0.0, x0, 0
        while (hit := LIF.hit_time(A, x)) is not None and t + hit <= pulse:
            t, x, spikes = t + hit, 0.0, spikes + 1
        image = LIF.flow(0.0, T - pulse, LIF.flow(A, pulse - t, x))
        got_image, got_spikes = ref.map_period(LIF, A, T, d, x0)
        assert got_spikes == spikes
        assert got_image == pytest.approx(image, abs=1e-12)


def test_one_spike_window_solves_both_alignments():
    A, d = 10 / 3, 0.2
    t1r, t1l = ref.one_spike_window(LIF, A, d)
    assert t1r < t1l
    delta = LIF.hit_time(A, 0.0)
    decay = LIF.flow(0.0, (1.0 - d) * t1r, 0.0)
    assert LIF.hit_time(A, decay) == pytest.approx(d * t1r, abs=1e-12)
    decay = LIF.flow(0.0, (1.0 - d) * t1l, LIF.theta)
    assert LIF.hit_time(A, decay) + delta == pytest.approx(d * t1l, abs=1e-12)
    # inside the window the attractor is the 1-spike fixed point
    orbit = ref.attractor(LIF, A, 0.5 * (t1r + t1l), d)
    assert (orbit.period, orbit.eta) == (1, Fraction(1))
