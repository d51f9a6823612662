import math
import re
import sys

import numpy as np
import pytest

from ifstrobe import (
    BifurcationNotFound,
    DomainError,
    Forcing,
    IntegrationError,
    LinearModel,
    Side,
    attractor,
    bif_A,
    bif_T,
    boundary_sigma,
    contraction_margin,
    fixed_point,
    rate_limits,
    strobe,
    time_to_threshold,
)

import oracle
from ifstrobe.model import MAX_STEPS


def hand_onset_amplitude(T: float, d: float) -> float:
    """Two-equation solve for the onset curve of the reference model.

    Decay from theta over (1-d)T gives the colliding fixed point; the pulse
    level is then read off the affine flow reaching theta in exactly d*T.
    """
    a, b, theta = -0.5, 0.2, 1.0
    xbar = oracle.lin_flow(a, b, 0.0, (1.0 - d) * T, theta)
    u = math.exp(a * d * T)
    xeq = (theta - xbar * u) / (1.0 - u)
    return -a * xeq - b


def test_onset_amplitude_hand_value(lif):
    point = bif_A(lif, 0, Side.ZERO, 0.5, 2.0)
    assert point.A == pytest.approx(hand_onset_amplitude(2.0, 0.5), abs=1e-11)
    assert point.A == pytest.approx(0.4819591979137899, abs=1e-9)
    assert point.residual < 1e-9


def test_onset_amplitude_small_period_limit(lif):
    point = bif_A(lif, 0, Side.ZERO, 0.5, 1e-4)
    assert point.A == pytest.approx(0.6, abs=1e-3)  # critical dose / d


def test_right_collision_large_period_limit(lif):
    point = bif_A(lif, 1, Side.R, 0.5, 200.0)
    assert point.A == pytest.approx(0.3, abs=1e-3)  # critical dose
    assert point.at_resolution


def test_collision_amplitudes_certify_residuals(lif):
    for n, side, d, T in [(0, Side.ZERO, 0.5, 2.0), (1, Side.R, 0.5, 3.0), (1, Side.L, 0.5, 3.0), (3, Side.R, 0.3, 8.0)]:
        point = bif_A(lif, n, side, d, T)
        assert point.residual < 1e-9


def test_window_ordering_and_fixed_point_existence(lif):
    d, T = 0.5, 3.0
    right = bif_A(lif, 1, Side.R, d, T)
    left = bif_A(lif, 1, Side.L, d, T)
    assert right.A < left.A
    inside = 0.5 * (right.A + left.A)
    assert fixed_point(lif, Forcing(A=inside, T=T, d=d), 1) is not None
    assert fixed_point(lif, Forcing(A=right.A * 0.995, T=T, d=d), 1) is None
    assert fixed_point(lif, Forcing(A=left.A * 1.01, T=T, d=d), 1) is None


def test_window_ordering_holds_across_spike_counts(lif):
    for n, d, T in [(1, 0.5, 3.0), (2, 0.5, 5.0), (3, 0.3, 8.0)]:
        right = bif_A(lif, n, Side.R, d, T)
        left = bif_A(lif, n, Side.L, d, T)
        assert right.A < left.A


def test_collision_amplitudes_decrease_with_period(lif):
    grid = np.geomspace(0.05, 200.0, 50)
    for n, side in [(0, Side.ZERO), (1, Side.R), (1, Side.L)]:
        values = [bif_A(lif, n, side, 0.5, T).A for T in grid]
        assert all(nxt < cur + 1e-12 for cur, nxt in zip(values, values[1:]))


def test_window_periods_bracket_simulation(lif):
    A, d = 10 / 3, 0.2
    right = bif_T(lif, 1, Side.R, A, d)
    left = bif_T(lif, 1, Side.L, A, d)
    assert right.T < left.T
    assert right.residual < 1e-9 and left.residual < 1e-9
    for frac in (0.05, 0.5, 0.95):
        T = right.T + frac * (left.T - right.T)
        orbit = attractor(lif, Forcing(A=A, T=T, d=d))
        assert orbit.converged
        assert (orbit.period_p, orbit.spikes_n) == (1, 1)


def test_window_absent_in_non_spiking_region(lif):
    with pytest.raises(BifurcationNotFound):
        bif_T(lif, 1, Side.R, 0.25, 0.5)


def test_onset_period_absent_in_permanent_region(lif):
    with pytest.raises(BifurcationNotFound):
        bif_T(lif, 0, Side.ZERO, 10 / 3, 0.2)


def test_wide_window_width_approaches_rise_time_ratio(lif):
    A, d = 10 / 3, 0.2
    delta = time_to_threshold(lif, A, 0.0)
    width = bif_T(lif, 20, Side.L, A, d).T - bif_T(lif, 20, Side.R, A, d).T
    assert width == pytest.approx(delta / d, rel=0.10)


def test_bif_T_solves_the_reset_hit_time_once(lif, monkeypatch):
    # delta = time_to_threshold(model, A, 0.0) depends on A alone
    from_reset = []

    def counting(model, drive, x0):
        if x0 == 0.0:
            from_reset.append(drive)
        return time_to_threshold(model, drive, x0)

    monkeypatch.setattr(sys.modules["ifstrobe.bifurcation"], "time_to_threshold", counting)
    for n, side in [(1, Side.L), (3, Side.R), (3, Side.L)]:
        from_reset.clear()
        bif_T(lif, n, side, 10 / 3, 0.2)
        assert len(from_reset) <= 2, (n, side)


A_RULE = "amplitude A must be finite and >= 0"
T_RULE = "period T must be finite and > 0"
D_RULE = "duty cycle d must lie in the open interval (0, 1)"


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "solve, rule",
    [
        (lambda m, v: bif_A(m, 1, Side.R, 0.5, v), T_RULE),
        (lambda m, v: bif_A(m, 1, Side.R, v, 2.0), D_RULE),
        (lambda m, v: bif_T(m, 1, Side.R, v, 0.2), A_RULE),
        (lambda m, v: bif_T(m, 1, Side.R, 10 / 3, v), D_RULE),
        (lambda m, v: rate_limits(m, v, 0.2), A_RULE),
        (lambda m, v: rate_limits(m, 10 / 3, v), D_RULE),
    ],
    ids=["bif_A-T", "bif_A-d", "bif_T-A", "bif_T-d", "rate_limits-A", "rate_limits-d"],
)
def test_non_finite_forcing_is_a_domain_error(lif, solve, rule, bad):
    with pytest.raises(DomainError, match=re.escape(rule)):
        solve(lif, bad)


@pytest.mark.parametrize("time_tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "solve",
    [
        lambda m, tol: bif_A(m, 1, Side.R, 0.5, 2.0, time_tol=tol),
        lambda m, tol: bif_T(m, 1, Side.R, 10 / 3, 0.2, time_tol=tol),
    ],
    ids=["bif_A", "bif_T"],
)
def test_time_tol_outside_its_domain_is_a_domain_error(lif, solve, time_tol):
    with pytest.raises(DomainError, match=re.escape("time_tol must be finite and > 0")):
        solve(lif, time_tol)


def test_bif_T_rejects_a_negative_amplitude(lif):
    with pytest.raises(DomainError, match=re.escape(A_RULE)):
        bif_T(lif, 1, Side.R, -1.0, 0.2)


def test_rate_limits_permanent_point(lif):
    lim = rate_limits(lif, 10 / 3, 0.2)
    assert lim.r_infinity == pytest.approx(0.655, abs=1e-3)
    assert lim.r_zero == pytest.approx(0.58, abs=1e-2)
    assert lim.T0 is None
    assert lim.r_max == pytest.approx(1.0 / lim.T1R, rel=1e-12)
    assert lim.r_max_spikes == 1
    assert lim.r_max >= lim.r_infinity and lim.r_max >= lim.r_zero
    # minimum attained at the right end of the 1-spike window here
    assert lim.r_min == pytest.approx(1.0 / lim.T1L, rel=1e-12)
    assert not lim.r_min_is_infimum


def test_rate_limits_other_duty_cycle(lif):
    lim = rate_limits(lif, 1.0 / 1.2, 0.8)
    assert lim.r_infinity == pytest.approx(0.604, abs=1e-3)


def test_rate_limits_conditional_point(lif):
    lim = rate_limits(lif, 1.0 / 0.777, 0.2)
    assert lim.r_infinity == pytest.approx(0.244, abs=1e-3)
    assert lim.r_zero == 0.0
    assert lim.T0 is not None and lim.T0 > 0.0
    assert lim.r_min == 0.0 and not lim.r_min_is_infimum


def test_rate_limits_rejects_non_spiking(lif):
    with pytest.raises(ValueError):
        rate_limits(lif, 0.25, 0.5)


def test_margin_positive_at_right_collision(lif):
    point = bif_A(lif, 1, Side.R, 0.5, 2.0)
    margin = contraction_margin(lif, Forcing(A=point.A, T=2.0, d=0.5))
    assert margin >= 0.0


def test_margin_agrees_with_numeric_derivative(lif):
    forcing = Forcing(A=10 / 3, T=1.0, d=0.2)
    closed = contraction_margin(lif, forcing)
    info = boundary_sigma(lif, forcing)
    span = lif.theta - info.sigma
    h = 1e-6
    xs = np.linspace(info.sigma + 2 * h, lif.theta - 2 * h, 21)
    sup = max(
        (strobe(lif, forcing, x + h).image - strobe(lif, forcing, x - h).image) / (2 * h)
        for x in xs
    )
    numeric = span * (1.0 - sup)
    assert math.copysign(1.0, closed) == math.copysign(1.0, numeric)
    assert closed == pytest.approx(numeric, abs=1e-6)


def test_margin_single_branch_is_positive(lif):
    assert contraction_margin(lif, Forcing(A=0.25, T=1.0, d=0.5)) > 0.0


def test_margin_flags_expanding_branch(lif):
    # short periods with a slow rise: the spiking branch stretches the interval
    delta = time_to_threshold(lif, 1.287, 0.0)
    forcing = Forcing(A=1.287, T=delta * 0.9, d=0.2)
    assert contraction_margin(lif, forcing) < 0.0


def test_generic_margin_sign_matches_linear(lif, lif_generic):
    for T in (0.9, 1.5):
        forcing = Forcing(A=10 / 3, T=T, d=0.2)
        lin = contraction_margin(lif, forcing)
        gen = contraction_margin(lif_generic, forcing)
        assert math.copysign(1.0, lin) == math.copysign(1.0, gen)
        assert gen == pytest.approx(lin, abs=1e-5)


def test_generic_bif_A_stops_at_the_step_cap(counted_generic):
    # the first probe, Q_c*(1 + 1e-12), puts the rest point below what rtol
    # resolves above theta; its hit run used to crawl to a horizon of 3e12
    model, evaluations = counted_generic
    with pytest.raises(IntegrationError, match=f"more than {MAX_STEPS} steps"):
        bif_A(model, 1, Side.R, d=0.5, T=2.0)
    # one capped run, after the off-phase flow to the probe's start state
    assert len(evaluations) <= 2 * (2 + 6 * MAX_STEPS)
