import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from ifstrobe import (
    AmplitudeCorrection,
    BifurcationNotFound,
    DomainError,
    Forcing,
    GenericModel,
    IntegrationError,
    LinearModel,
    OrbitOptions,
    StrobeMap,
    Side,
    attractor,
    bif_A,
    bif_T,
    fixed_point,
    flow,
    rate_limits,
    sweep_T,
    time_to_threshold,
)

import oracle
from conftest import linear_f, linear_f_deriv
from ifstrobe.model import MAX_STEPS, _flow_slope
from ifstrobe.strobe import _map_slope


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


@pytest.mark.parametrize("n, side", [(1, Side.R), (1, Side.L), (2, Side.R)])
def test_generic_bif_T_agrees_with_linear(lif, lif_generic, n, side):
    # the same alignment solve on the integrator's flows and hit times
    linear = bif_T(lif, n, side, 10 / 3, 0.2)
    generic = bif_T(lif_generic, n, side, 10 / 3, 0.2)
    for field in ("T", "xbar", "t_first"):
        assert abs(getattr(generic, field) - getattr(linear, field)) < 1e-9, field


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


def test_rate_limits_report_the_small_period_infimum(lif):
    # at A = 0.8, d = 0.4 the small-period limit r_zero = 0.1535 lies below
    # the rate 1/T1L = 0.1840 at the 1-spike window's left end: the least
    # rate is that limit, approached as T -> 0 and taken at no period
    lim = rate_limits(lif, 0.8, 0.4)
    assert lim.r_zero == pytest.approx(0.1535, abs=1e-4)
    assert lim.r_zero < 1.0 / lim.T1L
    assert lim.r_min == lim.r_zero and lim.r_min_at is None and lim.r_min_is_infimum


def test_rate_limits_rejects_non_spiking(lif):
    with pytest.raises(ValueError):
        rate_limits(lif, 0.25, 0.5)


@pytest.mark.parametrize("windows", [2.5, True, "24"])
def test_rate_limits_takes_an_integer_count_of_spike_windows(lif, windows):
    message = f"max_spike_windows must be an integer, got {windows!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        rate_limits(lif, 10 / 3, 0.2, windows)


def test_rate_limits_scans_at_least_one_spike_window(lif):
    with pytest.raises(DomainError, match="max_spike_windows must be >= 1"):
        rate_limits(lif, 10 / 3, 0.2, 0)
    assert rate_limits(lif, 10 / 3, 0.2, 1).r_max_spikes == 1


def test_log_multiplier_negative_at_right_collision(lif):
    # the one-spike fixed point sits on sigma: S is the right branch's slope
    point = bif_A(lif, 1, Side.R, 0.5, 2.0)
    orbit = attractor(lif, Forcing(A=point.A, T=2.0, d=0.5))
    assert (orbit.converged, orbit.word, orbit.spikes_n) == (True, "R", 1)
    assert orbit.log_multiplier == lif.a * (2.0 - time_to_threshold(lif, point.A, 0.0)) < 0.0


def test_log_multiplier_agrees_with_numeric_derivative(lif):
    forcing = Forcing(A=10 / 3, T=1.0, d=0.2)
    orbit = attractor(lif, forcing)
    assert orbit.converged and orbit.period_p == 8
    numeric = oracle.central_difference_log_multiplier(StrobeMap(lif, forcing), orbit.points)
    assert orbit.log_multiplier == pytest.approx(numeric, abs=1e-6)


def test_a_cycle_through_an_expanding_branch_can_contract(lif, lif_generic):
    # fast forcing: the right branch stretches (slope 1.16), the cycle contracts
    forcing = Forcing(A=10 / 3, T=0.01, d=0.2)
    branches = StrobeMap(lif, forcing)._build_branches()
    s_left, s_right = branches.s_L, branches.s_R
    assert s_right > 1.0 > s_left
    orbit = attractor(lif, forcing)
    assert orbit.converged and "R" in orbit.word
    rs = orbit.word.count("R")
    along_word = rs * math.log(s_right) + (orbit.period_p - rs) * math.log(s_left)
    assert orbit.log_multiplier == pytest.approx(along_word, rel=1e-12)
    assert orbit.log_multiplier < 0.0
    generic = attractor(lif_generic, forcing)
    assert (generic.period_p, generic.spikes_n) == (orbit.period_p, orbit.spikes_n)
    assert generic.log_multiplier == pytest.approx(orbit.log_multiplier, rel=1e-9)


def test_log_multiplier_flags_an_expanding_cycle(lif):
    # the lowest node of an amplitude sweep, T at the pulse duration: no cycle
    # within the budget, and the best candidate's S exceeds 1 by 3.5e-5, far
    # above the rounding of a*(p*T - N*delta), about 1e-12
    mode = AmplitudeCorrection(delta=3.0, Q=0.6667)
    orbit = attractor(lif, mode.forcing_at(3.0 * (1.0 + 1e-12)))
    assert not orbit.converged
    assert orbit.log_multiplier == pytest.approx(3.5e-5, rel=0.01)
    lowest = sweep_T(lif, mode, (3.0, 4.0), 2)[0]
    assert lowest.T == 3.0 * (1.0 + 1e-12)
    assert not (lowest.converged or lowest.contraction_ok)


def test_generic_log_multiplier_matches_linear(lif, lif_generic):
    for T in (0.9, 1.5):
        forcing = Forcing(A=10 / 3, T=T, d=0.2)
        lin = attractor(lif, forcing)
        gen = attractor(lif_generic, forcing)
        assert (gen.period_p, gen.spikes_n) == (lin.period_p, lin.spikes_n)
        assert gen.log_multiplier == pytest.approx(lin.log_multiplier, rel=1e-9)
        assert lin.log_multiplier < 0.0


@settings(max_examples=150, deadline=None)
@given(
    # doses from just above the critical dose 0.3, where the spacing delta
    # grows without bound, to far above it; nearer than 1e-6 relative the
    # reset orbit meets the integrator's resolution (the step cap tests)
    excess=st.floats(1e-6, 30.0),
    T=st.floats(0.05, 30.0),
    d=st.floats(0.02, 0.98),
)
def test_generic_log_multiplier_matches_linear_on_random_forcings(excess, T, d):
    # the generic slopes come from field values along the generic cycle; where
    # both fields find the same cycle the two log S agree in sign and to
    # within RELATIVE_LOG_S (0 verdicts differed in those 3,000 forcings)
    forcing = Forcing(A=0.3 * (1.0 + excess), T=T, d=d)
    lin = attractor(LinearModel(a=-0.5, b=0.2, theta=1.0), forcing)
    gen = attractor(
        GenericModel(f=linear_f, f_deriv=linear_f_deriv),
        forcing,
        OrbitOptions(transient=2000, max_period=200),
    )
    if not (lin.converged and gen.converged and lin[:3] == gen[:3]):
        return
    error = abs(gen.log_multiplier - lin.log_multiplier) / abs(lin.log_multiplier)
    target(error, label="relative |generic - linear log S|")
    assert (gen.log_multiplier < 0.0) == (lin.log_multiplier < 0.0)
    assert error < RELATIVE_LOG_S


# about 1e-9 at doses above 0.35; the error grows with the boundary's
# conditioning near the critical dose, to 1.8e-6 at A - 0.3 = 6.6e-7 over
# 3,000 random forcings, half of them within 1e-2 relative of that dose
RELATIVE_LOG_S = 1e-5


CUBIC_FORCINGS = [
    (3.0, 1.6, 0.2), (3.0, 0.5, 0.2), (3.0, 5.0, 0.2), (1.5, 0.4, 0.5), (5.0, 4.0, 0.6),
    (3.0, 1.2, 0.2),  # a two-point cycle LR
    (1.0, 2.0, 0.5),  # below the critical dose 1.2: one branch, no spike
]  # fmt: skip


@pytest.mark.parametrize("A, T, d", CUBIC_FORCINGS)
def test_cubic_log_multiplier_matches_central_differences(cubic, A, T, d):
    forcing = Forcing(A=A, T=T, d=d)
    orbit = attractor(cubic, forcing)
    assert orbit.converged
    reference = oracle.central_difference_log_multiplier(StrobeMap(cubic, forcing), orbit.points)
    # the differences err by about 1e-8 per point (h = 1e-6)
    assert orbit.log_multiplier == pytest.approx(reference, abs=5e-8 * orbit.period_p)


def test_generic_slope_near_a_rest_point_takes_the_exponential_slope(lif, lif_generic):
    # one state of the spiking branch has its pulse-end state 2.7e-5 above
    # drive 0's rest point 0.4, where f(z)/f(y) errs by 3.7e-6 relative
    forcing = Forcing(A=1.4753045910120488, T=7.965156550241147, d=0.3355198600153362)
    smap = StrobeMap(lif_generic, forcing)
    info = smap.boundary()
    rest = smap._rest
    exact = math.exp(-0.5 * rest)
    near = []
    for i in range(33):
        x0 = info.sigma + (1.0 - info.sigma) * (i + 0.5) / 33
        spikes, last = smap._spikes(x0)
        y = smap._on.flow(0.0 if spikes else x0, smap._pulse - last)
        z = smap._off.flow(y, rest)
        if abs(y - 0.4) < 1e-4:
            near.append((x0, y, z))
    assert len(near) == 1
    x0, y, z = near[0]
    assert abs(linear_f(z) / linear_f(y) / exact - 1.0) > 1e-6
    # the rule takes exp(rest*(f'(y) + f'(z))/2), exact for a linear field
    assert _flow_slope(lif_generic, 0.0, rest, y, z) == exact
    slope = _map_slope(smap, x0, *smap._spikes(x0))
    assert slope == pytest.approx(StrobeMap(lif, forcing)._slope(info.n), rel=1e-9)


def test_flow_slope_takes_the_quotient_away_from_the_rest_point(cubic):
    # on the cubic field f' varies along the flow, so far from the rest point
    # the average of f' at the ends errs and the quotient of field values does not
    x, s = 0.9, 0.3
    y = flow(cubic, 0.0, s, x)
    slope = _flow_slope(cubic, 0.0, s, x, y)
    assert slope == cubic.f(y) / cubic.f(x)
    h = 1e-5
    numeric = (flow(cubic, 0.0, s, x + h) - flow(cubic, 0.0, s, x - h)) / (2 * h)
    assert slope == pytest.approx(numeric, rel=1e-8)
    assert abs(math.exp(0.5 * s * (cubic.f_deriv(x) + cubic.f_deriv(y))) / slope - 1.0) > 1e-3


def test_generic_bif_A_stops_at_the_step_cap(counted_generic):
    # the first probe, Q_c*(1 + 1e-12), puts the rest point below what rtol
    # resolves above theta; its hit run used to crawl to a horizon of 3e12
    model, evaluations = counted_generic
    with pytest.raises(IntegrationError, match=f"more than {MAX_STEPS} steps"):
        bif_A(model, 1, Side.R, d=0.5, T=2.0)
    # one capped run, after the off-phase flow to the probe's start state
    assert len(evaluations) <= 2 * (2 + 6 * MAX_STEPS)
