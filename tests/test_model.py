import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifstrobe import (
    BifurcationNotFound,
    DomainError,
    Forcing,
    GenericModel,
    IntegrationError,
    LinearModel,
    OrbitOptions,
    Region,
    Side,
    SpikeRunawayError,
    StrobeMap,
    WidthCorrection,
    attractor,
    averaged_time_to_threshold,
    bif_A,
    bif_T,
    classify_region,
    critical_dose,
    fixed_point,
    flow,
    rate_limits,
    scan_plane,
    strobe,
    sweep_T,
    time_to_threshold,
    validate_hypotheses,
)

import oracle
from ifstrobe.model import MAX_STEPS, _dense_poly, _dense_time, _steps


def test_validate_accepts_reference_model(lif):
    assert validate_hypotheses(lif).passed


_WIDTH = WidthCorrection(A=10 / 3, d=0.2)


@pytest.mark.parametrize(
    "name, call",
    [
        ("spike count n", lambda m: bif_T(m, 1.5, Side.R, 10 / 3, 0.2)),
        ("spike count n", lambda m: bif_A(m, 1.5, Side.R, 0.2, 2.0)),
        ("spike count n", lambda m: fixed_point(m, Forcing(10 / 3, 1.6, 0.2), 1.5)),
        ("period_cap", lambda m: scan_plane(m, 1.0, [0.2], [0.5], period_cap=2.5)),
        ("workers", lambda m: scan_plane(m, 1.0, [0.2], [0.5], workers=1.5)),
        ("resolution", lambda m: sweep_T(m, _WIDTH, (1.0, 2.0), 2.5)),
        ("workers", lambda m: sweep_T(m, _WIDTH, (1.0, 2.0), 4, workers=1.5)),
        ("grid_points", lambda m: validate_hypotheses(m, grid_points=8.0)),
    ],
)
def test_counts_are_integers(lif, name, call):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        call(lif)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "name, call",
    [
        ("transient", lambda m, flag: OrbitOptions(transient=flag)),
        ("max_period", lambda m, flag: OrbitOptions(max_period=flag)),
        ("spike_cap", lambda m, flag: OrbitOptions(spike_cap=flag)),
        ("spike_cap", lambda m, flag: StrobeMap(m, Forcing(10 / 3, 1.6, 0.2), spike_cap=flag)),
        ("spike_cap", lambda m, flag: strobe(m, Forcing(10 / 3, 8.0, 0.5), 0.9, spike_cap=flag)),
        ("workers", lambda m, flag: scan_plane(m, 1.0, [0.2], [0.5], workers=flag)),
        ("workers", lambda m, flag: sweep_T(m, _WIDTH, (1.0, 2.0), 4, workers=flag)),
        ("resolution", lambda m, flag: sweep_T(m, _WIDTH, (1.0, 2.0), flag)),
        ("period_cap", lambda m, flag: scan_plane(m, 1.0, [0.2], [0.5], period_cap=flag)),
        ("grid_points", lambda m, flag: validate_hypotheses(m, grid_points=flag)),
        ("spike count n", lambda m, flag: bif_T(m, flag, Side.R, 10 / 3, 0.2)),
        ("spike count n", lambda m, flag: bif_A(m, flag, Side.R, 0.2, 2.0)),
        ("spike count n", lambda m, flag: fixed_point(m, Forcing(10 / 3, 1.6, 0.2), flag)),
    ],
)
def test_a_bool_is_no_count(lif, name, call, flag):
    # bool is an int subclass, so True would pass as the count 1
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {flag}$"):
        call(lif, flag)


def test_validate_needs_two_grid_points(lif):
    with pytest.raises(DomainError, match="^grid_points must be >= 2$"):
        validate_hypotheses(lif, grid_points=1)


def test_spike_counts_below_zero_keep_their_message(lif):
    with pytest.raises(DomainError) as exc:
        bif_T(lif, -1, Side.R, 10 / 3, 0.2)
    assert str(exc.value) == "spike count n must be >= 0"
    with pytest.raises(DomainError) as exc:
        fixed_point(lif, Forcing(10 / 3, 1.6, 0.2), -1)
    assert str(exc.value) == "spike count n must be >= 0"


def test_validate_rejects_positive_decay_rate():
    report = validate_hypotheses(LinearModel(a=0.5, b=0.2, theta=1.0))
    assert not report.passed
    assert "monotone_decreasing" in report.failed_names()


def test_validate_rejects_equilibrium_above_threshold():
    report = validate_hypotheses(LinearModel(a=-0.5, b=0.6, theta=1.0))
    assert not report.passed
    assert report.failed_names() == {"attracting_equilibrium"}
    assert report.failures[0].witness == 1.0  # theta, where f = 0.1 has the wrong sign


def _ulps_from(x: float, steps: int) -> float:
    """The double ``steps`` adjacent doubles above x (below it for negative ``steps``)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def linear_fields(draw) -> LinearModel:
    """Linear fields; a third with b within 4 ulps of 0, a third with -b/a within 4 ulps of theta."""
    theta = draw(st.sampled_from([1.0, draw(st.floats(0.01, 10.0))]))
    a = draw(st.floats(-3.0, 3.0))
    near = draw(st.sampled_from(["anywhere", "zero", "theta"]))
    if near == "anywhere":
        b = draw(st.floats(-3.0, 3.0))
    elif near == "zero":
        b = _ulps_from(0.0, draw(st.integers(-4, 4)))
    else:
        b = -a * _ulps_from(theta, draw(st.integers(-4, 4)))
    return LinearModel(a=a, b=b, theta=theta)


@settings(max_examples=300, deadline=None)
@given(linear_fields())
@example(LinearModel(a=-2.5, b=5e-324, theta=1.0))  # -b/a rounds to 0, yet f(0) = b > 0
def test_linear_verdict_agrees_with_the_critical_dose(model):
    expected = model.b > 0.0 and critical_dose(model) > 0.0 and model.a < 0.0
    assert validate_hypotheses(model).passed == expected


@pytest.mark.parametrize(
    "a, b, theta",
    [
        (-1.3939773776462188, 1.3043379780994628, 0.9356952264906083),
        (-1.5110646658837605, 2.130955539081517, 1.410234510271741),
        (-1.633247535850683, 6.454451983303985, 3.9519128862130257),
    ],
)
def test_rest_point_rounded_onto_the_threshold_fails(a, b, theta):
    # -b/a lies just below theta, but f(theta) rounds to 0: no pulse can be
    # too weak to spike, so the field has no attracting rest point below theta
    model = LinearModel(a=a, b=b, theta=theta)
    assert model.equilibrium() < theta
    assert critical_dose(model) == 0.0
    assert classify_region(model, A=1e-300, d=0.5).kind == Region.PERMANENT_SPIKING
    report = validate_hypotheses(model)
    assert report.failed_names() == {"attracting_equilibrium"}
    assert report.failures[0].witness == theta


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-3.0, -0.05),
    rest=st.floats(0.02, 0.98),
    theta=st.sampled_from([1.0, 0.3, 4.0]) | st.floats(0.3, 4.0),
    ulps=st.integers(1, 6),
    T=st.floats(0.05, 50.0),
    d=st.floats(0.01, 0.95),
    share=st.floats(0.0, 0.999),
)
# the rest point -(b+A)/a rounds onto theta: log1p(-1) in the closed form
@example(a=-0.5, rest=0.4, theta=1.0, ulps=1, T=1.0, d=0.5, share=0.0)
def test_just_above_the_critical_dose_fails_as_a_numeric_error(a, rest, theta, ulps, T, d, share):
    # A a few ulps above Q_c reaches the threshold in floats, but the closed
    # form's rest point can round onto theta: that is an IntegrationError
    # (exit 3 in the CLI, a failed scan node), never a bare ValueError
    model = LinearModel(a=a, b=-a * theta * rest, theta=theta)
    A = _ulps_from(critical_dose(model), ulps)
    forcing = Forcing(A=A, T=T, d=d)
    calls = [
        lambda: time_to_threshold(model, A, 0.0),
        lambda: time_to_threshold(model, A, share * theta),
        lambda: StrobeMap(model, forcing).apply(share * theta),
        lambda: attractor(model, forcing, OrbitOptions(transient=200, max_period=50)),
        lambda: rate_limits(model, A, d),
        lambda: bif_T(model, 1, Side.R, A, d),
    ]
    for call in calls:
        try:
            call()
        except (IntegrationError, BifurcationNotFound, SpikeRunawayError):
            pass


def test_validate_generic_samples_grid():
    good = GenericModel(f=lambda x: 0.2 - 0.5 * x, f_deriv=lambda x: -0.5)
    assert validate_hypotheses(good).passed
    humped = GenericModel(f=lambda x: 0.2 - 0.5 * x + 0.4 * x * x, f_deriv=lambda x: -0.5 + 0.8 * x)
    report = validate_hypotheses(humped)
    assert "monotone_decreasing" in report.failed_names()


def test_theta_must_be_positive():
    with pytest.raises(ValueError):
        LinearModel(a=-0.5, b=0.2, theta=0.0)
    with pytest.raises(ValueError):
        LinearModel(a=-0.5, b=0.2, theta=math.inf)


def test_forcing_invariants():
    forcing = Forcing(A=2.0, T=0.5, d=0.25)
    assert forcing.dose == 2.0 * 0.25
    assert forcing.pulse_width == pytest.approx(0.125)
    for bad in (dict(A=2.0, T=0.5, d=0.0), dict(A=2.0, T=0.5, d=1.0), dict(A=2.0, T=0.0, d=0.5), dict(A=-1.0, T=0.5, d=0.5)):
        with pytest.raises(ValueError):
            Forcing(**bad)


def test_flow_examples(lif):
    assert flow(lif, 0.0, 0.0, 0.3) == 0.3
    up = oracle.lin_flow(-0.5, 0.2, 10 / 3, 0.2, 0.0)
    assert up == pytest.approx(0.6724822458792197, abs=1e-12)
    assert flow(lif, 10 / 3, 0.2, 0.0) == pytest.approx(up, abs=1e-12)
    down = oracle.lin_flow(-0.5, 0.2, 0.0, 0.8, up)
    assert down == pytest.approx(0.5826503116016529, abs=1e-12)
    assert flow(lif, 0.0, 0.8, up) == pytest.approx(down, abs=1e-12)


def test_time_to_threshold_examples(lif):
    delta = time_to_threshold(lif, 10 / 3, 0.0)
    assert delta == pytest.approx(oracle.lin_rise_time(-0.5, 0.2, 1.0, 10 / 3), abs=1e-13)
    assert delta == pytest.approx(0.3051591751904341, abs=1e-12)
    assert 0.2 / delta == pytest.approx(0.655, abs=1e-3)
    assert time_to_threshold(lif, 0.25, 0.0) is None
    assert time_to_threshold(lif, 10 / 3, 1.0) == 0.0
    with pytest.raises(ValueError):
        time_to_threshold(lif, 1.0, 1.5)


@pytest.mark.parametrize("x0", [0.0, 0.3, 0.5])
def test_linear_hit_time_is_none_where_the_drive_moves_the_state_away(x0):
    # a > 0 breaks the hypotheses: under drive 1.932 the rest point
    # 0.457/1.188 = 0.385 repels, so states below it move away from theta
    model, drive = LinearModel(a=1.188, b=-2.389), 1.932
    t = time_to_threshold(model, drive, x0)
    if model.f(x0) + drive <= 0.0:
        assert t is None
    else:
        xeq = model.equilibrium(drive)
        assert t == math.log1p(-(1.0 - x0) / (xeq - x0)) / model.a
        assert 0.0 < t < math.inf and abs(flow(model, drive, t, x0) - 1.0) < 1e-12


def test_critical_dose_examples(lif):
    assert critical_dose(lif) == pytest.approx(0.3, abs=0)
    assert critical_dose(LinearModel(a=-2.0, b=1.0, theta=1.0)) == pytest.approx(1.0)
    assert critical_dose(LinearModel(a=-1.0, b=0.999, theta=1.0)) == pytest.approx(0.001)


def test_averaged_time_to_threshold(lif):
    dhat = averaged_time_to_threshold(lif, 0.6667)
    assert dhat == pytest.approx(1.7202976421260376, abs=1e-12)
    assert 1.0 / dhat == pytest.approx(0.58, abs=1e-2)
    assert averaged_time_to_threshold(lif, 0.257) is None
    assert averaged_time_to_threshold(lif, 0.3) is None
    with pytest.raises(ValueError):
        averaged_time_to_threshold(lif, -0.1)


def test_classify_region_examples(lif):
    assert classify_region(lif, 10 / 3, 0.2).kind == Region.PERMANENT_SPIKING
    assert classify_region(lif, 1.287, 0.2).kind == Region.CONDITIONAL_SPIKING
    assert classify_region(lif, 0.2, 0.5).kind == Region.NON_SPIKING


def test_classify_region_boundary_flags(lif):
    on_amp = classify_region(lif, critical_dose(lif), 0.5)
    assert on_amp.on_amplitude_boundary and on_amp.kind == Region.NON_SPIKING
    on_dose = classify_region(lif, critical_dose(lif) / 0.5, 0.5)
    assert on_dose.on_dose_boundary and on_dose.kind == Region.CONDITIONAL_SPIKING
    plain = classify_region(lif, 2.0, 0.5)
    assert not plain.on_amplitude_boundary and not plain.on_dose_boundary


def test_classify_region_ignores_period(lif):
    # the partition depends on (A, d) only; check a few amplitude scalings
    for A, d in [(0.1, 0.3), (0.9, 0.7), (2.0, 0.4)]:
        kind = classify_region(lif, A, d).kind
        assert classify_region(lif, A, d).kind == kind


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_classify_region_applies_the_forcing_rules(lif, bad):
    with pytest.raises(DomainError, match="amplitude A must be finite and >= 0"):
        classify_region(lif, bad, 0.5)
    d_rule = "duty cycle d must lie in the open interval (0, 1)"
    with pytest.raises(DomainError, match=re.escape(d_rule)):
        classify_region(lif, 10 / 3, bad)


models = st.builds(
    LinearModel,
    a=st.floats(-3.0, -0.2),
    b=st.floats(0.05, 0.5),
    theta=st.floats(0.8, 2.0),
).filter(lambda m: 0.0 < -m.b / m.a < 0.99 * m.theta)


@settings(max_examples=60, deadline=None)
@given(
    model=models,
    drive=st.floats(0.0, 5.0),
    t=st.floats(0.0, 3.0),
    s=st.floats(0.0, 3.0),
    frac=st.floats(0.0, 1.0),
)
def test_flow_semigroup_property(model, drive, t, s, frac):
    x0 = frac * model.theta
    direct = flow(model, drive, t + s, x0)
    chained = flow(model, drive, t, flow(model, drive, s, x0))
    assert abs(direct - chained) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    model=models,
    drive=st.floats(0.0, 5.0),
    t=st.floats(0.0, 3.0),
    lo=st.floats(0.0, 1.0),
    gap=st.floats(1e-6, 1.0),
)
def test_flow_preserves_order(model, drive, t, lo, gap):
    x0 = lo * model.theta / 2.0
    y0 = x0 + gap * (model.theta - x0) / 2.0
    assert flow(model, drive, t, x0) < flow(model, drive, t, y0)


def test_hit_time_decreasing_in_state_and_drive(lif):
    times_x = [time_to_threshold(lif, 2.0, x0) for x0 in np.linspace(0.0, 0.9, 12)]
    assert all(a > b for a, b in zip(times_x, times_x[1:]))
    times_a = [time_to_threshold(lif, A, 0.1) for A in np.linspace(0.5, 6.0, 12)]
    assert all(a > b for a, b in zip(times_a, times_a[1:]))


def test_generic_flow_matches_closed_form(lif, lif_generic):
    rng = np.random.default_rng(7)
    for _ in range(25):
        drive = rng.uniform(0.0, 4.0)
        t = rng.uniform(0.0, 3.0)
        x0 = rng.uniform(0.0, 1.0)
        exact = flow(lif, drive, t, x0)
        numeric = flow(lif_generic, drive, t, x0)
        assert abs(numeric - exact) < 1e-8


def test_generic_hit_time_matches_closed_form(lif, lif_generic):
    rng = np.random.default_rng(11)
    for _ in range(25):
        drive = rng.uniform(0.5, 4.0)
        x0 = rng.uniform(0.0, 0.99)
        exact = time_to_threshold(lif, drive, x0)
        numeric = time_to_threshold(lif_generic, drive, x0)
        if exact is None:
            assert numeric is None
        else:
            assert abs(numeric - exact) < 1e-9


def _fixed_horizon_hit_time(model: GenericModel, drive: float, x0: float) -> float | None:
    """Reference generic hit time: one run of the stepper to the hit's analytic bound.

    It stops in the first step that ends at or above theta and finds the
    crossing on that step's quartic dense output by Brent's method.
    """
    theta = model.theta
    if x0 == theta:
        return 0.0
    speed = model.f(theta) + drive
    if speed <= 0.0:
        return None
    horizon = (theta - x0) / speed * (1.0 + 1e-6) + 1e-12
    for t, t_new, y, y_new, stages in _steps(model.f, drive, x0, horizon):
        if y_new >= theta:
            try:
                return _dense_time(_dense_poly(t, t_new, y, stages), theta)
            except ValueError as exc:
                raise IntegrationError(f"threshold crossing not bracketed on [{t}, {t_new}]") from exc
    raise IntegrationError(
        f"threshold crossing not located within its analytic bound (x0={x0}, drive={drive})"
    )


def _outcome(call) -> object:
    """The bits of a float result, None, or the type and message of the error raised."""
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc)
    return value if value is None else value.hex()


def _cubic_f(x: float) -> float:
    return 0.3 - x - 0.5 * x**3


CUBIC = GenericModel(f=_cubic_f, f_deriv=lambda x: -1.0 - 1.5 * x * x)
LINEAR = GenericModel(f=lambda x: 0.2 - 0.5 * x, f_deriv=lambda x: -0.5)


@st.composite
def generic_hits(draw) -> tuple[GenericModel, float, float]:
    """A field, a drive in [0, 6*Q_c] or within 1e-9 of Q_c, and a start in [0, theta)."""
    model = draw(st.sampled_from([LINEAR, CUBIC]))
    qc = critical_dose(model)
    drive = draw(st.floats(0.0, 6.0 * qc) | st.sampled_from([qc * (1 + 1e-9), qc * (1 - 1e-9)]))
    top = math.nextafter(model.theta, 0.0)
    x0 = draw(st.sampled_from([0.0, top]) | st.floats(0.0, top))
    return model, drive, x0


@settings(max_examples=150, deadline=None)
@given(generic_hits())
# the one capped case: the rest point lies about 6e-12 above theta
@example((LINEAR, 0.3 * (1 + 1e-11), 0.0))
def test_generic_hit_time_is_the_fixed_horizon_run_bit_for_bit(case):
    model, drive, x0 = case
    expected = _outcome(lambda: _fixed_horizon_hit_time(model, drive, x0))
    assert _outcome(lambda: time_to_threshold(model, drive, x0)) == expected
    delta = _outcome(lambda: StrobeMap(model, Forcing(A=drive, T=1.0, d=0.5)).delta)
    assert delta == _outcome(lambda: time_to_threshold(model, drive, 0.0))


def test_generic_unreachable_threshold(lif_generic):
    assert time_to_threshold(lif_generic, 0.25, 0.0) is None


def test_generic_hit_just_above_the_critical_dose_stops_at_the_step_cap(counted_generic):
    # the rest point lies about 6e-12 above theta, below what rtol resolves:
    # without a cap the run would crawl in steps of about 7 time units to its
    # horizon of about 3e11
    model, evaluations = counted_generic
    with pytest.raises(IntegrationError, match=f"more than {MAX_STEPS} steps"):
        time_to_threshold(model, 0.3 * (1.0 + 1e-11), 0.0)
    assert len(evaluations) == 1 + 2 + 6 * MAX_STEPS  # f(theta), the initial step, the cap
    evaluations.clear()
    with pytest.raises(IntegrationError, match=f"more than {MAX_STEPS} steps"):
        flow(model, 0.0, 1e7, 0.5)
    assert len(evaluations) == 2 + 6 * MAX_STEPS


def test_generic_flow_blowup_raises():
    from ifstrobe import IntegrationError

    exploding = GenericModel(f=lambda x: 1.0 + x * x, f_deriv=lambda x: 2.0 * x)
    with pytest.raises((IntegrationError, OverflowError)):
        flow(exploding, 0.0, 10.0, 0.5)


@pytest.mark.parametrize(
    "square", [lambda x: x * x, lambda x: x**2], ids=["inf", "OverflowError"]
)
def test_generic_blowup_is_an_integration_error_at_once(square):
    from ifstrobe import IntegrationError

    calls = []

    def f(x):
        calls.append(x)
        return 1.0 + square(x)

    # f = 1 + x^2 is not finite at 1e200: x*x gives inf, x**2 raises
    exploding = GenericModel(f=f, f_deriv=lambda x: 2.0 * x, theta=1e300)
    with pytest.raises(IntegrationError, match="blew up near t=0.0"):
        flow(exploding, 0.0, 1.0, 1e200)
    # a step shrunk to 10 ulps of t first would cost about ten more stages
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(IntegrationError, match="theta=1e\\+300"):
        time_to_threshold(exploding, 0.0, 1e200)
    assert len(calls) == 1
