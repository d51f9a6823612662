import math
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ifstrobe import (
    BoundaryInfo,
    DomainError,
    Forcing,
    GenericModel,
    IntegrationError,
    LinearModel,
    OrbitOptions,
    OrbitSummary,
    attractor,
    bif_T,
    boundary_sigma,
    critical_dose,
    fixed_point,
    rotation_number,
    strobe,
    Side,
    SpikeRunawayError,
    StrobeMap,
    StrobeResult,
    WidthCorrection,
    flow,
    scan_plane,
    sweep_T,
    time_to_threshold,
)
from ifstrobe.model import MAX_STEPS, _LinearDrive
from ifstrobe.strobe import (
    SPIKE_CAP,
    STATE_TOL,
    _best_candidate,
    _from_ordinal,
    _least_rotation,
    _ordinal,
    _repeats,
)

import oracle
from conftest import cubic_f, cubic_f_deriv, linear_f, linear_f_deriv

PULSED = dict(A=10 / 3, T=1.0, d=0.2)

# amplitude correction at T = 60 (delta = 3, Q = 0.6667): 40 spikes per period
FORTY_SPIKES = Forcing(A=0.6667 * 60 / 3, T=60.0, d=0.05)


def _refused(a: float) -> str:
    """The whole message with which a map refuses a linear field with this ``a``, as a pattern."""
    return f"^{re.escape(f'a linear field needs a < 0 (one attracting rest point), got a = {a!r}')}$"


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


def _assert_boundary_contract(model, forcing):
    """The boundary's n is the map's own count at the last double below theta."""
    smap = StrobeMap(model, forcing)
    top = math.nextafter(model.theta, 0.0)
    info = smap.boundary()
    if info is None:
        assert smap.spike_count(0.0) >= smap.spike_count(top)
        return
    assert info.n == smap.spike_count(top)
    below = math.nextafter(info.sigma, 0.0)
    assert smap.spike_count(info.sigma) >= info.n > smap.spike_count(below)


@st.composite
def _near_multiple_forcings(draw, model):
    """Forcings with the pulse d*T a few ulps from k*delta, where rounding decides the count."""
    A = draw(st.floats(0.31, 30.0))
    d = draw(st.floats(0.01, 0.95))
    T = draw(st.integers(1, 40)) * time_to_threshold(model, A, 0.0) / d
    for _ in range(draw(st.integers(0, 4))):
        T = math.nextafter(T, draw(st.sampled_from([0.0, math.inf])))
    return Forcing(A=A, T=T, d=d)


@settings(max_examples=300, deadline=None)
@given(
    forcing=st.builds(
        Forcing, A=st.floats(0.31, 30.0), T=st.floats(0.05, 100.0), d=st.floats(0.01, 0.95)
    )
    | _near_multiple_forcings(LinearModel(a=-0.5, b=0.2, theta=1.0))
)
@example(forcing=FORTY_SPIKES)
# 0.0 spikes 24 times and the last double below theta 25 times
@example(forcing=Forcing(A=0.5747450474363697, T=242.45119955641803, d=0.21379362912317817))
@example(forcing=Forcing(A=10 / 3, T=42.72228452666078, d=0.2))
@example(forcing=Forcing(A=0.25, T=1.0, d=0.5))
def test_boundary_n_is_the_count_of_the_map(forcing):
    _assert_boundary_contract(LinearModel(a=-0.5, b=0.2, theta=1.0), forcing)


@pytest.mark.parametrize(
    "A, k, d",
    [
        (10 / 3, 1, 0.2),
        (10 / 3, 4, 0.2),
        (0.5747450474363697, 25, 0.21379362912317817),
        (2.0, 3, 0.5),
    ],
)
def test_generic_boundary_n_is_the_count_of_the_map(lif_generic, A, k, d):
    # the pulse d*T at k*delta and one ulp of T to either side
    T = k * time_to_threshold(lif_generic, A, 0.0) / d
    for period in (math.nextafter(T, 0.0), T, math.nextafter(T, math.inf)):
        _assert_boundary_contract(lif_generic, Forcing(A=A, T=period, d=d))


def _boundary_by_spike_count(smap):
    """``StrobeMap.boundary`` with every edge probe tested by ``spike_count(probe) >= n``."""
    forcing, delta = smap.forcing, smap.delta
    top = math.nextafter(smap.model.theta, 0.0)
    n = smap.spike_count(top)
    if n == 0:
        return None
    if delta is None or delta == math.inf:  # no second spike: n is 1
        guess = top
    else:
        s = max(delta - (forcing.pulse_width - (n - 1) * delta), 0.0)
        if isinstance(smap.model, LinearModel):
            guess = flow(smap.model, forcing.A, s, 0.0)
        else:
            guess = smap._on.flow(0.0, s)
    k, last = _ordinal(min(max(guess, 0.0), top)), _ordinal(top)
    above = smap.spike_count(_from_ordinal(k)) >= n
    step = -1 if above else 1
    while True:
        if above and k == 0:
            return None
        probe = min(max(k + step, 0), last)
        if (smap.spike_count(_from_ordinal(probe)) >= n) != above:
            break
        k, step = probe, 2 * step
    lo, hi = sorted((k, probe))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if smap.spike_count(_from_ordinal(mid)) >= n:
            hi = mid
        else:
            lo = mid
    return BoundaryInfo(sigma=_from_ordinal(hi), n=n)


def _returned_or_raised(fn):
    """What fn returns, or the type and message of its error."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _edge(info):
    """sigma as hex and n, or None."""
    return None if info is None else (info.sigma.hex(), info.n)


@st.composite
def _boundary_cases(draw):
    """A map with up to thousands of spikes, often at a near multiple, and its spike cap."""
    kind = draw(st.sampled_from(["lif", "linear", "any-sign", "generic"]))
    if kind == "any-sign":  # b of either sign, where delta can be None
        model = LinearModel(a=draw(st.floats(-3.0, -5e-324)), b=draw(st.floats(-3.0, 3.0)))
        A = draw(st.floats(0.0, 6.0))
    else:
        if kind == "linear":
            a, theta = draw(st.floats(-3.0, -0.05)), draw(st.floats(0.3, 4.0))
            model = LinearModel(a=a, b=-a * theta * draw(st.floats(0.02, 0.98)), theta=theta)
        else:
            model = LinearModel(a=-0.5, b=0.2, theta=1.0)
        A = critical_dose(model) * (1.0 + draw(st.floats(1e-3, 3.0)))
    d = draw(st.floats(0.01, 0.95))
    try:
        delta = time_to_threshold(model, A, 0.0)
    except (ArithmeticError, IntegrationError):
        delta = None
    if not (delta and math.isfinite(delta)):  # a field outside the hypotheses: no spacing
        delta = None
    if kind == "generic":
        model = GenericModel(f=linear_f, f_deriv=linear_f_deriv, theta=1.0)
    # at most about 6000 spikes per map and T up to 1e4
    t_max = 1e4 if delta is None else min(1e4, 6000.0 * delta / d)
    if delta is not None and draw(st.booleans()):
        T = draw(st.integers(1, max(1, int(t_max * d / delta)))) * delta / d
        for _ in range(draw(st.integers(0, 4))):
            T = math.nextafter(T, draw(st.sampled_from([0.0, math.inf])))
        assume(0.0 < T < math.inf)
    else:
        T = draw(st.floats(0.05, max(t_max, 0.05)))
    forcing = Forcing(A=A, T=T, d=d)
    cap = SPIKE_CAP
    shift = draw(st.sampled_from([None, 0, 1]))  # the cap at n or at n - 1
    if shift is not None:
        try:
            cap = max(StrobeMap(model, forcing).spike_count(math.nextafter(model.theta, 0.0)), 1)
        except Exception:  # a map that raises keeps the default cap
            pass
        cap = max(cap - shift, 1)
    return model, forcing, cap


@settings(max_examples=250, deadline=None)
@given(case=_boundary_cases())
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), FORTY_SPIKES, SPIKE_CAP))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), FORTY_SPIKES, 40))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), FORTY_SPIKES, 39))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), Forcing(A=10 / 3, T=3e4, d=0.2), SPIKE_CAP))
# the hit time from some states (0.425838135825144 among them) raises "not
# resolvable", yet delta resolves: both searches find the same edge
@example(
    case=(
        LinearModel(a=-2.679148633562933, b=1.1087775698505953, theta=0.9927964670115221),
        Forcing(A=1.551071728149432, T=5.281729977399981, d=0.7259735717017218),
        SPIKE_CAP,
    )
)
# delta overflows to inf, which means no second spike, as None does: both
# searches start from the last double below theta
@example(
    case=(
        LinearModel(a=-1e-307, b=5e-308),
        Forcing(A=critical_dose(LinearModel(a=-1e-307, b=5e-308)) * (1.0 + 1e-15), T=1e308, d=0.5),
        SPIKE_CAP,
    )
)
@example(
    case=(
        LinearModel(a=-0.5, b=0.2, theta=1.0),
        Forcing(A=0.5747450474363697, T=242.45119955641803, d=0.21379362912317817),
        SPIKE_CAP,
    )
)
def test_boundary_equals_an_edge_search_by_spike_count(case):
    model, forcing, cap = case
    found = _returned_or_raised(lambda: _edge(StrobeMap(model, forcing, cap).boundary()))
    expected = _returned_or_raised(
        lambda: _edge(_boundary_by_spike_count(StrobeMap(model, forcing, cap)))
    )
    assert found == expected


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(), where=st.floats(0.0, 1.0), shift=st.integers(-2, 2))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), FORTY_SPIKES, 39), where=1.0, shift=-1)
def test_probe_test_is_the_spike_count_at_least_n(case, where, shift):
    model, forcing, cap = case
    try:
        smap = StrobeMap(model, forcing, cap)
    except Exception:  # a field outside the hypotheses whose delta raises
        assume(False)
    x0 = min(where * model.theta, math.nextafter(model.theta, 0.0))
    try:
        count = StrobeMap(model, forcing).spike_count(x0)
    except Exception:
        count = cap
    n = min(max(count + shift, 1), cap)  # a count past the cap raises in both
    found = _returned_or_raised(lambda: smap._at_least(n)(x0))
    assert found == _returned_or_raised(lambda: smap.spike_count(x0) >= n)


def test_log_multiplier_without_delta_is_the_decay_over_the_cycle(lif, lif_generic):
    # a < 0 below the critical dose: delta is None, no state spikes, and every
    # map has the slope exp(a*T), so log S is a*p*T with no spacing read
    forcing = Forcing(A=0.25, T=1.5, d=0.5)
    orbit = attractor(lif, forcing)
    assert StrobeMap(lif, forcing).delta is None
    assert orbit.single_branch and orbit.spikes_n == 0
    assert orbit.log_multiplier == -0.5 * orbit.period_p * 1.5 < 0.0
    generic = attractor(lif_generic, forcing)
    assert generic.log_multiplier == pytest.approx(orbit.log_multiplier, rel=1e-12)
    # a > 0: the reset state 0 never reaches theta (delta is None), yet the
    # states past the repelling rest point would spike once, a right branch
    # with n = 1 and no slope exp(a*(T - n*delta)); the map refuses the field
    model, forcing = LinearModel(a=1.188, b=-2.389), Forcing(A=1.932, T=4.0, d=0.5)
    with pytest.raises(DomainError, match=_refused(1.188)):
        attractor(model, forcing)


def test_map_solves_the_threshold_at_most_twice(lif, lif_generic, stepper_runs, monkeypatch):
    A, theta = FORTY_SPIKES.A, lif_generic.theta
    # a generic map integrates once per stored orbit: the reset orbit when it
    # is built, each other orbit when a lookup first needs it; its maps,
    # spike counts and edge probes then start no run beyond those orbits
    smap = StrobeMap(lif_generic, FORTY_SPIKES)
    assert stepper_runs == [(A, 0.0), (0.0, 0.0)]
    sigma = smap.boundary().sigma
    assert smap.apply(sigma)[1] == 40
    assert smap.spike_count(math.nextafter(sigma, 0.0)) == 39
    for x0 in np.linspace(0.0, 0.99, 12):
        smap.apply(x0)
    assert len(set(stepper_runs)) == len(stepper_runs)
    assert set(stepper_runs) <= {(A, 0.0), (0.0, 0.0), (0.0, theta)}
    # the linear closed form solves the threshold for delta and for the first
    # spike, not once per spike, and starts no integrator run
    sigma_linear = boundary_sigma(lif, FORTY_SPIKES).sigma
    hits, hit_time = [], _LinearDrive.hit_time

    def counting_hit_time(drive, x):
        hits.append(x)
        return hit_time(drive, x)

    monkeypatch.setattr(_LinearDrive, "hit_time", counting_hit_time)
    stepper_runs.clear()
    assert strobe(lif, FORTY_SPIKES, sigma_linear).spikes == 40
    assert hits == [0.0, sigma_linear]
    assert boundary_sigma(lif, FORTY_SPIKES).sigma == sigma_linear
    assert stepper_runs == []


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


def test_generic_attractor_solves_the_reset_hit_time_once(lif_generic, stepper_runs):
    # seeded off 0.0, so the maps start from states the old per-map solves
    # would each have integrated from
    orbit = attractor(lif_generic, Forcing(**PULSED), OrbitOptions(seed=0.5))
    assert orbit.converged and orbit.period_p == 8
    # one run per stored orbit: the reset orbit (its hit time is delta) and
    # the two orbits of drive 0; the maps, the boundary's guess and edge
    # probes and the margin all read them
    A, theta = PULSED["A"], lif_generic.theta
    assert sorted(stepper_runs) == sorted([(A, 0.0), (0.0, 0.0), (0.0, theta)])


def test_generic_attractor_evaluates_the_field_within_budget(counted_generic):
    model, evaluations = counted_generic
    orbit = attractor(model, Forcing(**PULSED))
    assert orbit.converged and (orbit.period_p, orbit.eta) == (8, Fraction(5, 8))
    # about 1,500 with stored orbits; about 21,500 with three runs per map
    assert len(evaluations) <= 4_300


def test_generic_attractor_just_above_the_critical_dose_stops_at_the_step_cap(counted_generic):
    # the rest point lies about 6e-12 above theta, below what rtol resolves, so
    # the reset run settles under theta on its way to a horizon of about 3e11
    model, evaluations = counted_generic
    with pytest.raises(IntegrationError, match=f"more than {MAX_STEPS} steps"):
        attractor(model, Forcing(A=0.3 * (1.0 + 1e-11), T=2.0, d=0.5))
    # f(theta) for the horizon, then one capped run
    assert len(evaluations) <= 1 + 2 + 6 * MAX_STEPS


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _strobe_from_flows(model, forcing, x0, spike_cap):
    """The map as two flows around a spike loop, spike k at ``t1 + (k-1)*delta``.

    t1 and delta are the hit times of time_to_threshold from x0 and from 0.
    """
    theta = model.theta
    if not 0.0 <= x0 < theta:
        raise ValueError(f"x0 = {x0} outside the map domain [0, {theta})")
    pulse = forcing.pulse_width
    times = []
    spikes, elapsed = 0, 0.0
    t1 = time_to_threshold(model, forcing.A, x0)
    if not (t1 is None or t1 > pulse):
        delta = time_to_threshold(model, forcing.A, 0.0)
        t = t1
        while True:
            spikes += 1
            times.append(t)
            if spikes > spike_cap:
                raise SpikeRunawayError(f"more than {spike_cap} spikes")
            after = t1 + spikes * delta
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
    except (ValueError, SpikeRunawayError, IntegrationError) as exc:
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


@st.composite
def _generic_cases(draw):
    """A linear field, a forcing and a start state: anywhere, 0.0, or a few ulps from a rest point."""
    a = draw(st.floats(-3.0, -0.05))
    theta = draw(st.floats(0.3, 4.0))
    model = LinearModel(a=a, b=-a * theta * draw(st.floats(0.02, 0.98)), theta=theta)
    start = draw(st.sampled_from(["anywhere", "zero", "rest of A", "rest of 0"]))
    # A / Q_c: the rest point of A lies in the map domain only up to 1
    ratio = st.floats(0.0, 1.0) if start == "rest of A" else st.floats(0.0, 6.0)
    A = critical_dose(model) * draw(st.one_of(ratio, st.sampled_from([0.0, 1.0])))
    forcing = Forcing(A=A, T=draw(st.floats(0.05, 100.0)), d=draw(st.floats(0.05, 0.95)))
    if start == "anywhere":
        x0 = draw(st.floats(0.0, 1.0, exclude_max=True)) * theta
    elif start == "zero":
        x0 = 0.0
    else:
        x0 = model.equilibrium(A if start == "rest of A" else 0.0)
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            x0 = math.nextafter(x0, math.copysign(math.inf, ulps))
    return model, forcing, min(x0, math.nextafter(theta, 0.0))


def _spikes_near_the_pulse_end(model, forcing, x0):
    """Whether the closed-form spike train from x0 has a spike within 1e-7 of the pulse end."""
    t = time_to_threshold(model, forcing.A, x0)
    if t is None:
        return False
    pulse, delta = forcing.pulse_width, time_to_threshold(model, forcing.A, 0.0)
    k = max(round((pulse - t) / delta), 0)
    return abs(t + k * delta - pulse) < 1e-7 * max(1.0, pulse)


@settings(max_examples=300, deadline=None)
@given(case=_generic_cases())
# a pulse and a rest long enough for the pulse-end state and the image to
# settle within a few ulps of each rest point
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), Forcing(A=0.25, T=200.0, d=0.5), 0.0))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), Forcing(A=0.0, T=1.0, d=0.5), 0.4))
@example(case=(LinearModel(a=-0.5, b=0.2, theta=1.0), Forcing(**PULSED), 0.0))
def test_generic_map_agrees_with_the_closed_form(case):
    model, forcing, x0 = case
    assume(not _spikes_near_the_pulse_end(model, forcing, x0))  # away from sigma
    evaluations = []

    def f(x):
        evaluations.append(None)
        return model.f(x)

    generic = GenericModel(f=f, f_deriv=model.f_deriv, theta=model.theta)
    image, spikes = StrobeMap(generic, forcing).apply(x0)
    expected_image, expected_spikes = StrobeMap(model, forcing).apply(x0)
    assert spikes == expected_spikes
    assert abs(image - expected_image) < 1e-8
    # four orbits at most, each stopped at the threshold or at rest; about
    # 4,700 evaluations at most over 3,000 samples of these cases
    assert len(evaluations) <= 10_000


def test_linear_field_without_decay_keeps_the_errors_of_the_flows():
    # a = 0 breaks the standing hypotheses: the map refuses it before solving
    # delta, while flow and time_to_threshold keep their own outcomes
    model = LinearModel(a=0.0, b=-0.5, theta=1.0)
    forcing = Forcing(A=0.2, T=1.0, d=0.5)  # the threshold is unreachable
    for run in (
        lambda: StrobeMap(model, forcing),
        lambda: boundary_sigma(model, forcing),
        lambda: strobe(model, forcing, 0.5),
    ):
        with pytest.raises(DomainError, match=_refused(0.0)):
            run()
    assert time_to_threshold(model, forcing.A, 0.0) is None
    with pytest.raises(ZeroDivisionError):  # the closed form's equilibrium -b/a
        flow(model, forcing.A, 0.5, 0.5)


@pytest.mark.parametrize("x0", [0.0, 0.3, 0.5])
def test_linear_map_past_a_repelling_rest_point_spikes_once(x0):
    # a > 0: the reset state 0 lies below the repelling rest point 0.385 of
    # drive 1.932, so it never reaches theta and delta is None; a state past
    # that rest point would spike once.  The map refuses the field, while the
    # public hit time keeps telling the two apart
    model, forcing = LinearModel(a=1.188, b=-2.389), Forcing(A=1.932, T=4.0, d=0.5)
    for run in (lambda: StrobeMap(model, forcing), lambda: strobe(model, forcing, x0)):
        with pytest.raises(DomainError, match=_refused(1.188)):
            run()
    assert time_to_threshold(model, forcing.A, 0.0) is None
    t = time_to_threshold(model, forcing.A, x0)
    if x0 < model.equilibrium(forcing.A):
        assert t is None
    else:
        assert 0.0 < t < forcing.pulse_width


_MAP_ENTRIES = {
    "StrobeMap": lambda m, f: StrobeMap(m, f),
    "strobe": lambda m, f: strobe(m, f, 0.5),
    "boundary_sigma": boundary_sigma,
    "fixed_point": lambda m, f: fixed_point(m, f, 1),
    "attractor": attractor,
    # two workers: the grid runs its first node in process, before any pool
    "sweep_T": lambda m, f: sweep_T(m, WidthCorrection(A=f.A, d=f.d), (1.0, 2.0), 3, workers=2),
    "scan_plane": lambda m, f: scan_plane(m, f.T, [0.2, 0.5], [0.5, 1.0], workers=2),
}


@pytest.mark.parametrize("a", [0.0, -0.0, 1.188])
@pytest.mark.parametrize("entry", _MAP_ENTRIES)
def test_every_entry_that_builds_a_map_refuses_a_linear_field_without_decay(a, entry, no_pool):
    model, forcing = LinearModel(a=a, b=0.2), Forcing(A=1.0, T=1.0, d=0.5)
    with pytest.raises(DomainError, match=_refused(a)):
        _MAP_ENTRIES[entry](model, forcing)


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
    assert a.log_multiplier < 0.0
    assert (a.period_p, a.spikes_n, a.eta) == (b.period_p, b.spikes_n, b.eta)
    assert a.word == b.word  # canonical rotation makes them directly comparable
    assert a.rate == pytest.approx(b.rate, abs=1e-6)


def test_attractor_computes_the_boundary_once(lif, monkeypatch):
    forcing = Forcing(A=10 / 3, T=1.6, d=0.2)
    delta = time_to_threshold(lif, forcing.A, 0.0)
    calls = []
    original = StrobeMap._find_edge  # the edge search behind boundary()

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(StrobeMap, "_find_edge", counting)
    orbit = attractor(lif, forcing)
    assert len(calls) == 1
    p, n = orbit.period_p, orbit.spikes_n
    assert orbit.log_multiplier == lif.a * (p * forcing.T - n * delta) < 0.0


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
        dict(transient=10.0),
        dict(max_period=2.5),
        dict(spike_cap=2.5),
    ],
)
def test_orbit_options_reject_out_of_domain_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        OrbitOptions(**bad)


# the last doubling anchor before a transient of 4000 maps (2047) lies off
# the cycle and the next one (4095) comes after it, so only the anchor placed
# at the transient sees the cycle return
ANCHOR_AT_TRANSIENT = Forcing(A=2.6741647000591087, T=0.07739807593168964, d=0.8272023821560168)


def test_attractor_anchors_once_more_when_the_transient_is_spent(lif):
    orbit = attractor(lif, ANCHOR_AT_TRANSIENT, OrbitOptions(transient=4000, max_period=20))
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


def _branch_map(smap):
    """One step of a linear ``a < 0`` map's branch map, rebuilt from its boundary and the flows.

    Left of sigma, or everywhere without a boundary, branch k (n - 1, or
    ``spike_count(0.0)``) maps x to ``c + s*x``, c the image of 0 with its
    k-th spike at ``k*delta``; at or right of sigma branch n maps x to ``z +
    s*(x - sigma)``, z the image of sigma with its n-th spike at ``t1 +
    (n-1)*delta``.  The slope of branch k is ``exp(a*(T - k*delta))``.  A
    state outside [0, theta) raises the map's ValueError.
    """
    model, forcing = smap.model, smap.forcing
    theta, pulse = model.theta, forcing.pulse_width
    xeq = model.equilibrium(forcing.A)

    def from_reset(s):  # the reset trajectory over s, backwards when s < 0, then the rest
        y = 0.0 if s == 0.0 else 0.0 + (0.0 - xeq) * math.expm1(model.a * s)
        return flow(model, 0.0, forcing.T - pulse, y)

    def branch(k):
        k_delta = k * smap.delta if k else 0.0
        return from_reset(pulse - k_delta), math.exp(model.a * (forcing.T - k_delta))

    info = smap.boundary()
    if info is None:
        sigma, n = math.inf, smap.spike_count(0.0) + 1
    else:
        sigma, n = info.sigma, info.n
        last = time_to_threshold(model, forcing.A, sigma) + (n - 1) * smap.delta
        z, s_right = from_reset(pulse - last), branch(n)[1]
    c, s_left = branch(n - 1)

    def step(x):
        if not 0.0 <= x < theta:
            raise ValueError(f"x0 = {x} outside the map domain [0, {theta})")
        if x >= sigma:
            return z + s_right * (x - sigma), n
        return c + s_left * x, n - 1

    return step


def _attractor_map_by_map(model, forcing, opts):
    """``attractor`` with its detector stepped one step of the branch map per map."""
    tol = opts.state_tol
    smap = StrobeMap(model, forcing, opts.spike_cap)
    states, counts = [opts.seed], []
    anchor, power, lam, period = 0, 1, 0, 0
    step = _branch_map(smap)
    while len(counts) < opts.transient + 2 * opts.max_period:
        image, spikes = step(states[-1])
        states.append(image)
        counts.append(spikes)
        i = len(counts)
        if lam:
            if i == anchor + 2 * lam:
                if _repeats(states, counts, anchor, lam, tol):
                    period = lam
                    break
                anchor, power, lam = i, 1, 0
        elif abs(states[i] - states[anchor]) < tol:
            lam = i - anchor
        elif i == opts.transient or (i < opts.transient and i - anchor == power):
            anchor, power = i, 2 * power
    converged = 0 < period <= opts.max_period
    if converged:
        p, start = period, len(counts) - period
    else:
        start = len(counts) - 2 * opts.max_period
        lengths = range(1, min(len(counts) - start, opts.max_period) + 1)
        p = min(lengths, key=lambda q: abs(states[start + q] - states[start]))
    points = tuple(states[start : start + p])
    n_spikes = sum(counts[start : start + p])
    info = smap.boundary()
    word = "L" * p if info is None else "".join("R" if x >= info.sigma else "L" for x in points)
    word = _least_rotation(word)
    return OrbitSummary(
        period_p=p,
        spikes_n=n_spikes,
        word=word,
        eta=Fraction(n_spikes, p),
        rho=Fraction(word.count("R"), p),
        rate=n_spikes / (p * forcing.T),
        points=points,
        converged=converged,
        # the slopes exp(a*(T - k*delta)) of the branches along the cycle
        log_multiplier=model.a * (p * forcing.T - (n_spikes * smap.delta if n_spikes else 0.0)),
        single_branch=info is None,
    )


def _summary_bits(fn):
    """Every field of an OrbitSummary, floats as bit patterns, or the error's type and message."""
    try:
        orbit = fn()
    except (ValueError, SpikeRunawayError, IntegrationError) as exc:
        return type(exc), str(exc)
    return tuple(
        tuple(map(_bits, v)) if isinstance(v, tuple) else _bits(v) if isinstance(v, float) else v
        for v in tuple(orbit)
    )


@st.composite
def _attractor_cases(draw):
    """A linear field, a forcing of it and orbit options, some of them raising."""
    a = draw(st.floats(-3.0, -0.05))
    theta = draw(st.floats(0.3, 4.0))
    model = LinearModel(a=a, b=-a * theta * draw(st.floats(0.02, 0.98)), theta=theta)
    A = critical_dose(model)
    if draw(st.booleans()):
        A *= draw(st.floats(0.0, 12.0))
    else:  # within ulps of the critical dose, where the rest point can round onto theta
        ulps = draw(st.integers(-2, 6))
        for _ in range(abs(ulps)):
            A = math.nextafter(A, math.copysign(math.inf, ulps))
    forcing = Forcing(A=A, T=draw(st.floats(1e-3, 100.0)), d=draw(st.floats(0.001, 0.999)))
    seed = draw(st.sampled_from([0.0, math.nextafter(theta, 0.0), None]))
    if seed is None:
        seed = min(draw(st.floats(0.0, 1.0, exclude_max=True)) * theta, math.nextafter(theta, 0.0))
    opts = OrbitOptions(
        transient=draw(st.sampled_from([0, 1, 300, 10_000])),
        max_period=draw(st.sampled_from([1, 2, 20, 10_000])),
        seed=seed,
        state_tol=draw(st.sampled_from([STATE_TOL, 1e-6])),
        spike_cap=draw(st.sampled_from([SPIKE_CAP, 1, 2, 5])),
    )
    return model, forcing, opts


@settings(max_examples=200, deadline=None)
@given(case=_attractor_cases())
@example(case=(LinearModel(a=-0.5, b=0.2), UNCONVERGED, OrbitOptions()))
@example(case=(LinearModel(a=-0.5, b=0.2), UNCONVERGED, OrbitOptions(transient=0, max_period=1)))
@example(
    case=(LinearModel(a=-0.5, b=0.2), ANCHOR_AT_TRANSIENT, OrbitOptions(transient=4000, max_period=20))
)
def test_attractor_equals_its_detector_stepped_map_by_map(case):
    model, forcing, opts = case
    expected = _summary_bits(lambda: _attractor_map_by_map(model, forcing, opts))
    assert _summary_bits(lambda: attractor(model, forcing, opts)) == expected


@settings(max_examples=200, deadline=None)
@given(case=_attractor_cases())
@example(case=(LinearModel(a=-0.5, b=0.2), ANCHOR_AT_TRANSIENT, OrbitOptions(transient=4000)))
def test_a_converged_branch_cycle_is_a_cycle_of_the_map(case):
    # apply, the map of the spike times, steps each point of the branch cycle
    # to the next with the branch's count, within 10*state_tol plus the
    # rounding both maps may commit (oracle.branch_error_bound)
    model, forcing, opts = case
    try:
        orbit = attractor(model, forcing, opts)
    except (ValueError, SpikeRunawayError, IntegrationError):
        assume(False)
    assume(orbit.converged)
    smap = StrobeMap(model, forcing, opts.spike_cap)
    info = smap.boundary()
    counts = []
    for j, x in enumerate(orbit.points):
        if info is None:
            count = smap.spike_count(0.0)
        else:
            # the band of mixed counts around sigma is a few thousand ulps wide
            assume(abs(_ordinal(x) - _ordinal(info.sigma)) > 2**16)
            count = info.n if x >= info.sigma else info.n - 1
        counts.append(count)
        try:
            image, spikes = smap.apply(x)
        except IntegrationError:  # x meets a rest point that rounds onto theta
            assume(False)
        bound = oracle.branch_error_bound(
            model.a, model.b, model.theta, forcing.A, forcing.T, smap.delta, count
        )
        assert spikes == count
        following = orbit.points[(j + 1) % orbit.period_p]
        assert abs(image - following) < 10.0 * opts.state_tol + 2.0 * bound
    # log S is the sum of the branch log slopes a*(T - k*delta) along the cycle
    terms = [model.a * (forcing.T - (k * smap.delta if k else 0.0)) for k in counts]
    scale = abs(model.a) * (orbit.period_p * forcing.T + orbit.spikes_n * (smap.delta or 0.0))
    assert sum(counts) == orbit.spikes_n
    assert abs(orbit.log_multiplier - math.fsum(terms)) <= 8.0 * 2.0**-53 * scale


def _appended(run, x0):
    """The states (as bit patterns) and counts ``run(states, counts)`` appends from x0, and its error."""
    states, counts = [x0], []
    try:
        run(states, counts)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return list(map(_bits, states)), counts, (type(exc), str(exc))
    return list(map(_bits, states)), counts, None


_ITERATE_CASES = dict(
    forcing=st.builds(
        Forcing, A=st.floats(0.0, 20.0), T=st.floats(1e-3, 100.0), d=st.floats(0.001, 0.999)
    ),
    share=st.floats(-0.25, 1.25),
    stop=st.integers(0, 60),
    tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.2]),
    spike_cap=st.sampled_from([SPIKE_CAP, 1, 3]),
)


def _iterated_and_stepped(model, forcing, share, stop, tol, spike_cap, step_of):
    """What ``iterate`` appends from x0, and what ``step_of(smap)`` appends stepped map by map."""
    try:
        smap = StrobeMap(model, forcing, spike_cap)
    except IntegrationError:  # a rest point that rounds onto theta, or the step cap
        assume(False)
    x0 = share * model.theta

    def stepped(states, counts):
        if len(counts) < stop:
            step = step_of(smap)
        while len(counts) < stop:
            image, spikes = step(states[-1])
            states.append(image)
            counts.append(spikes)
            if abs(image - x0) < tol:
                return

    iterated = _appended(lambda states, counts: smap.iterate(states, counts, stop, x0, tol), x0)
    return iterated, _appended(stepped, x0)


_GENERIC_FIELDS = (
    GenericModel(f=linear_f, f_deriv=linear_f_deriv, theta=1.0),
    GenericModel(f=cubic_f, f_deriv=cubic_f_deriv, theta=1.0),
)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(_GENERIC_FIELDS), **_ITERATE_CASES)
def test_iterate_is_apply_map_by_map(model, forcing, share, stop, tol, spike_cap):
    # a generic map, the wrapped LIF or the cubic field, iterates a loop over apply
    iterated, applied = _iterated_and_stepped(
        model, forcing, share, stop, tol, spike_cap, lambda smap: smap.apply
    )
    assert iterated == applied


@settings(max_examples=150, deadline=None)
@given(a=st.floats(-3.0, -0.05), b=st.floats(-3.0, 3.0), **_ITERATE_CASES)
def test_iterate_steps_the_branch_map(a, b, forcing, share, stop, tol, spike_cap):
    # a < 0: the closed form's loop steps the branch map, built before the first map
    case = (LinearModel(a=a, b=b), forcing, share, stop, tol, spike_cap)
    iterated, stepped = _iterated_and_stepped(*case, _branch_map)
    assert iterated == stepped


def _flows_twin(smap):
    """The same map on the generic path, its drives the public flows (``oracle.flows_map``)."""
    return oracle.flows_map(smap.model, smap.forcing, smap.spike_cap)


def _map_outcomes(smap, x0, stop):
    """Bit patterns of apply with spike times, ``stop`` applies in a row, spike_count and
    boundary, or the errors."""

    def applied():
        times = []
        image, spikes = smap.apply(x0, times)
        return _bits(image), spikes, list(map(_bits, times))

    def applied_in_a_row(states, counts):
        while len(counts) < stop:
            image, spikes = smap.apply(states[-1])
            states.append(image)
            counts.append(spikes)

    return (
        _returned_or_raised(applied),
        _appended(applied_in_a_row, x0),
        _returned_or_raised(lambda: smap.spike_count(x0)),
        _returned_or_raised(lambda: _edge(smap.boundary())),
    )


@st.composite
def _closed_form_cases(draw):
    """A linear map with ``a < 0`` and its spike cap: a boundary case or a random forcing."""
    if draw(st.booleans()):
        model, forcing, cap = draw(_boundary_cases())
        assume(isinstance(model, LinearModel) and model.a < 0.0)
        return model, forcing, cap
    a, theta = draw(st.floats(-3.0, -0.05)), draw(st.floats(0.3, 4.0))
    model = LinearModel(a=a, b=-a * theta * draw(st.floats(0.02, 0.98)), theta=theta)
    forcing = Forcing(
        A=draw(st.floats(0.0, 40.0)), T=draw(st.floats(1e-3, 200.0)), d=draw(st.floats(0.001, 0.999))
    )
    return model, forcing, draw(st.sampled_from([SPIKE_CAP, 1, 3, 40]))


@settings(max_examples=300, deadline=None)
@given(
    case=_closed_form_cases(),
    share=st.one_of(st.floats(-0.25, 1.25), st.just(math.nan)),
    stop=st.integers(0, 30),
)
@example(case=(LinearModel(a=-0.5, b=0.2), FORTY_SPIKES, 39), share=0.5, stop=5)
@example(case=(LinearModel(a=-0.5, b=0.2), FORTY_SPIKES, SPIKE_CAP), share=0.99, stop=30)
def test_closed_form_equals_its_flows_twin(case, share, stop):
    # the closed form's apply against the map's general path, which applies
    # time_to_threshold and flow, for one map and several in a row; both run
    # the same closed form, which test_model checks against its spelled-out
    # expressions
    model, forcing, cap = case
    try:
        smap = StrobeMap(model, forcing, cap)
    except IntegrationError:  # a rest point that rounds onto theta: delta raises
        assume(False)
    twin = _flows_twin(smap)
    assert (smap._generic, twin._generic) == (False, True)
    x0 = share * model.theta
    found = _map_outcomes(smap, x0, stop)
    assert found == _map_outcomes(twin, x0, stop)


@pytest.mark.parametrize("x0", [math.nan, 1.0, 1.5, math.inf, -1e-300])
@pytest.mark.parametrize("kind", ["linear", "generic"])
def test_spike_count_rejects_what_apply_rejects(lif, lif_generic, kind, x0):
    model = lif if kind == "linear" else lif_generic
    smap = StrobeMap(model, Forcing(A=10 / 3, T=1.6, d=0.2))
    with pytest.raises(ValueError, match="outside the map domain") as applied:
        smap.apply(x0)
    with pytest.raises(ValueError, match="outside the map domain") as counted:
        smap.spike_count(x0)
    assert type(counted.value) is type(applied.value) is ValueError
    assert str(counted.value) == str(applied.value)


def test_an_overflowing_delta_means_no_second_spike():
    # a decay of 1e-307 and a drive 1e-15 above the critical dose: the reset
    # state creeps up to theta so slowly that its hit time overflows.  delta
    # is inf, so a state spikes at most once, and the edge lies where the hit
    # time from it is the pulse end
    model = LinearModel(a=-1e-307, b=5e-308)
    A = critical_dose(model) * (1.0 + 1e-15)
    forcing = Forcing(A=A, T=1e308, d=0.5)
    smap = StrobeMap(model, forcing, spike_cap=1)  # a count past one spike raises
    assert smap.delta == math.inf == time_to_threshold(model, A, 0.0)
    assert smap.boundary() == BoundaryInfo(sigma=0.9999999999999019, n=1)
    assert smap.spike_count(0.9999999999999019) == 1
    assert smap.spike_count(math.nextafter(0.9999999999999019, 0.0)) == 0
    # the one-spike branch has no slope, so the branch map refuses the attractor
    with pytest.raises(DomainError, match="delta is None or infinite"):
        attractor(model, forcing)


def test_best_candidate_takes_the_first_of_equally_close_returns():
    window = [0.5, 0.75, 0.25, 0.75, 0.25, 0.5]
    assert _best_candidate(window, 4) == 1  # four returns 0.25 away
    assert _best_candidate(window, 5) == 5
    assert _best_candidate(window[:5], 10) == 1  # lengths end with the window
    assert _best_candidate([0.5, 1.0, 0.25, 0.75, 0.5], 3) == 2


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


@pytest.mark.parametrize(
    "model, forcing, zero_spacing",
    [
        # a subnormal slope: the reset hit time rounds to 0.0, so no count stops
        (LinearModel(a=-2.2250738585e-313, b=0.0), Forcing(A=1.0, T=1.0, d=0.5), True),
        # about 6.6e8 spikes per map
        (LinearModel(a=-0.5, b=0.2), Forcing(A=10 / 3, T=1e9, d=0.2), False),
    ],
)
def test_a_zero_spacing_or_a_count_past_the_cap_raises_the_runaway(model, forcing, zero_spacing):
    smap = StrobeMap(model, forcing)
    assert (smap.delta == 0.0) is zero_spacing
    message = f"more than {SPIKE_CAP} spikes in one period (A={forcing.A}, T={forcing.T})"
    for run in (
        lambda: strobe(model, forcing, 0.0),
        lambda: smap.spike_count(0.0),
        lambda: smap.iterate([0.0], [], 3, 0.0, 0.0),
        lambda: boundary_sigma(model, forcing),
        lambda: attractor(model, forcing),
    ):
        assert _returned_or_raised(run) == (SpikeRunawayError, message)


def test_a_spike_cap_past_the_largest_double_bounds_nothing_more(lif):
    cap = 10**400
    forcing = Forcing(A=10 / 3, T=8.0, d=0.5)
    assert strobe(lif, forcing, 0.9, spike_cap=cap) == strobe(lif, forcing, 0.9)
    zero = StrobeMap(LinearModel(a=-2.2250738585e-313, b=0.0), Forcing(A=1.0, T=1.0, d=0.5), cap)
    with pytest.raises(SpikeRunawayError, match=f"more than {cap} spikes"):
        zero.spike_count(0.0)


class _NaNHits(oracle._Flows):
    def hit_time(self, x):
        return math.nan


def test_a_nan_hit_time_raises_the_runaway(lif):
    # no comparison stops a NaN spike time, so the count is endless
    forcing = Forcing(A=10 / 3, T=1.6, d=0.2)
    closed = StrobeMap(lif, forcing, spike_cap=3)
    closed._on._xeq = math.nan  # the closed form's hit time from any state is NaN
    general = oracle.flows_map(lif, forcing, 3, on=_NaNHits)
    message = (SpikeRunawayError, f"more than 3 spikes in one period (A={forcing.A}, T=1.6)")
    for smap in (closed, general):
        for run in (
            lambda: smap.apply(0.5),
            lambda: smap.apply(0.5, []),
            lambda: smap.spike_count(0.5),
            lambda: smap.iterate([0.5], [], 2, 0.0, 0.0),
            *(lambda n=n: smap._at_least(n)(0.5) for n in (1, 2, 3)),
        ):
            assert _returned_or_raised(run) == message


@pytest.mark.parametrize("cap, error", [(0, ">= 1"), (-1, ">= 1"), (2.5, "an integer")])
@pytest.mark.parametrize("build", [StrobeMap, strobe, boundary_sigma, fixed_point])
def test_spike_cap_is_a_count_of_at_least_one(lif, build, cap, error):
    forcing = Forcing(A=10 / 3, T=8.0, d=0.5)
    args = {strobe: (0.0,), fixed_point: (1,)}.get(build, ())
    with pytest.raises(DomainError, match=f"spike_cap must be {error}"):
        build(lif, forcing, *args, spike_cap=cap)


# the reset hit time of the LIF under A = 10/3
LIF_DELTA = 0.3051591751904342


@st.composite
def _pulse_ends_near_a_spike(draw):
    """A LIF map time-scaled to delta in [1e-3, 10], a state, and spike k ulps from the pulse end."""
    scale = LIF_DELTA / draw(st.floats(1e-3, 10.0))
    model, A = LinearModel(a=-0.5 * scale, b=0.2 * scale), 10 / 3 * scale
    delta = time_to_threshold(model, A, 0.0)
    x0 = draw(st.floats(0.0, 1.0, exclude_max=True))
    t1 = time_to_threshold(model, A, x0)
    k = draw(st.integers(1, 10**5))
    pulse = draw(st.sampled_from([t1, 0.0])) + (k - 1) * delta
    for _ in range(draw(st.integers(0, 4))):
        pulse = math.nextafter(pulse, draw(st.sampled_from([0.0, math.inf])))
    # d = 0.5 makes the pulse d*T exactly this double
    return model, Forcing(A=A, T=2.0 * max(pulse, 1e-300), d=0.5), x0


def _count_by_the_rule(t1, delta, pulse):
    """Spikes by a loop over the rule: spike n + 1 comes at t1 + n*delta."""
    n = 0
    while not t1 + n * delta > pulse:
        n += 1
    return n


@settings(max_examples=100, deadline=None)
@given(case=_pulse_ends_near_a_spike(), below=st.booleans())
def test_the_spike_count_is_the_last_spike_time_within_the_pulse(case, below):
    model, forcing, x0 = case
    t1 = time_to_threshold(model, forcing.A, x0)
    delta = time_to_threshold(model, forcing.A, 0.0)
    n = _count_by_the_rule(t1, delta, forcing.pulse_width)
    cap = max(n - below, 1)
    smap = StrobeMap(model, forcing, cap)
    if n > cap:
        for run in (lambda: smap.apply(x0), lambda: smap.spike_count(x0)):
            with pytest.raises(SpikeRunawayError):
                run()
        return
    times = []
    assert smap.apply(x0, times)[1] == smap.spike_count(x0) == n == len(times)
    assert times == [t1 + k * delta if k else t1 for k in range(n)]
    if n:
        assert smap._at_least(n)(x0)


def test_a_slow_boundary_counts_the_spikes_of_the_last_double_below_theta(lif):
    # T = 1e5: 65,540 spikes per map
    forcing = Forcing(A=10 / 3, T=1e5, d=0.2)
    top = math.nextafter(lif.theta, 0.0)
    t1, delta = time_to_threshold(lif, forcing.A, top), time_to_threshold(lif, forcing.A, 0.0)
    n = _count_by_the_rule(t1, delta, forcing.pulse_width)
    info = StrobeMap(lif, forcing).boundary()
    assert info.n == n == 65_540
    assert strobe(lif, forcing, info.sigma).spikes == n


def test_generic_strobe_matches_linear(lif, lif_generic):
    forcing = Forcing(**PULSED)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.uniform(0.0, 0.999)
        lin = strobe(lif, forcing, x0)
        gen = strobe(lif_generic, forcing, x0)
        assert gen.spikes == lin.spikes
        assert gen.image == pytest.approx(lin.image, abs=1e-8)
