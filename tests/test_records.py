"""The contract of the package's result and parameter records."""

import enum
import math
import pickle
import re
from fractions import Fraction

import pytest

import ifstrobe
from ifstrobe import (
    AddingCheck,
    AddingReport,
    AmplitudeCorrection,
    BifPoint,
    BoundaryInfo,
    DomainError,
    Forcing,
    GenericModel,
    HypothesisReport,
    LinearModel,
    OrbitOptions,
    OrbitSummary,
    PlaneScan,
    RateLimits,
    Region,
    RegionClass,
    Side,
    StaircaseSample,
    StrobeMap,
    StrobeResult,
    WidthCorrection,
    Window,
)
from ifstrobe.model import HypothesisFailure

WINDOW = Window(
    eta=Fraction(1, 2), t_lo=1.0, t_hi=2.0, word="LR", rho=Fraction(1, 2), period_p=2, count=3
)
WINDOW_REPR = (
    "Window(eta=Fraction(1, 2), t_lo=1.0, t_hi=2.0, word='LR', rho=Fraction(1, 2), "
    "period_p=2, count=3)"
)

# per record type: the fields given by keyword, the defaults of the others, and the repr
RECORDS = {
    LinearModel: (
        {"a": -0.5, "b": 0.2},
        {"theta": 1.0},
        "LinearModel(a=-0.5, b=0.2, theta=1.0)",
    ),
    GenericModel: (
        {"f": math.cos, "f_deriv": math.sin},
        {"theta": 1.0},
        "GenericModel(f=<built-in function cos>, f_deriv=<built-in function sin>, theta=1.0)",
    ),
    Forcing: ({"A": 1.0, "T": 2.0, "d": 0.5}, {}, "Forcing(A=1.0, T=2.0, d=0.5)"),
    RegionClass: (
        {"kind": Region.NON_SPIKING},
        {"on_amplitude_boundary": False, "on_dose_boundary": False},
        "RegionClass(kind='NonSpiking', on_amplitude_boundary=False, on_dose_boundary=False)",
    ),
    HypothesisFailure: (
        {"name": "monotone_decreasing", "witness": 0.5, "detail": "f'(0.5) = 1 >= 0"},
        {},
        "HypothesisFailure(name='monotone_decreasing', witness=0.5, detail=\"f'(0.5) = 1 >= 0\")",
    ),
    HypothesisReport: (
        {"passed": True},
        {"failures": ()},
        "HypothesisReport(passed=True, failures=())",
    ),
    StrobeResult: (
        {"image": 0.25, "spikes": 1, "spike_times": (0.5,)},
        {},
        "StrobeResult(image=0.25, spikes=1, spike_times=(0.5,))",
    ),
    BoundaryInfo: ({"sigma": 0.3, "n": 2}, {}, "BoundaryInfo(sigma=0.3, n=2)"),
    OrbitOptions: (
        {},
        {
            "transient": 10_000,
            "max_period": 10_000,
            "seed": 0.0,
            "state_tol": 1e-9,
            "spike_cap": 10**6,
        },
        "OrbitOptions(transient=10000, max_period=10000, seed=0.0, state_tol=1e-09, "
        "spike_cap=1000000)",
    ),
    OrbitSummary: (
        {
            "period_p": 1,
            "spikes_n": 1,
            "word": "L",
            "eta": Fraction(1),
            "rho": Fraction(0),
            "rate": 0.625,
            "points": (0.1,),
            "converged": True,
            "log_multiplier": -0.5,
            "single_branch": False,
        },
        {},
        "OrbitSummary(period_p=1, spikes_n=1, word='L', eta=Fraction(1, 1), rho=Fraction(0, 1), "
        "rate=0.625, points=(0.1,), converged=True, log_multiplier=-0.5, single_branch=False)",
    ),
    BifPoint: (
        {"n": 1, "side": Side.R, "d": 0.2, "T": 1.5, "A": 3.0, "residual": 0.0, "xbar": 0.1,
         "t_first": 0.25},
        {"at_resolution": False},
        "BifPoint(n=1, side=<Side.R: 'R'>, d=0.2, T=1.5, A=3.0, residual=0.0, xbar=0.1, "
        "t_first=0.25, at_resolution=False)",
    ),
    RateLimits: (
        {"r_infinity": 0.5, "r_zero": 0.0, "T0": None, "T1R": 1.0, "T1L": 2.0, "r_max": 0.75,
         "r_max_at": 1.0, "r_max_spikes": 1, "r_min": 0.0, "r_min_at": None,
         "r_min_is_infimum": True},
        {},
        "RateLimits(r_infinity=0.5, r_zero=0.0, T0=None, T1R=1.0, T1L=2.0, r_max=0.75, "
        "r_max_at=1.0, r_max_spikes=1, r_min=0.0, r_min_at=None, r_min_is_infimum=True)",
    ),
    WidthCorrection: ({"A": 1.0, "d": 0.5}, {}, "WidthCorrection(A=1.0, d=0.5)"),
    AmplitudeCorrection: ({"delta": 1.0, "Q": 0.5}, {}, "AmplitudeCorrection(delta=1.0, Q=0.5)"),
    StaircaseSample: (
        {"T": 1.0, "eta": Fraction(1, 2), "rho": Fraction(1, 2), "rate": 0.5, "word": "LR",
         "period_p": 2, "converged": True, "contraction_ok": True},
        {},
        "StaircaseSample(T=1.0, eta=Fraction(1, 2), rho=Fraction(1, 2), rate=0.5, word='LR', "
        "period_p=2, converged=True, contraction_ok=True)",
    ),
    PlaneScan: (
        {"T": 1.0, "d_values": (0.5,), "invA_values": (1.0,), "nodes": ((1, 1.0, False, False),)},
        {},
        "PlaneScan(T=1.0, d_values=(0.5,), invA_values=(1.0,), nodes=((1, 1.0, False, False),))",
    ),
    Window: (
        {"eta": Fraction(1, 2), "t_lo": 1.0, "t_hi": 2.0, "word": "LR", "rho": Fraction(1, 2),
         "period_p": 2, "count": 3},
        {},
        WINDOW_REPR,
    ),
    AddingCheck: (
        {"left": WINDOW, "right": WINDOW, "mediant": Fraction(1, 2), "expected_word": "LR",
         "found": None, "status": "unresolved"},
        {"detail": ""},
        f"AddingCheck(left={WINDOW_REPR}, right={WINDOW_REPR}, mediant=Fraction(1, 2), "
        "expected_word='LR', found=None, status='unresolved', detail='')",
    ),
    AddingReport: (
        {"windows": (WINDOW,), "checks": ()},
        {},
        f"AddingReport(windows=({WINDOW_REPR},), checks=())",
    ),
}  # fmt: skip


def test_the_records_are_every_public_class_but_errors_enums_and_the_map():
    public = {getattr(ifstrobe, name) for name in ifstrobe.__all__}
    others = {Region, StrobeMap}
    classes = {
        c for c in public if isinstance(c, type) and not issubclass(c, (Exception, enum.Enum))
    }
    assert classes - others == set(RECORDS) - {HypothesisFailure}
    assert len(RECORDS) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    given, defaults, text = RECORDS[cls]
    record = cls(**given)
    for name, value in {**given, **defaults}.items():
        assert getattr(record, name) == value, name
    assert repr(record) == text
    twin = cls(**given)
    assert record == twin and hash(record) == hash(twin)
    name = next(iter({**given, **defaults}))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


THETA_RULE = "theta must be finite and strictly positive"
A_RULE = "amplitude A must be finite and >= 0"
DELTA_RULE = "pulse duration delta must be finite and > 0"
Q_RULE = "dose Q must be finite and >= 0"

# a valid record by keyword, a change to it outside the domain, and the DomainError raised
CHECKED = [
    (LinearModel, {"a": -0.5, "b": 0.2}, {"theta": 0.0}, THETA_RULE),
    (LinearModel, {"a": -0.5, "b": 0.2}, {"a": math.inf}, "a and b must be finite"),
    (LinearModel, {"a": -0.5, "b": 0.2}, {"b": math.nan}, "a and b must be finite"),
    (GenericModel, {"f": math.cos, "f_deriv": math.sin}, {"theta": math.inf}, THETA_RULE),
    (Forcing, {"A": 1.0, "T": 2.0, "d": 0.5}, {"A": -1.0}, A_RULE),
    (Forcing, {"A": 1.0, "T": 2.0, "d": 0.5}, {"T": 0.0}, "period T must be finite and > 0"),
    (Forcing, {"A": 1.0, "T": 2.0, "d": 0.5}, {"d": 1.0}, "duty cycle d must lie in the open"),
    (OrbitOptions, {}, {"transient": -1}, "transient must be >= 0, got -1"),
    (OrbitOptions, {}, {"max_period": 0}, "max_period must be >= 1, got 0"),
    (OrbitOptions, {}, {"spike_cap": 2.0}, "spike_cap must be an integer, got 2.0"),
    (OrbitOptions, {}, {"state_tol": math.nan}, "state_tol must be finite and > 0, got nan"),
    (AmplitudeCorrection, {"delta": 1.0, "Q": 0.5}, {"delta": 0.0}, DELTA_RULE),
    (AmplitudeCorrection, {"delta": 1.0, "Q": 0.5}, {"delta": -1.0}, DELTA_RULE),
    (AmplitudeCorrection, {"delta": 1.0, "Q": 0.5}, {"delta": math.nan}, DELTA_RULE),
    (AmplitudeCorrection, {"delta": 1.0, "Q": 0.5}, {"Q": math.inf}, Q_RULE),
    (AmplitudeCorrection, {"delta": 1.0, "Q": 0.5}, {"Q": -0.5}, Q_RULE),
]
CHECKED_IDS = [
    "-".join((cls.__name__, *(f"{k}={v}" for k, v in bad.items()))) for cls, _, bad, _ in CHECKED
]


@pytest.mark.parametrize("cls, given, bad, rule", CHECKED, ids=CHECKED_IDS)
def test_a_checked_record_rejects_a_field_outside_its_domain(cls, given, bad, rule):
    with pytest.raises(DomainError, match=re.escape(rule)):
        cls(**{**given, **bad})


@pytest.mark.parametrize("cls, given, bad, rule", CHECKED, ids=CHECKED_IDS)
def test_a_checked_record_checks_unpickled_and_replaced_copies(cls, given, bad, rule):
    record = cls(**given)
    # tuple.__new__ skips the check, so the pickle holds the bad values
    unchecked = tuple.__new__(cls, (bad.get(name, v) for name, v in zip(record._fields, record)))
    with pytest.raises(DomainError, match=re.escape(rule)):
        pickle.loads(pickle.dumps(unchecked))
    with pytest.raises(DomainError, match=re.escape(rule)):
        record._replace(**bad)
    with pytest.raises(DomainError, match=re.escape(rule)):
        cls._make({**record._asdict(), **bad}.values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_a_tuple_of_its_fields(cls):
    given, defaults, _ = RECORDS[cls]
    record = cls(**given)
    values = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == values and record == values and record[0] == values[0]
    assert record._replace() == record and type(record._replace()) is cls
    assert set(record._fields) == {*given, *defaults}


def test_records_of_two_types_with_equal_values_compare_equal():
    assert WidthCorrection(1, 0.5) == AmplitudeCorrection(1, 0.5)
