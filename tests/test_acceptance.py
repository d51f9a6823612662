"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines on stdout.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ifstrobe import (
    AmplitudeCorrection,
    Forcing,
    LinearModel,
    OrbitOptions,
    Region,
    Side,
    WidthCorrection,
    averaged_time_to_threshold,
    bif_A,
    bif_T,
    boundary_sigma,
    classify_region,
    critical_dose,
    fixed_point,
    flow,
    rate_limits,
    strobe,
    sweep_T,
    time_to_threshold,
    verify_adding,
)
from ifstrobe.cli import main

import oracle

LIF = LinearModel(a=-0.5, b=0.2, theta=1.0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


def test_criterion_01_critical_dose_and_region_partition():
    with criterion(1, "critical dose and three-region partition"):
        qc = critical_dose(LIF)
        assert qc == 0.3
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            A = rng.uniform(0.0, 3.0)
            d = rng.uniform(1e-6, 1.0 - 1e-6)
            got = classify_region(LIF, A, d).kind
            if A < qc:
                expected = Region.NON_SPIKING
            elif A * d > qc:
                expected = Region.PERMANENT_SPIKING
            else:
                expected = Region.CONDITIONAL_SPIKING
            assert got == expected


def test_criterion_02_published_limit_values():
    with criterion(2, "printed firing-rate limit values"):
        cases = [
            (0.2, 0.3, 0.655),
            (0.8, 1.2, 0.604),
            (0.2, 0.777, 0.244),
            (0.8, 3.111, 0.125),
        ]
        for d, invA, expected in cases:
            lim = rate_limits(LIF, 1.0 / invA, d)
            assert lim.r_infinity == pytest.approx(expected, abs=1e-3)
        dhat = averaged_time_to_threshold(LIF, 0.666)
        assert 1.0 / dhat == pytest.approx(0.58, abs=1e-2)


def test_criterion_03_asymptotic_simulation_agreement():
    with criterion(3, "sweep rates match both period limits"):
        slow_opts = OrbitOptions(transient=600_000, max_period=5_000)
        for A, d in [(10 / 3, 0.2), (1.0 / 1.2, 0.8)]:
            delta = time_to_threshold(LIF, A, 0.0)
            long_samples = sweep_T(LIF, WidthCorrection(A=A, d=d), (190.0, 200.0), 2)
            assert long_samples[-1].T == 200.0
            assert long_samples[-1].rate == pytest.approx(d / delta, rel=0.02)
            dhat = averaged_time_to_threshold(LIF, A * d)
            short_samples = sweep_T(
                LIF, WidthCorrection(A=A, d=d), (5e-4, 1e-3), 2, opts=slow_opts
            )
            assert short_samples[-1].T == 1e-3
            assert short_samples[-1].rate == pytest.approx(1.0 / dhat, rel=0.02)
        for A, d in [(1.0 / 0.777, 0.2), (1.0 / 3.111, 0.8)]:
            onset = bif_T(LIF, 0, Side.ZERO, A, d).T
            below = sweep_T(LIF, WidthCorrection(A=A, d=d), (onset * 0.3, onset * 0.95), 4)
            assert all(s.eta == 0 and s.rate == 0.0 for s in below)


def test_criterion_04_amplitude_correction_sweeps():
    with criterion(4, "amplitude-correction limit and onset shape"):
        high = sweep_T(LIF, AmplitudeCorrection(delta=3.0, Q=0.6667), (3.0, 120.0), 40)
        assert high[-1].T == 120.0
        assert high[-1].rate == pytest.approx(0.6667, rel=0.02)  # dose / threshold
        low = sweep_T(LIF, AmplitudeCorrection(delta=3.0, Q=0.257), (3.0, 80.0), 40)
        assert low[0].rate == 0.0 and low[0].eta == 0
        assert any(s.eta > 0 for s in low)


def test_criterion_05_collision_curve_asymptotics_and_monotonicity():
    with criterion(5, "collision-curve limits and monotonicity in T"):
        assert bif_A(LIF, 0, Side.ZERO, 0.5, 1e-4).A == pytest.approx(0.6, abs=1e-3)
        assert bif_A(LIF, 1, Side.R, 0.5, 200.0).A == pytest.approx(0.3, abs=1e-3)
        grid = np.geomspace(0.05, 200.0, 50)
        for n, side in [(0, Side.ZERO), (1, Side.R), (1, Side.L)]:
            values = [bif_A(LIF, n, side, 0.5, T).A for T in grid]
            assert all(nxt < cur + 1e-12 for cur, nxt in zip(values, values[1:]))


def test_criterion_06_hand_derived_solver_checks():
    with criterion(6, "hand-derived solver checks"):
        assert bif_A(LIF, 0, Side.ZERO, 0.5, 2.0).A == pytest.approx(0.48196, abs=1e-5)
        sigma = boundary_sigma(LIF, Forcing(A=10 / 3, T=1.0, d=0.2))
        assert sigma.n == 1
        assert sigma.sigma == pytest.approx(0.361963, abs=1e-6)
        # closed-form oracle (0.4 + 0.5u - 0.9u^2)/(1 - u^2); the same chain the
        # worked example quotes as 0.372174/0.632121
        u = math.exp(-0.5)
        xbar0 = (0.4 + 0.5 * u - 0.9 * u * u) / (1.0 - u * u)
        assert xbar0 == pytest.approx(0.58877033, abs=1e-8)
        assert fixed_point(LIF, Forcing(A=0.25, T=2.0, d=0.5), 0) == pytest.approx(
            xbar0, abs=1e-6
        )


def test_criterion_07_staircase_properties():
    with criterion(7, "devil's-staircase properties of the refined sweep"):
        A, d = 10 / 3, 0.2
        t_lo, t_hi, resolution = 0.25, 33.0, 1320
        cell = (t_hi - t_lo) / (resolution - 1)
        samples = sweep_T(
            LIF, WidthCorrection(A=A, d=d), (t_lo, t_hi), resolution, refine=True
        )
        good = [s for s in samples if s.converged and s.contraction_ok]
        assert len(good) > resolution * 0.9
        # firing number never decreases with the period
        assert all(a.eta <= b.eta for a, b in zip(good, good[1:]))
        # the rate decreases strictly inside every constant-eta run
        run_eta = None
        prev_rate = None
        for s in good:
            if s.eta != run_eta:
                run_eta, prev_rate = s.eta, s.rate
                continue
            assert s.rate < prev_rate
            prev_rate = s.rate
        # global maximum sits at the left edge of the 1-spike window
        t1r = bif_T(LIF, 1, Side.R, A, d).T
        best = max(good, key=lambda s: s.rate)
        assert abs(best.T - t1r) <= cell
        assert 1.0 / (t1r + cell) - 1e-12 <= best.rate <= 1.0 / t1r + 1e-12
        # wide windows have width ~ rise time / duty cycle
        delta = time_to_threshold(LIF, A, 0.0)
        width = bif_T(LIF, 20, Side.L, A, d).T - bif_T(LIF, 20, Side.R, A, d).T
        assert width == pytest.approx(delta / d, rel=0.10)


def test_criterion_08_period_adding_farey_levels():
    with criterion(8, "period-adding mediants across the 0-to-1 band"):
        # conditional-spiking parameters whose whole 0/1 band is contracting
        A, d = 1.0, 0.2
        t1l = bif_T(LIF, 1, Side.L, A, d).T
        samples = sweep_T(LIF, WidthCorrection(A=A, d=d), (1.2, t1l * 1.02), 300, refine=True)
        report = verify_adding(samples)
        assert not report.violations
        by_eta = {w.eta: w for w in report.windows}
        assert by_eta[Fraction(1, 2)].word == "LR"
        assert by_eta[Fraction(1, 3)].word == "LLR"
        assert by_eta[Fraction(2, 3)].word == "LRR"
        ok = {
            (c.left.eta, c.right.eta): c for c in report.checks if c.status == "ok"
        }
        for pair, mediant in [
            ((Fraction(0), Fraction(1)), Fraction(1, 2)),
            ((Fraction(0), Fraction(1, 2)), Fraction(1, 3)),
            ((Fraction(1, 2), Fraction(1)), Fraction(2, 3)),
        ]:
            check = ok[pair]
            assert check.mediant == mediant
            assert check.found.word == check.expected_word


def test_criterion_09_generic_integrator_equals_closed_form(lif_generic):
    with criterion(9, "generic integrator agrees with the closed form"):
        rng = np.random.default_rng(20)
        mismatched_counts = 0
        for _ in range(10_000):
            x0 = rng.uniform(0.0, 0.999999)
            A = rng.uniform(0.0, 4.0)
            T = rng.uniform(0.05, 3.0)
            d = rng.uniform(0.05, 0.95)
            assert abs(flow(lif_generic, A, T, x0) - flow(LIF, A, T, x0)) < 1e-8
            forcing = Forcing(A=A, T=T, d=d)
            lin = strobe(LIF, forcing, x0)
            gen = strobe(lif_generic, forcing, x0)
            if gen.spikes != lin.spikes:
                mismatched_counts += 1
                continue
            assert abs(gen.image - lin.image) < 1e-8
        assert mismatched_counts == 0


def test_criterion_10_outputs_byte_identical_across_workers(tmp_path):
    with criterion(10, "byte-identical outputs for 1, 4 and 16 workers"):
        model = ["--a", "-0.5", "--b", "0.2", "--theta", "1"]
        sweep_args = [
            "sweep", *model, "--mode", "width", "--A", "3.3333", "--d", "0.2",
            "--tmin", "0.5", "--tmax", "3.0", "--n", "40", "--refine",
        ]
        scan_args = [
            "scan", *model, "--T", "1", "--dmin", "0.15", "--dmax", "0.85", "--dn", "5",
            "--iamin", "0.3", "--iamax", "3.0", "--ian", "5",
        ]
        for name, args in (("sweep", sweep_args), ("scan", scan_args)):
            outputs = []
            for workers in ("1", "4", "16"):
                path = tmp_path / f"{name}-{workers}.csv"
                code = main([*args, "--workers", workers, "-o", str(path)])
                assert code == 0
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_10_in_each_pool_regime(pool_regime, tmp_path):
    regime, pool_sizes = pool_regime
    test_criterion_10_outputs_byte_identical_across_workers(tmp_path)
    # one pool for each grid call on 4 and on 16 workers: the sweep's and the scan's
    assert pool_sizes == ([] if regime == "none" else [2, 2, 2, 2])
