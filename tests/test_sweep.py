import itertools
import logging
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifstrobe import (
    AmplitudeCorrection,
    DomainError,
    Forcing,
    GenericModel,
    LinearModel,
    OrbitOptions,
    Side,
    SpikeRunawayError,
    WidthCorrection,
    bif_T,
    classify_region,
    scan_plane,
    sweep_T,
    verify_adding,
)
from ifstrobe.model import MAX_STEPS
from ifstrobe.sweep import StaircaseSample, _eval_sweep_node, _extract_windows

FAST = OrbitOptions(transient=4000, max_period=2000)


def runs_of_constant_eta(samples):
    good = [s for s in samples if s.converged and s.contraction_ok]
    return [list(g) for _, g in itertools.groupby(good, key=lambda s: s.eta)]


def test_sweep_non_spiking_is_flat_zero(lif):
    samples = sweep_T(lif, WidthCorrection(A=0.25, d=0.5), (0.5, 5.0), 12, opts=FAST)
    assert len(samples) == 12
    assert all(s.eta == 0 and s.rate == 0.0 for s in samples)


def test_sweep_samples_sorted_and_dose_constant(lif):
    mode = WidthCorrection(A=10 / 3, d=0.2)
    samples = sweep_T(lif, mode, (0.5, 3.0), 24, opts=FAST)
    assert [s.T for s in samples] == sorted(s.T for s in samples)
    assert mode.dose == (10 / 3) * 0.2


def test_amplitude_correction_traces_fixed_dose_line():
    mode = AmplitudeCorrection(delta=3.0, Q=0.6667)
    for T in (3.5, 10.0, 42.0):
        forcing = mode.forcing_at(T)
        assert forcing.d == pytest.approx(3.0 / T, rel=1e-15)
        assert forcing.dose == pytest.approx(0.6667, rel=1e-15)
        assert abs(forcing.dose - 0.6667) < 1e-15
    with pytest.raises(ValueError):
        mode.forcing_at(3.0)


def test_sweep_amplitude_mode_nudges_first_node(lif):
    samples = sweep_T(lif, AmplitudeCorrection(delta=3.0, Q=0.6667), (3.0, 12.0), 8, opts=FAST)
    assert samples[0].T > 3.0
    assert samples[-1].T == 12.0


def test_sweep_eta_nondecreasing_and_rate_decreasing_within_steps(lif):
    samples = sweep_T(
        lif, WidthCorrection(A=10 / 3, d=0.2), (0.6, 3.2), 60, refine=True, opts=FAST
    )
    good = [s for s in samples if s.converged and s.contraction_ok]
    assert all(a.eta <= b.eta for a, b in zip(good, good[1:]))
    for run in runs_of_constant_eta(samples):
        if run[0].eta > 0:
            rates = [s.rate for s in run]
            assert all(a > b for a, b in zip(rates, rates[1:]))


def test_sweep_refinement_sharpens_edges(lif):
    mode = WidthCorrection(A=10 / 3, d=0.2)
    coarse = sweep_T(lif, mode, (0.8, 2.8), 20, opts=FAST)
    fine = sweep_T(lif, mode, (0.8, 2.8), 20, refine=True, opts=FAST)
    assert len(fine) > len(coarse)
    spacing = (2.8 - 0.8) / 19
    for left, right in zip(fine, fine[1:]):
        if left.eta != right.eta:
            assert right.T - left.T <= spacing / 100 * (1 + 1e-9)


def _refined_by_rescan(model, mode, t_range, resolution, opts):
    """A refined sweep that re-compares every neighbour pair and re-sorts after each pass."""
    samples = sweep_T(model, mode, t_range, resolution, opts=opts)
    min_gap = (t_range[1] - t_range[0]) / (resolution - 1) / 100.0
    while True:
        mids = [
            0.5 * (left.T + right.T)
            for left, right in zip(samples, samples[1:])
            if left.eta != right.eta and right.T - left.T > min_gap
        ]
        if not mids:
            return samples
        new = [_eval_sweep_node((model, mode, T, opts)) for T in mids]
        samples = sorted(samples + new, key=lambda s: s.T)


@pytest.mark.parametrize(
    "mode, t_range, resolution",
    [
        (WidthCorrection(A=10 / 3, d=0.2), (0.3, 30.0), 120),
        (WidthCorrection(A=1.7, d=0.45), (0.2, 9.0), 37),
        (AmplitudeCorrection(delta=3.0, Q=0.6667), (3.5, 60.0), 50),
    ],
)
def test_refinement_equals_a_rescan_of_every_pair(lif, mode, t_range, resolution):
    refined = sweep_T(lif, mode, t_range, resolution, refine=True, opts=FAST)
    assert len(refined) > resolution
    assert refined == _refined_by_rescan(lif, mode, t_range, resolution, FAST)


def test_refinement_stops_at_adjacent_doubles(lif):
    # the 3/4 step ends between these two doubles, and a grid spacing of
    # 2e-15 makes a hundredth of it smaller than their gap: a refinement that
    # bisected by the gap alone would put its midpoint onto one of them forever
    edge = float.fromhex("0x1.34b4ae72c8f95p+0")
    mode = WidthCorrection(A=10 / 3, d=0.2)
    samples = sweep_T(lif, mode, (edge - 1e-13, edge + 1e-13), 100, refine=True, opts=FAST)
    periods = [s.T for s in samples]
    assert periods == sorted(set(periods))
    assert any(
        left.eta != right.eta and math.nextafter(left.T, math.inf) == right.T
        for left, right in zip(samples, samples[1:])
    )


def test_sweep_matches_window_solves(lif):
    A, d = 10 / 3, 0.2
    right = bif_T(lif, 1, Side.R, A, d).T
    left = bif_T(lif, 1, Side.L, A, d).T
    samples = sweep_T(lif, WidthCorrection(A=A, d=d), (right * 1.01, left * 0.99), 10, opts=FAST)
    assert all(s.eta == 1 for s in samples)


def test_sweep_deterministic_across_workers(lif):
    mode = WidthCorrection(A=10 / 3, d=0.2)
    serial = sweep_T(lif, mode, (0.5, 2.0), 16, refine=True, opts=FAST, workers=1)
    parallel = sweep_T(lif, mode, (0.5, 2.0), 16, refine=True, opts=FAST, workers=4)
    assert serial == parallel


def test_scan_plane_consistent_with_region_partition(lif):
    d_grid = np.linspace(0.15, 0.85, 6)
    invA_grid = np.linspace(0.25, 4.0, 6)
    scan = scan_plane(lif, 1.0, d_grid, invA_grid, opts=FAST)
    assert not scan.failed.any()
    for i, d in enumerate(d_grid):
        for j, invA in enumerate(invA_grid):
            region = classify_region(lif, 1.0 / invA, d)
            if region.kind == "NonSpiking" and not scan.capped[i, j]:
                assert scan.eta[i, j] == 0.0


def test_scan_plane_agrees_with_regions_along_dose_line(lif):
    # nodes tracing the fixed-dose line 1/A = d/Q cross all three regions;
    # the scanned firing numbers must match the region partition node by node
    Q = 0.6667
    d_grid = np.linspace(0.1, 0.9, 9)
    for d in d_grid:
        invA = d / Q
        scan = scan_plane(lif, 1.0, [d], [invA], opts=FAST)
        if scan.capped[0, 0] or scan.failed[0, 0]:
            continue
        region = classify_region(lif, 1.0 / invA, d).kind
        eta = scan.eta[0, 0]
        if region == "NonSpiking":
            assert eta == 0.0
        elif region == "PermanentSpiking":
            assert eta > 0.0
        if eta > 0.0:
            assert region != "NonSpiking"


def test_scan_plane_marks_high_periods_as_capped(lif):
    # attractor period is 3 at this node, above the cap of 2
    wide = scan_plane(lif, 1.0, [0.2], [0.5], period_cap=20, opts=FAST)
    assert wide.period[0, 0] == 3
    scan = scan_plane(lif, 1.0, [0.2], [0.5], period_cap=2, opts=FAST)
    assert scan.capped[0, 0]
    assert scan.period[0, 0] == 0 and math.isnan(scan.eta[0, 0])


def test_scan_plane_stops_at_a_verified_cycle_above_the_cap(lif, strobe_calls):
    # the period-3 cycle is verified once and reported as capped, without
    # spending the rest of the transient budget
    scan = scan_plane(lif, 1.0, [0.2], [0.5], period_cap=2, opts=FAST)
    assert scan.capped[0, 0]
    assert 0 < len(strobe_calls) < 200


def test_scan_plane_logs_failed_nodes(lif, caplog):
    with caplog.at_level(logging.WARNING, logger="ifstrobe.sweep"):
        scan = scan_plane(lif, 1.0, [0.2, 0.5], [0.3, 0.5], opts=OrbitOptions(spike_cap=1))
    assert scan.failed.tolist() == [[False, False], [True, False]]
    [record] = caplog.records
    assert record.name == "ifstrobe.sweep" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "d=0.5" in message and "1/A=0.3" in message and "more than 1 spikes" in message


def test_scan_plane_fixed_point_column_counts_up(lif):
    # at a long period the fixed-point spike count climbs as 1/A shrinks
    invA_grid = [2.0, 1.0, 0.5, 0.25, 0.125]
    scan = scan_plane(lif, 15.0, [0.5], invA_grid, opts=OrbitOptions(transient=4000))
    fixed = scan.period[0] == 1
    assert fixed.sum() >= 3
    etas = scan.eta[0][fixed]
    assert np.all(np.diff(etas) > 0)


def test_scan_plane_deterministic_across_workers(lif):
    scan1 = scan_plane(lif, 1.0, [0.2, 0.5], [0.5, 1.0, 2.0], opts=FAST, workers=1)
    scan2 = scan_plane(lif, 1.0, [0.2, 0.5], [0.5, 1.0, 2.0], opts=FAST, workers=3)
    assert np.array_equal(scan1.period, scan2.period)
    assert np.array_equal(scan1.eta, scan2.eta, equal_nan=True)


def test_scan_plane_skips_the_contraction_margin(lif, monkeypatch):
    def no_margin(*args, **kwargs):
        raise AssertionError("scan_plane discards the margin, so it must not compute it")

    monkeypatch.setattr(sys.modules["ifstrobe.strobe"], "_contraction_margin", no_margin)
    scan = scan_plane(lif, 1.0, [0.2, 0.5], [0.5, 2.0])
    assert not scan.failed.any()


def test_scan_plane_nodes_receive_python_floats(lif, monkeypatch):
    sweep = sys.modules["ifstrobe.sweep"]
    original = sweep.attractor
    types = set()

    def recording(model, forcing, opts=None):
        types.add((type(forcing.A), type(forcing.d)))
        return original(model, forcing, opts)

    monkeypatch.setattr(sweep, "attractor", recording)
    scan_plane(lif, 1.0, np.array([0.2, 0.5]), np.array([0.5, 2.0]), opts=FAST)
    assert types == {(float, float)}


def test_scan_plane_raises_on_invalid_input(lif):
    with pytest.raises(ValueError, match="period T"):
        scan_plane(lif, -1.0, [0.2, 0.5], [0.5, 2.0], opts=FAST)


def test_unpicklable_model_fails_before_any_pool_starts(no_pool):
    model = GenericModel(f=lambda x: -0.5 * x + 0.2, f_deriv=lambda x: -0.5, theta=1.0)
    with pytest.raises(TypeError, match="module level"):
        sweep_T(model, WidthCorrection(A=10 / 3, d=0.2), (1.0, 2.0), 4, opts=FAST, workers=2)


def test_scan_plane_checks_the_period_before_any_pool_starts(lif, no_pool):
    with pytest.raises(DomainError, match="period T must be finite and > 0"):
        scan_plane(lif, math.inf, [0.2, 0.5], [0.5, 2.0], opts=FAST, workers=2)


@pytest.mark.parametrize("period_cap", [0, -3])
def test_scan_plane_checks_the_period_cap_before_any_pool_starts(lif, no_pool, period_cap):
    with pytest.raises(DomainError, match="period cap must be at least 1"):
        scan_plane(lif, 1.0, [0.2, 0.5], [0.5, 2.0], period_cap=period_cap, opts=FAST, workers=2)


@pytest.mark.parametrize("workers", [0, -3])
def test_grids_check_the_worker_count_before_any_pool_starts(lif, no_pool, workers):
    with pytest.raises(DomainError, match="workers must be at least 1"):
        sweep_T(lif, WidthCorrection(A=10 / 3, d=0.2), (1.0, 2.0), 4, opts=FAST, workers=workers)
    with pytest.raises(DomainError, match="workers must be at least 1"):
        scan_plane(lif, 1.0, [0.2, 0.5], [0.5, 2.0], opts=FAST, workers=workers)


def test_scan_plane_checks_the_amplitudes_before_any_pool_starts(lif, no_pool):
    # 1/1e-320 overflows to inf: the forcing's A rule, applied to the grid
    with pytest.raises(DomainError, match="amplitude A must be finite"):
        scan_plane(lif, 1.0, [0.2, 0.5], [1e-320, 1.0], opts=FAST, workers=2)


def test_sweep_T_checks_both_period_ends_before_any_pool_starts(lif, no_pool):
    with pytest.raises(DomainError, match="period T must be finite and > 0"):
        sweep_T(lif, WidthCorrection(A=10 / 3, d=0.2), (0.3, math.inf), 4, opts=FAST, workers=2)


@pytest.mark.parametrize("size", [1, 5])
def test_unpicklable_model_fails_before_any_node_runs(monkeypatch, no_pool, size):
    def no_node(*args):
        raise AssertionError("a node ran")

    monkeypatch.setattr(sys.modules["ifstrobe.sweep"], "attractor", no_node)
    model = GenericModel(f=lambda x: -0.5 * x + 0.2, f_deriv=lambda x: -0.5, theta=1.0)
    grid = np.linspace(0.2, 0.8, size)
    with pytest.raises(TypeError, match="module level"):
        scan_plane(model, 1.0, grid, grid, opts=FAST, workers=2)
    with pytest.raises(TypeError, match="module level"):
        sweep_T(model, WidthCorrection(A=10 / 3, d=0.2), (1.0, 2.0), size + 1, workers=2)


SCAN_5X5 = ([0.15, 0.325, 0.5, 0.675, 0.85], [0.3, 0.975, 1.65, 2.325, 3.0])


def test_a_refined_sweep_starts_at_most_one_pool(lif, pool_regime):
    regime, pool_sizes = pool_regime
    mode = WidthCorrection(A=10 / 3, d=0.2)
    serial = sweep_T(lif, mode, (0.5, 3.0), 40, refine=True, opts=FAST, workers=1)
    assert len(serial) > 40  # so refinement rounds ran after the first
    assert sweep_T(lif, mode, (0.5, 3.0), 40, refine=True, opts=FAST, workers=4) == serial
    assert pool_sizes == ([] if regime == "none" else [2])


def test_nodes_run_in_process_in_strided_order_until_the_pool_starts(lif, pool_regime, monkeypatch):
    regime, pool_sizes = pool_regime
    serial = scan_plane(lif, 1.0, *SCAN_5X5, opts=FAST, workers=1)
    sweep = sys.modules["ifstrobe.sweep"]
    original = sweep.attractor
    in_process = []

    def recording(model, forcing, opts=None):
        in_process.append((forcing.d, forcing.A))
        return original(model, forcing, opts)

    monkeypatch.setattr(sweep, "attractor", recording)
    assert scan_plane(lif, 1.0, *SCAN_5X5, opts=FAST, workers=2) == serial
    nodes = [(d, 1.0 / invA) for d in SCAN_5X5[0] for invA in SCAN_5X5[1]]
    # two CPUs give eight strides, node i in stride i mod 8, each spanning every d
    order = [0, 8, 16, 24, 1, 9, 17, 2, 10, 18, 3, 11, 19, 4, 12, 20]
    order += [5, 13, 21, 6, 14, 22, 7, 15, 23]
    split = {"first-node": 0, "mid-grid": 6, "none": 25}[regime]
    assert in_process == [nodes[i] for i in order[:split]]
    assert pool_sizes == ([] if regime == "none" else [2])


def test_the_pool_is_capped_at_the_nodes_left_and_the_usable_cpus(lif, monkeypatch):
    sweep = sys.modules["ifstrobe.sweep"]
    sizes = []

    class InProcessPool:
        """Records its size and runs every node here: no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sweep, "_POOL_START_S", -1.0)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    serial = scan_plane(lif, 1.0, *SCAN_5X5, opts=FAST, workers=1)
    assert scan_plane(lif, 1.0, *SCAN_5X5, opts=FAST, workers=16) == serial
    assert scan_plane(lif, 1.0, *SCAN_5X5, opts=FAST, workers=2) == serial
    scan_plane(lif, 1.0, [0.2], [0.5, 1.0], opts=FAST, workers=16)
    assert sizes == [3, 2, 2]


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    usable_cpus = sys.modules["ifstrobe.sweep"]._usable_cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_a_failed_sweep_node_reads_the_same_on_either_path(lif, pool_regime):
    # nodes from T=1.75 on spike twice a period; the strided order reaches T=2.5 first
    errors = []
    for workers in (1, 2):
        with pytest.raises(SpikeRunawayError) as info:
            sweep_T(
                lif, WidthCorrection(A=10 / 3, d=0.2), (0.5, 6.0), 23,
                opts=OrbitOptions(spike_cap=1), workers=workers,
            )  # fmt: skip
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("at node T=1.75: more than 1 spikes")


def test_a_failed_scan_node_reads_the_same_on_either_path(lif, pool_regime, caplog):
    scans, messages = [], []
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ifstrobe.sweep"):
            scan = scan_plane(lif, 1.0, *SCAN_5X5, opts=OrbitOptions(spike_cap=1), workers=workers)
        scans.append(scan)
        messages.append([record.getMessage() for record in caplog.records])
    assert scans[0] == scans[1]
    assert messages[0] == messages[1]
    assert len(messages[0]) == int(scans[0].failed.sum()) == 4
    assert messages[0][0].startswith("scan node d=0.325, 1/A=0.3 failed: more than 1 spikes")


def _split_at_random(monkeypatch, split: int) -> None:
    """Make each node take 1 s and a pool cost split - 0.5 s on three CPUs.

    The pool then starts after ``split`` nodes, if the nodes left pay for it.
    """
    sweep = sys.modules["ifstrobe.sweep"]
    ticks = itertools.count()
    monkeypatch.setattr("time.perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(sweep, "_POOL_START_S", split - 0.5)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)


@settings(max_examples=8, deadline=None)
@given(
    d_grid=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
    invA_grid=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=4),
    period_cap=st.integers(1, 20),
    workers=st.sampled_from([2, 3]),
    split=st.integers(0, 8),
)
def test_random_scan_grids_equal_one_worker_at_any_split(
    d_grid, invA_grid, period_cap, workers, split
):
    lif = LinearModel(a=-0.5, b=0.2, theta=1.0)
    serial = scan_plane(lif, 1.0, d_grid, invA_grid, period_cap=period_cap, opts=FAST)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_at_random(monkeypatch, split)
        scan = scan_plane(
            lif, 1.0, d_grid, invA_grid, period_cap=period_cap, opts=FAST, workers=workers
        )
    assert scan == serial


@settings(max_examples=8, deadline=None)
@given(
    t_min=st.floats(0.3, 3.0),
    span=st.floats(0.5, 5.0),
    resolution=st.integers(2, 24),
    refine=st.booleans(),
    workers=st.sampled_from([2, 3]),
    split=st.integers(0, 12),
)
def test_random_sweeps_equal_one_worker_at_any_split(
    t_min, span, resolution, refine, workers, split
):
    lif = LinearModel(a=-0.5, b=0.2, theta=1.0)
    mode = WidthCorrection(A=10 / 3, d=0.2)
    t_range = (t_min, t_min + span)
    serial = sweep_T(lif, mode, t_range, resolution, refine=refine, opts=FAST)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_at_random(monkeypatch, split)
        samples = sweep_T(lif, mode, t_range, resolution, refine=refine, opts=FAST, workers=workers)
    assert samples == serial


@pytest.mark.parametrize(
    "grid, kwargs",
    [
        (([0.2, 0.5, 0.8], [0.5, 1.0, 2.0, 4.0]), {"period_cap": 1}),
        (([0.2, 0.5], [0.3, 0.5]), {"opts": OrbitOptions(spike_cap=1)}),
    ],
    ids=["capped", "failed"],
)
def test_scan_plane_equal_across_workers(lif, grid, kwargs):
    scan1 = scan_plane(lif, 1.0, *grid, workers=1, **kwargs)
    scan3 = scan_plane(lif, 1.0, *grid, workers=3, **kwargs)
    assert scan1.capped.any() or scan1.failed.any()
    assert scan1 == scan3
    assert scan1 != scan_plane(lif, 2.0, *grid, workers=1, **kwargs)


def test_scan_flags_a_drive_just_above_the_critical_dose_failed(lif):
    # 1/3.3333333333333326 is Q_c + 1 ulp, whose rest point rounds onto theta
    assert scan_plane(lif, 1.0, [0.5], [3.3333333333333326]).nodes == ((0, None, False, True),)


def test_a_generic_scan_flags_a_capped_run_failed(counted_generic, caplog):
    model, evaluations = counted_generic
    # 1/A for A = Q_c*(1 + 1e-11), where the reset run stops at the step cap
    scan = scan_plane(model, 2.0, [0.5], [1.0 / (0.3 * (1.0 + 1e-11)), 1.0], opts=FAST)
    assert scan.nodes[0] == (0, None, False, True) and scan.nodes[1][1:] == (1.0, False, False)
    assert f"more than {MAX_STEPS} steps" in caplog.text
    assert len(evaluations) < 2 * (2 + 6 * MAX_STEPS)


def test_scan_plane_matrices_keep_their_dtypes_and_shapes(lif):
    d_grid, invA_grid = [0.2, 0.5, 0.8], [0.5, 1.0, 2.0, 4.0]
    scan = scan_plane(lif, 1.0, d_grid, invA_grid, period_cap=1)
    assert scan.d_grid.dtype == np.float64 and scan.d_grid.tolist() == d_grid
    assert scan.invA_grid.dtype == np.float64 and scan.invA_grid.tolist() == invA_grid
    assert scan.period.dtype == np.dtype(int) and scan.period.shape == (3, 4)
    assert scan.eta.dtype == np.float64 and scan.eta.shape == (3, 4)
    for flags in (scan.capped, scan.failed):
        assert flags.dtype == np.bool_ and flags.shape == (3, 4)
    assert scan.capped.any() and not scan.failed.any()
    assert np.array_equal(np.isnan(scan.eta), scan.capped)
    assert np.all(scan.period[scan.capped] == 0) and np.all(scan.period[~scan.capped] == 1)
    # the matrices are the plain node values, row-major over d then 1/A
    plain = [(p, None if math.isnan(e) else e, c, f) for p, e, c, f in zip(
        scan.period.ravel().tolist(), scan.eta.ravel().tolist(),
        scan.capped.ravel().tolist(), scan.failed.ravel().tolist(),
    )]  # fmt: skip
    assert plain == list(scan.nodes)


def _sample(T, eta, word, contraction_ok=True):
    return StaircaseSample(
        T=T,
        eta=Fraction(eta),
        rho=Fraction(word.count("R"), len(word)),
        rate=float(eta) / T,
        word=word,
        period_p=eta.denominator if isinstance(eta, Fraction) else 1,
        converged=True,
        contraction_ok=contraction_ok,
    )


def test_extract_windows_groups_runs():
    samples = [
        _sample(1.0, Fraction(0), "L"),
        _sample(1.1, Fraction(0), "L"),
        _sample(1.2, Fraction(1, 2), "LR"),
        _sample(1.3, Fraction(1), "R"),
        _sample(1.4, Fraction(1), "R"),
    ]
    windows = _extract_windows(samples)
    assert [w.eta for w in windows] == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert windows[0].t_hi == 1.1 and windows[2].t_lo == 1.3


def test_verify_adding_passes_on_synthetic_farey_data():
    samples = [
        _sample(1.0, Fraction(0), "L"),
        _sample(1.5, Fraction(1, 3), "LLR"),
        _sample(2.0, Fraction(1, 2), "LR"),
        _sample(2.5, Fraction(2, 3), "LRR"),
        _sample(3.0, Fraction(1), "R"),
    ]
    report = verify_adding(samples)
    assert not report.violations
    ok = {(c.left.eta, c.right.eta): c for c in report.checks if c.status == "ok"}
    assert ok[(Fraction(0), Fraction(1))].mediant == Fraction(1, 2)
    assert ok[(Fraction(0), Fraction(1, 2))].found.word == "LLR"
    assert ok[(Fraction(1, 2), Fraction(1))].expected_word == "LRR"


def test_verify_adding_flags_wrong_word():
    samples = [
        _sample(1.0, Fraction(0), "L"),
        _sample(2.0, Fraction(1, 2), "RL"),  # non-canonical stand-in for a bad word
        _sample(3.0, Fraction(1), "R"),
    ]
    report = verify_adding(samples)
    assert any(c.status == "violation" for c in report.checks)


def test_verify_adding_reports_unresolved_gaps():
    samples = [
        _sample(1.0, Fraction(0), "L"),
        _sample(3.0, Fraction(1), "R"),
    ]
    report = verify_adding(samples)
    assert len(report.checks) == 1
    assert report.checks[0].status == "unresolved"


def test_verify_adding_skips_non_contracting_samples():
    samples = [
        _sample(1.0, Fraction(0), "L"),
        _sample(2.0, Fraction(1, 2), "LR", contraction_ok=False),
        _sample(3.0, Fraction(1), "R"),
    ]
    report = verify_adding(samples)
    assert all(w.eta != Fraction(1, 2) for w in report.windows)


def test_rate_envelope_peaks_at_next_window_edge(lif):
    # between consecutive fixed-point windows the rate peaks exactly where
    # the next window opens, rising from the left end and falling across the
    # window itself (the bell shape; individual narrow steps may dip)
    A, d = 10 / 3, 0.2
    t1l = bif_T(lif, 1, Side.L, A, d).T
    t2r = bif_T(lif, 2, Side.R, A, d).T
    t2l = bif_T(lif, 2, Side.L, A, d).T
    samples = sweep_T(
        lif, WidthCorrection(A=A, d=d), (t1l * 1.001, t2l * 0.999), 80, refine=True, opts=FAST
    )
    good = [s for s in samples if s.converged and s.contraction_ok]
    best = max(good, key=lambda s: s.rate)
    cell = (t2l - t1l) / 79
    assert abs(best.T - t2r) <= cell
    assert good[0].rate < best.rate
    falling = [s.rate for s in good if s.T >= best.T]
    assert all(a > b for a, b in zip(falling, falling[1:]))


def test_verify_adding_on_real_sweep(lif):
    # conditional-spiking point whose whole 0-to-1 band is contracting
    samples = sweep_T(lif, WidthCorrection(A=1.0, d=0.2), (1.2, 9.2), 150, refine=True, opts=FAST)
    report = verify_adding(samples)
    assert not report.violations
    found = {w.eta for w in report.windows}
    assert {Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)} <= found
