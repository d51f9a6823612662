"""Period sweeps under dose conservation, plane scans and adding checks.

Dose conservation keeps the average input Q = A*d fixed while the period
varies.  Two parametrizations are provided:

* :class:`WidthCorrection` keeps (A, d) fixed, so the pulse stretches with T.
* :class:`AmplitudeCorrection` keeps the pulse duration fixed and rescales
  the amplitude, tracing (d, 1/A) = (delta/T, delta/(Q*T)).

A sweep samples the attractor at each period and optionally refines near
firing-number steps by bisection, sharpening the staircase edges.  Node
evaluations are pure, so a grid runs in process until the nodes left would
pay for a worker pool, which then takes the rest; results are merged by
index, so output is identical for any worker count and any split point.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, Union

from .model import (
    DomainError, Forcing, IntegrationError, Model, _Checked, _check_count, _check_forcing
)
from .strobe import (
    OrbitOptions,
    OrbitSummary,
    SpikeRunawayError,
    StrobeMap,
    _attractor,
    _least_rotation_start,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WidthCorrection",
    "AmplitudeCorrection",
    "DoseMode",
    "StaircaseSample",
    "PlaneScan",
    "AddingCheck",
    "AddingReport",
    "Window",
    "sweep_T",
    "scan_plane",
    "verify_adding",
]

logger = logging.getLogger(__name__)


class _WidthFields(NamedTuple):
    A: float
    d: float


class WidthCorrection(_Checked, _WidthFields):
    """Fixed amplitude and duty cycle; the pulse widens with the period.

    ``A`` is finite and >= 0 and ``d`` lies in (0, 1), the rules of
    :class:`~ifstrobe.model.Forcing`, else DomainError.
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_forcing(A=self.A, d=self.d)

    @property
    def dose(self) -> float:
        return self.A * self.d

    def forcing_at(self, T: float) -> Forcing:
        return Forcing(A=self.A, T=T, d=self.d)


def _check_amplitude_mode(delta: float | None = None, Q: float | None = None) -> None:
    """Apply the one domain rule of each given amplitude-mode parameter; raises DomainError."""
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise DomainError("pulse duration delta must be finite and > 0")
    if Q is not None and not (math.isfinite(Q) and Q >= 0.0):
        raise DomainError("dose Q must be finite and >= 0")


class _AmplitudeFields(NamedTuple):
    delta: float
    Q: float


class AmplitudeCorrection(_Checked, _AmplitudeFields):
    """Fixed pulse duration; the amplitude rescales to conserve the dose.

    Defined for T > delta only (the duty cycle must stay below 1); periods at
    or below the pulse duration are nudged just above it by the sweep.
    ``delta`` is finite and > 0, ``Q`` finite and >= 0, else DomainError.
    The amplitude is ``Q*T/delta``, or ``Q*(T/delta)`` where the product
    ``Q*T`` overflows; a period whose amplitude overflows both ways raises
    DomainError too.
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_amplitude_mode(self.delta, self.Q)

    @property
    def dose(self) -> float:
        return self.Q

    def forcing_at(self, T: float) -> Forcing:
        if T <= self.delta:
            raise DomainError(f"period T = {T} must exceed the pulse duration {self.delta}")
        A = self.Q * T / self.delta
        if A == math.inf:  # Q*T alone may overflow; a finite Q*T/delta keeps its bits
            A = self.Q * (T / self.delta)
        if A == math.inf:
            raise DomainError(
                f"rescaled amplitude Q*T/delta overflows (Q={self.Q}, T={T}, delta={self.delta})"
            )
        return Forcing(A=A, T=T, d=self.delta / T)


DoseMode = Union[WidthCorrection, AmplitudeCorrection]


class StaircaseSample(NamedTuple):
    """One sweep node: exact firing/rotation numbers plus convergence flags.

    ``contraction_ok`` is True when the attractor's cycle multiplier is
    below 1 (``OrbitSummary.log_multiplier < 0``).
    """

    T: float
    eta: Fraction
    rho: Fraction
    rate: float
    word: str
    period_p: int
    converged: bool
    contraction_ok: bool


class _PlaneScanFields(NamedTuple):
    T: float
    d_values: tuple[float, ...]
    invA_values: tuple[float, ...]
    nodes: tuple[tuple[int, float | None, bool, bool], ...]


class PlaneScan(_PlaneScanFields):
    """Attractor period and firing-number over a (d, 1/A) grid at fixed T.

    The scan holds plain Python values: the grids ``d_values`` and
    ``invA_values`` and one ``(period, eta, capped, failed)`` tuple per node
    in ``nodes``, row-major over d then 1/A.  Nodes where no period at or
    below the cap was confirmed are flagged ``capped`` (period 0, eta None);
    nodes whose attractor search hit a numeric failure (spike runaway or an
    integration error) are flagged ``failed`` (period 0, eta None).  Two
    scans of the same grid compare equal for any worker count.

    The numpy views ``d_grid``, ``invA_grid``, ``period`` (int), ``eta``
    (float, NaN where undefined), ``capped`` and ``failed`` (bool) are built
    on first access, so only code that reads one of them imports numpy; the
    instance ``__dict__`` keeps them (no ``__slots__``).  The matrices are
    indexed [i_d, i_invA].
    """

    def _matrix(self, column: int, dtype: type) -> np.ndarray:
        values = [node[column] for node in self.nodes]
        if dtype is float:
            values = [math.nan if v is None else v for v in values]
        return _array(values, dtype).reshape(len(self.d_values), len(self.invA_values))

    @cached_property
    def d_grid(self) -> np.ndarray:
        return _array(self.d_values, float)

    @cached_property
    def invA_grid(self) -> np.ndarray:
        return _array(self.invA_values, float)

    @cached_property
    def period(self) -> np.ndarray:
        return self._matrix(0, int)

    @cached_property
    def eta(self) -> np.ndarray:
        return self._matrix(1, float)

    @cached_property
    def capped(self) -> np.ndarray:
        return self._matrix(2, bool)

    @cached_property
    def failed(self) -> np.ndarray:
        return self._matrix(3, bool)


def _array(values: Sequence, dtype: type) -> np.ndarray:
    import numpy as np  # the package's only numpy import, for PlaneScan's views

    return np.array(values, dtype=dtype)


def _to_sample(T: float, orbit: OrbitSummary) -> StaircaseSample:
    return StaircaseSample(
        T=T,
        eta=orbit.eta,
        rho=orbit.rho,
        rate=orbit.rate,
        word=orbit.word,
        period_p=orbit.period_p,
        converged=orbit.converged,
        contraction_ok=orbit.log_multiplier < 0.0,
    )


def _eval_sweep_node(
    task: tuple[Model, DoseMode, float, OrbitOptions], orbits: dict | None = None
) -> StaircaseSample | SpikeRunawayError | IntegrationError:
    """One sweep node; a numeric failure comes back as the error naming the node.

    ``sweep_T`` raises the first failure in grid order, which does not depend
    on which nodes ran in process and which in a pool.
    """
    model, mode, T, opts = task
    try:
        smap = StrobeMap(model, mode.forcing_at(T), opts.spike_cap, _orbits=orbits)
        orbit = _attractor(smap, opts)
    except (SpikeRunawayError, IntegrationError) as exc:
        return type(exc)(f"at node T={T}: {exc}")
    return _to_sample(T, orbit)


def _raise_first_failure(results: list) -> list[StaircaseSample]:
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _check_workers(workers: int) -> None:
    """Apply the one domain rule of a grid's worker count; raises DomainError."""
    _check_count("workers", workers)
    if not workers >= 1:
        raise DomainError("workers must be at least 1")


# What a pool costs before it saves anything, in seconds, measured in a fresh
# process: about 0.024 s to import its modules, 0.016 s to start and shut down
# two workers, and some 0.01 s for the workers' first nodes.
_POOL_START_S = 0.05


def _usable_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class _GridRunner:
    """Evaluates ``fn`` over the nodes of one ``sweep_T`` or ``scan_plane`` call.

    ``fn(task, orbits)`` takes the call's one store of drive orbits in
    process, kept across every ``map``; the pool sends its nodes in chunks,
    each with a store of its own in the worker (:func:`_run_chunk`).  Each
    node builds a :class:`~ifstrobe.strobe.StrobeMap`, which is a generic
    or a linear map by its model: a generic map takes its drives' orbits
    from the store, a linear one has closed-form drives and leaves it
    alone.  A stored orbit gives every lookup the value a fresh one gives,
    so no node's result depends on the nodes before it.

    With ``workers > 1`` nodes run in process first, in a strided order: with
    cap = min(workers, usable CPUs), node i is in stride i mod 4*cap, so the
    nodes done sample the whole grid, whose node cost grows with d.  A pool of
    w = min(cap, nodes left) processes starts once the time spent here
    exceeds its start-up cost C and the nodes left, at the mean cost so far,
    would save more than C on them: rest * (1 - 1/w) > C.  It takes the rest
    in the same order and serves every later ``map``; at most one starts.
    """

    def __init__(self, fn: Callable, workers: int) -> None:
        self.fn = fn
        self.workers = workers
        self.pool = None
        self.size = 0
        self.spent = 0.0  # seconds of nodes run in process
        self.done = 0
        self.orbits: dict = {}

    def __enter__(self) -> _GridRunner:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def map(self, tasks: Sequence) -> list:
        if self.workers <= 1:
            return [self.fn(t, self.orbits) for t in tasks]
        import time

        _check_picklable(tasks[0])
        cap = min(self.workers, _usable_cpus())
        order = [i for s in range(4 * cap) for i in range(s, len(tasks), 4 * cap)]
        results = [None] * len(tasks)
        k = 0
        last = time.perf_counter()
        while k < len(order) and self._pool(len(order) - k, cap) is None:
            results[order[k]] = self.fn(tasks[order[k]], self.orbits)
            now = time.perf_counter()
            self.spent += now - last
            self.done += 1
            last = now
            k += 1
        rest = order[k:]
        if rest:
            chunk = max(1, len(rest) // (4 * self.size))
            parts = [
                (self.fn, [tasks[i] for i in rest[j : j + chunk]]) for j in range(0, len(rest), chunk)
            ]
            pooled = self.pool.map(_run_chunk, parts, chunksize=1)
            for i, result in zip(rest, (result for part in pooled for result in part)):
                results[i] = result
        return results

    def _pool(self, left: int, cap: int):
        """The pool, started now if the ``left`` nodes would pay for it; else None."""
        if self.pool is None:
            size = min(cap, left)
            mean = self.spent / self.done if self.done else 0.0
            if self.spent > _POOL_START_S and left * mean * (1.0 - 1.0 / size) > _POOL_START_S:
                from concurrent.futures import ProcessPoolExecutor  # read now: tests patch it

                self.pool = ProcessPoolExecutor(max_workers=size)
                self.size = size
        return self.pool


def _run_chunk(chunk: tuple[Callable, list]) -> list:
    """A pool worker's nodes of one chunk, sharing one store of drive orbits."""
    fn, tasks = chunk
    orbits: dict = {}
    return [fn(task, orbits) for task in tasks]


def _check_picklable(task) -> None:
    import pickle  # only workers > 1 needs it: importing ifstrobe does not load it

    try:
        pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise TypeError(
            f"workers > 1 sends each node to a worker process, which needs a picklable model: "
            f"define a GenericModel's f and f_deriv at module level, not as lambdas or "
            f"nested functions, or use workers=1 ({exc})"
        ) from exc


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced floats from lo to hi, both ends exact."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def sweep_T(
    model: Model,
    mode: DoseMode,
    t_range: tuple[float, float],
    resolution: int,
    refine: bool = False,
    opts: OrbitOptions | None = None,
    workers: int = 1,
) -> list[StaircaseSample]:
    """Sample the firing-rate staircase on a uniform period grid.

    With ``refine`` the gap between neighbours of different firing-number is
    bisected until it shrinks below a hundredth of the initial spacing, which
    pins step edges to that width, or until the neighbours are adjacent
    doubles.  Each pass evaluates its midpoints in period order and compares
    only the pairs next to the last pass's nodes.  Samples come back sorted
    by period.
    ``workers`` bounds the worker processes of the call's one pool, which
    starts only when the nodes left would pay for it.  A node's numeric
    failure raises, naming the node; the first failed node in the grid's
    order is raised, whichever path ran it.
    """
    t_min, t_max = t_range
    _check_forcing(T=t_min)
    _check_forcing(T=t_max)
    if not t_min < t_max:
        raise DomainError("period range must satisfy 0 < t_min < t_max")
    _check_count("resolution", resolution)
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    _check_workers(workers)
    if opts is None:
        opts = OrbitOptions()
    if isinstance(mode, AmplitudeCorrection) and t_min <= mode.delta:
        # the relative nudge rounds back to a subnormal delta: then one ulp
        t_min = max(mode.delta * (1.0 + 1e-12), math.nextafter(mode.delta, math.inf))
        if t_min >= t_max:
            raise DomainError("period range lies at or below the pulse duration")
    grid = _linspace(t_min, t_max, resolution)
    with _GridRunner(_eval_sweep_node, workers) as runner:
        samples = _raise_first_failure(runner.map([(model, mode, T, opts) for T in grid]))
        samples.sort(key=lambda s: s.T)
        if not refine:
            return samples
        min_gap = (t_max - t_min) / (resolution - 1) / 100.0  # the grid spacing, to its bits
        # only the pairs next to a new node can need a midpoint in the next pass
        pairs = list(zip(samples, samples[1:]))
        while True:
            split = []
            for left, right in pairs:
                if left.eta != right.eta and right.T - left.T > min_gap:
                    mid = 0.5 * (left.T + right.T)
                    if left.T < mid < right.T:  # no midpoint between adjacent doubles
                        split.append((left, right, mid))
            if not split:
                samples.sort(key=lambda s: s.T)
                return samples
            new = _raise_first_failure(runner.map([(model, mode, T, opts) for _, _, T in split]))
            samples += new
            pairs = [
                pair
                for (left, right, _), node in zip(split, new)
                for pair in ((left, node), (node, right))
            ]


def _eval_plane_node(
    task: tuple[Model, float, float, float, int, OrbitOptions], orbits: dict | None = None
) -> tuple[tuple[int, float | None, bool, bool], str | None]:
    """One scan node and, if it failed, the failure for ``scan_plane`` to log."""
    model, T, d, invA, cap, opts = task
    try:
        forcing = Forcing(A=1.0 / invA, T=T, d=d)
        orbit = _attractor(StrobeMap(model, forcing, opts.spike_cap, _orbits=orbits), opts)
    except (SpikeRunawayError, IntegrationError) as exc:
        return (0, None, False, True), str(exc)
    if orbit.converged and orbit.period_p <= cap:
        return (orbit.period_p, float(orbit.eta), False, False), None
    return (0, None, True, False), None


def _check_period_cap(period_cap: int) -> None:
    """Apply the one domain rule of a scan's period cap; raises DomainError."""
    _check_count("period_cap", period_cap)
    if not period_cap >= 1:
        raise DomainError("period cap must be at least 1")


def scan_plane(
    model: Model,
    T: float,
    d_grid: Iterable[float],
    invA_grid: Iterable[float],
    period_cap: int = 20,
    opts: OrbitOptions | None = None,
    workers: int = 1,
) -> PlaneScan:
    """Attractor period (capped) and firing-number over a (d, 1/A) grid.

    Node order is row-major over d then 1/A, so results are deterministic.
    Each node runs :func:`~ifstrobe.strobe.attractor` with ``opts``, whose
    ``max_period`` the scan replaces with ``max(period_cap, 2)``.
    Numeric per-node failures are recorded and the scan continues; invalid
    input, such as a non-positive period, raises.  ``workers`` bounds the
    worker processes of a pool, which starts only when the nodes left
    would pay for it.
    """
    d_vals = [float(d) for d in d_grid]
    a_vals = [float(invA) for invA in invA_grid]
    if not d_vals or not a_vals:
        raise DomainError("grids must be nonempty")
    for d in d_vals:
        _check_forcing(d=d)
    for invA in a_vals:
        if not invA > 0.0:
            raise DomainError("1/A grid must be strictly positive")
        _check_forcing(A=1.0 / invA)
    _check_forcing(T=T)
    _check_period_cap(period_cap)
    _check_workers(workers)
    opts = (opts or OrbitOptions())._replace(max_period=max(period_cap, 2))
    tasks = [(model, T, d, invA, period_cap, opts) for d in d_vals for invA in a_vals]
    with _GridRunner(_eval_plane_node, workers) as runner:
        results = runner.map(tasks)
    for (_, _, d, invA, _, _), (_, failure) in zip(tasks, results):
        if failure is not None:
            logger.warning("scan node d=%r, 1/A=%r failed: %s", d, invA, failure)
    nodes = tuple(node for node, _ in results)
    return PlaneScan(T=T, d_values=tuple(d_vals), invA_values=tuple(a_vals), nodes=nodes)


class Window(NamedTuple):
    """Maximal run of sweep samples sharing one firing-number."""

    eta: Fraction
    t_lo: float
    t_hi: float
    word: str
    rho: Fraction
    period_p: int
    count: int


class AddingCheck(NamedTuple):
    """Outcome of one mediant test between neighbouring windows.

    ``status`` is "ok" when the mediant window was found and passed all
    applicable tests, "violation" when it was found but its word or rotation
    number disagrees with the concatenation rule, and "unresolved" when the
    sampling never resolved a window at the mediant value (a coverage gap,
    not a counterexample).
    """

    left: Window
    right: Window
    mediant: Fraction
    expected_word: str | None
    found: Window | None
    status: str
    detail: str = ""


class AddingReport(NamedTuple):
    windows: tuple[Window, ...]
    checks: tuple[AddingCheck, ...]

    @property
    def violations(self) -> tuple[AddingCheck, ...]:
        return tuple(c for c in self.checks if c.status == "violation")

    @property
    def unresolved(self) -> tuple[AddingCheck, ...]:
        return tuple(c for c in self.checks if c.status == "unresolved")


def _extract_windows(samples: Sequence[StaircaseSample]) -> list[Window]:
    windows: list[Window] = []
    run: list[StaircaseSample] = []
    for s in sorted(samples, key=lambda s: s.T):
        if not (s.converged and s.contraction_ok):
            run = []
            continue
        if run and s.eta != run[0].eta:
            windows.append(_close_window(run))
            run = []
        run.append(s)
    if run:
        windows.append(_close_window(run))
    return windows


def _close_window(run: list[StaircaseSample]) -> Window:
    first = run[0]
    return Window(
        eta=first.eta,
        t_lo=first.T,
        t_hi=run[-1].T,
        word=first.word,
        rho=first.rho,
        period_p=first.period_p,
        count=len(run),
    )


def _band_word(window: Window, band: int) -> str | None:
    """Itinerary of the window in the coding of the unit band [band, band+1].

    Integer windows sit at the band edges and read "L" or "R" there; interior
    windows keep their observed word, whose coding already matches the band.
    """
    if window.eta == band:
        return "L"
    if window.eta == band + 1:
        return "R"
    if band < window.eta < band + 1:
        return window.word
    return None


def verify_adding(samples: Sequence[StaircaseSample]) -> AddingReport:
    """Check the period-adding/Farey structure of a (refined) sweep.

    Every pair of windows whose firing numbers are Farey neighbours
    (|n1*p2 - n2*p1| = 1) brackets the window of their mediant; when a window
    at the mediant value was sampled between the pair, its word must be the
    cyclically-minimal concatenation of the pair's words (in the coding of
    their unit band) and its rotation number the mediant of theirs.  Pairs
    whose mediant window was never resolved by the sampling are reported as
    unresolved rather than violations, since no finite grid exhausts the
    staircase.
    """
    windows = _extract_windows(samples)
    by_eta: dict[Fraction, list[Window]] = {}
    for w in windows:
        by_eta.setdefault(w.eta, []).append(w)
    ratios = [(w.eta.numerator, w.eta.denominator) for w in windows]
    checks: list[AddingCheck] = []
    for i, left in enumerate(windows):
        n1, p1 = ratios[i]
        for j in range(i + 1, len(windows)):
            n2, p2 = ratios[j]
            # a cross product of 1 also means left.eta < right.eta
            if n2 * p1 - n1 * p2 != 1:
                continue
            right = windows[j]
            mediant = Fraction(n1 + n2, p1 + p2)
            found = next(
                (
                    w
                    for w in by_eta.get(mediant, ())
                    if left.t_hi < w.t_lo and w.t_hi < right.t_lo
                ),
                None,
            )
            band = math.floor(left.eta)
            sigma = _band_word(left, band)
            omega = _band_word(right, band)
            expected_word = None
            if sigma is not None and omega is not None:
                word = sigma + omega
                k = _least_rotation_start(word)
                expected_word = word[k:] + word[:k]
            if found is None:
                status = "unresolved"
                detail = f"no window at {mediant} sampled in ({left.t_hi}, {right.t_lo})"
            else:
                problems = []
                if expected_word is not None:
                    if found.word != expected_word:
                        problems.append(f"word {found.word} != {expected_word}")
                    rho_expected = Fraction(expected_word.count("R"), len(expected_word))
                    if found.rho != rho_expected:
                        problems.append(f"rotation {found.rho} != {rho_expected}")
                status = "violation" if problems else "ok"
                detail = "; ".join(problems)
            checks.append(
                AddingCheck(
                    left=left,
                    right=right,
                    mediant=mediant,
                    expected_word=expected_word,
                    found=found,
                    status=status,
                    detail=detail,
                )
            )
    return AddingReport(windows=tuple(windows), checks=tuple(checks))
