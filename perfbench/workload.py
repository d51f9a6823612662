"""One workload of the benchmark, run in an interpreter of its own.

    python3 perfbench/workload.py WORKLOAD --seed N --seconds S --mode MODE

``run.py`` starts this script; it can also be run by hand.  It prints
``ready`` once ifstrobe is imported and the workload's inputs are built, so
the parent can time set-up from process start.  Then, by mode:

* ``setup``: exit.
* ``measure``: repeat the workload's job, untraced, for S seconds, check the
  outputs and print one JSON line with the round times, node counts, peak
  memory and check results.
* ``trace``: run the job once untraced and once with every public function
  of ifstrobe wrapped (see ``tracer.py``), check the outputs, write the
  spans to ``perfbench/out/trace-WORKLOAD-seedN.json`` and print one JSON
  line with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import procs
import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# the worked linear example of the paper: f(x) = -0.5 x + 0.2, theta = 1
A_COEF, B_COEF, THETA = -0.5, 0.2, 1.0
REF = reference.Linear(A_COEF, B_COEF, THETA)

# grid ends move by a seeded fraction of this share of the grid spacing; a
# larger shift would move nodes across window edges or into the thin tongues
# of long-period orbits, which changes the work a node costs
JITTER = 1e-3

# about 25 ms on a 2-vCPU VM.  The machine's speed drifts by tens of percent
# over seconds to minutes; timing each round against this many applications of
# the reference map, run just before and after it, cancels most of the drift.
# The map is pure-Python float arithmetic and calls, like ifstrobe's hot path:
# an integer loop in its place tracked the drift worse than no calibration.
CALIBRATION_MAPS = 10_000

CHECKED_NODES = 12
CLI_TIMEOUT_S = 120.0


def linear_field(x: float) -> float:
    return A_COEF * x + B_COEF


def linear_field_deriv(x: float) -> float:
    return A_COEF


def jittered(lo: float, hi: float, n: int, rng: random.Random) -> tuple[float, float]:
    spacing = (hi - lo) / (n - 1)
    return lo + rng.random() * JITTER * spacing, hi - rng.random() * JITTER * spacing


def grid(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * abs(y)


def check_against_reference(samples, forcing_at, picks, fail) -> None:
    """Converged nodes must match the reference attractor; others must have lost contraction."""
    for s in picks:
        if not s.converged:
            if s.contraction_ok:
                fail(f"T={s.T!r}: unconverged although the map contracts")
            continue
        A, d = forcing_at(s.T)
        orbit = reference.attractor(REF, A, s.T, d)
        if orbit is None or (orbit.period, orbit.eta) != (s.period_p, s.eta):
            got = None if orbit is None else (orbit.period, str(orbit.eta))
            fail(f"T={s.T!r}: (period, eta) = ({s.period_p}, {s.eta}), reference {got}")


class Workload:
    """Inputs built from the seed, one round of the job, and its checks.

    ``run`` is the measured round.  ``job`` is what the traced run times
    with and without wrappers; it is ``run`` unless the round happens in a
    child process that the wrappers cannot see.  Sweeps run in-process on
    one worker.
    """

    def __init__(self, ifs, seed: int) -> None:
        self.ifs = ifs
        self.rng = random.Random(seed)
        self.model = ifs.LinearModel(a=A_COEF, b=B_COEF, theta=THETA)

    def job(self):
        return self.run()

    def nodes(self, out) -> int:
        return len(out[0])

    def failed(self, out) -> int:
        return 0

    def picks(self, samples) -> list:
        return self.rng.sample(list(samples), min(CHECKED_NODES, len(samples)))

    def cleanup(self) -> None:
        pass


class StaircaseWidth(Workload):
    """Refined width-correction staircase from fast forcing to multi-spike windows."""

    A, d = 10 / 3, 0.2
    RESOLUTION = 600

    def __init__(self, ifs, seed: int) -> None:
        super().__init__(ifs, seed)
        self.mode = ifs.WidthCorrection(A=self.A, d=self.d)
        self.t_range = jittered(0.3, 30.0, self.RESOLUTION, self.rng)

    def run(self):
        ifs = self.ifs
        samples = ifs.sweep_T(self.model, self.mode, self.t_range, self.RESOLUTION, refine=True)
        return samples, ifs.verify_adding(samples), ifs.rate_limits(self.model, self.A, self.d)

    def check(self, out, fail) -> None:
        samples, report, limits = out
        check_against_reference(samples, lambda T: (self.A, self.d), self.picks(samples), fail)
        good = [s for s in samples if s.converged and s.contraction_ok]
        if len(good) < 0.9 * len(samples):
            fail(f"only {len(good)} of {len(samples)} nodes converged and contracting")
        for left, right in zip(good, good[1:]):
            if right.eta < left.eta:
                fail(f"eta decreases from {left.eta} to {right.eta} at T={right.T!r}")
            elif right.eta == left.eta and not right.rate < left.rate:
                fail(f"rate does not decrease inside the eta={left.eta} window at T={right.T!r}")
        for v in report.violations:
            fail(f"period-adding violation: {v.detail}")
        t1r, _ = reference.one_spike_window(REF, self.A, self.d)
        if not close(limits.r_max, 1.0 / t1r, 1e-9):
            fail(f"r_max {limits.r_max!r} != 1/T1R = {1.0 / t1r!r}")
        if not close(limits.r_infinity, reference.r_infinity(REF, self.A, self.d), 1e-12):
            fail(f"r_infinity {limits.r_infinity!r} != d/delta")


class StaircaseAmplitude(Workload):
    """Amplitude-correction staircase up to the slow-forcing limit: tens of spikes per map."""

    DELTA, Q = 3.0, 0.6667
    RESOLUTION = 300

    def __init__(self, ifs, seed: int) -> None:
        super().__init__(ifs, seed)
        self.mode = ifs.AmplitudeCorrection(delta=self.DELTA, Q=self.Q)
        # the lowest period stays at the pulse duration, where the map loses
        # contraction: that node is the workload's one unconverged node
        self.t_range = (self.DELTA, jittered(self.DELTA, 120.0, self.RESOLUTION, self.rng)[1])

    def run(self):
        return (self.ifs.sweep_T(self.model, self.mode, self.t_range, self.RESOLUTION),)

    def check(self, out, fail) -> None:
        (samples,) = out

        def forcing_at(T):
            return self.Q * T / self.DELTA, self.DELTA / T

        check_against_reference(samples, forcing_at, self.picks(samples), fail)
        last = samples[-1]
        if not close(last.rate, self.Q / THETA, 0.02):
            fail(f"rate {last.rate!r} at T={last.T!r} not within 2% of Q/theta")
        for s in samples:
            if not s.converged and s.contraction_ok:
                fail(f"T={s.T!r}: unconverged although the map contracts")


class GenericRk45(Workload):
    """A short width-correction sweep of the linear field wrapped as a GenericModel."""

    A, d = 10 / 3, 0.2
    RESOLUTION = 2

    def __init__(self, ifs, seed: int) -> None:
        super().__init__(ifs, seed)
        self.model = ifs.GenericModel(f=linear_field, f_deriv=linear_field_deriv, theta=THETA)
        self.mode = ifs.WidthCorrection(A=self.A, d=self.d)
        self.t_range = jittered(1.0, 1.7, self.RESOLUTION, self.rng)

    def run(self):
        return (self.ifs.sweep_T(self.model, self.mode, self.t_range, self.RESOLUTION),)

    def check(self, out, fail) -> None:
        (samples,) = out
        for s in samples:
            orbit = reference.attractor(REF, self.A, s.T, self.d)
            if orbit is None or (orbit.period, orbit.eta) != (s.period_p, s.eta):
                got = None if orbit is None else (orbit.period, str(orbit.eta))
                fail(f"T={s.T!r}: (period, eta) = ({s.period_p}, {s.eta}), reference {got}")
            elif not close(s.rate, orbit.spikes / (orbit.period * s.T), 1e-8):
                fail(f"T={s.T!r}: rate {s.rate!r} differs from the reference")


class PlaneScanCli(Workload):
    """``ifstrobe scan`` as a subprocess over a (d, 1/A) grid at T=1, two pool workers."""

    T, N, CAP, WORKERS = 1.0, 14, 20, 2
    # the grid does not move with the seed: the capped nodes cost about 90
    # times a normal node, and even a 1e-3 shift of the grid ends changes
    # their number by a few; the seed picks the nodes checked instead
    D_RANGE, IA_RANGE = (0.05, 0.95), (0.1, 4.0)
    HEADER = "d,invA,period,eta,capped,failed"

    def __init__(self, ifs, seed: int) -> None:
        super().__init__(ifs, seed)
        self.csv_path = OUT / f"scan-{os.getpid()}.csv"
        self.inproc_path = OUT / f"scan-inproc-{os.getpid()}.csv"
        self.peak_tree_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def argv(self, workers: int, path: Path) -> list[str]:
        (dmin, dmax), (iamin, iamax) = self.D_RANGE, self.IA_RANGE
        return [
            "scan", "--a", repr(A_COEF), "--b", repr(B_COEF), "--theta", repr(THETA),
            "--T", repr(self.T), "--dmin", repr(dmin), "--dmax", repr(dmax),
            "--dn", str(self.N), "--iamin", repr(iamin), "--iamax", repr(iamax),
            "--ian", str(self.N), "--cap", str(self.CAP), "--workers", str(workers),
            "-o", str(path),
        ]  # fmt: skip

    def run(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ifstrobe.cli", *self.argv(self.WORKERS, self.csv_path)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        sampler = procs.TreePeakRss(proc.pid)
        sampler.start()
        try:
            _, err = procs.communicate(proc, CLI_TIMEOUT_S, kill=procs.kill_tree)
        finally:
            self.peak_tree_kb = max(self.peak_tree_kb, sampler.stop())
        return proc.returncode, self.csv_path.read_bytes() if proc.returncode == 0 else b"", err

    def job(self):
        """The same scan through ``ifstrobe.cli.run`` in-process on one worker, so spans are seen."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = sys.modules["ifstrobe.cli"].run(self.argv(1, self.inproc_path))
        return code, self.inproc_path.read_bytes() if code == 0 else b"", b""

    def nodes(self, out) -> int:
        return self.N * self.N

    def failed(self, out) -> int:
        code, data, _ = out
        if code != 0:
            return self.N * self.N
        return sum(row["failed"] != "0" for row in csv.DictReader(io.StringIO(data.decode())))

    def check(self, out, fail) -> None:
        code, data, err = out
        if code != 0:
            fail(f"ifstrobe scan exited {code}: {err.decode(errors='replace').strip()}")
            return
        lines = data.decode().split("\n")
        if lines[0] != self.HEADER:
            fail(f"CSV header {lines[0]!r}")
            return
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        nodes = [(d, ia) for d in grid(*self.D_RANGE, self.N) for ia in grid(*self.IA_RANGE, self.N)]
        if len(rows) != len(nodes):
            fail(f"{len(rows)} CSV rows for {len(nodes)} nodes")
            return
        qc = REF.critical_dose()
        for (d, ia), row in zip(nodes, rows):
            if not (close(float(row["d"]), d, 1e-11) and close(float(row["invA"]), ia, 1e-11)):
                fail(f"row ({row['d']}, {row['invA']}) is not node ({d!r}, {ia!r})")
            if row["failed"] != "0":
                fail(f"node ({d!r}, {ia!r}) failed")
            if 1.0 / ia < qc and (row["period"], row["eta"]) != ("1", "0"):
                fail(f"node ({d!r}, {ia!r}) below the critical dose has period {row['period']}")
        for k in self.rng.sample(range(len(nodes)), CHECKED_NODES):
            (d, ia), row = nodes[k], rows[k]
            orbit = reference.attractor(REF, 1.0 / ia, self.T, d, max_period=self.CAP)
            if row["capped"] == "1":
                if orbit is not None:
                    fail(f"node ({d!r}, {ia!r}) capped, reference period {orbit.period}")
            elif orbit is None or (row["period"], row["eta"]) != (
                str(orbit.period),
                f"{float(orbit.eta):.12g}",
            ):
                got = None if orbit is None else (orbit.period, str(orbit.eta))
                fail(f"node ({d!r}, {ia!r}): ({row['period']}, {row['eta']}), reference {got}")

    def cli_metrics(self) -> tuple[dict[str, tuple[float, str]], tuple]:
        """Import time of ifstrobe.cli in fresh interpreters, and one timed ``ifstrobe scan``."""
        probe = "import time; t = time.perf_counter(); import ifstrobe.cli; print(time.perf_counter() - t)"
        imports = []
        for _ in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-c", probe],
                env=self.env,
                stdout=subprocess.PIPE,
            )
            imports.append(float(procs.communicate(proc, CLI_TIMEOUT_S, kill=procs.kill_tree)[0]))
        start = time.perf_counter()
        cli_out = self.run()
        elapsed = time.perf_counter() - start
        return {
            "cli.import_s": (statistics.median(imports), "s"),
            "cli.process_s": (elapsed, "s"),
            "cli.csv_bytes": (len(cli_out[1]), "bytes"),
        }, cli_out

    def cleanup(self) -> None:
        for path in (self.csv_path, self.inproc_path):
            path.unlink(missing_ok=True)


WORKLOADS = {
    "staircase-width": StaircaseWidth,
    "staircase-amplitude": StaircaseAmplitude,
    "plane-scan-cli": PlaneScanCli,
    "generic-rk45": GenericRk45,
}


def calibration_s() -> float:
    """Time of a fixed run of the reference map: the unit ``cal`` of the timed metrics."""
    start = time.perf_counter()
    x = 0.0
    for i in range(CALIBRATION_MAPS):
        x = reference.map_period(REF, 10 / 3, 1.6 + (i % 7) * 0.01, 0.2, x)[0]
    return time.perf_counter() - start


def measure(wl: Workload, seconds: float, fail) -> dict:
    """Whole rounds of the job until ``seconds`` have passed; checks the first round's output.

    Each round is bracketed by calibration loops, and its time is also
    given in units of their mean (``cals``).
    """
    walls, cals, nodes, attempted, failed = [], [], [], 0, 0
    first = None
    before = calibration_s()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        out = wl.run()
        wall = time.perf_counter() - start
        after = calibration_s()
        walls.append(wall)
        cals.append(wall / (0.5 * (before + after)))
        before = after
        nodes.append(wl.nodes(out))
        attempted += wl.nodes(out)
        failed += wl.failed(out)
        if first is None:
            first = out
        elif out != first:
            fail(f"round {len(walls)} gave other outputs than round 1")
        if time.perf_counter() >= deadline:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + getattr(wl, "peak_tree_kb", 0)
    wl.check(first, fail)
    return {
        "walls": walls,
        "cals": cals,
        "nodes": nodes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def trace(wl: Workload, path: Path, fail) -> dict:
    """The job untraced, then traced; per-layer metrics and the tracing overhead."""
    metrics = {"cli.import_s": (0.0, "s"), "cli.process_s": (0.0, "s"), "cli.csv_bytes": (0, "bytes")}
    cli_out = None
    if isinstance(wl, PlaneScanCli):
        cli, cli_out = wl.cli_metrics()
        metrics.update(cli)
        wl.check(cli_out, fail)
    start = time.perf_counter()
    plain = wl.job()
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        out = wl.job()
        traced_s = time.perf_counter() - start
    if out != plain:
        fail("the traced job gave other outputs than the untraced one")
    if cli_out is not None and cli_out[1] != out[1]:
        fail("the CSV of the two-worker subprocess differs from the one-worker in-process CSV")
    wl.check(out, fail)
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    path.write_text(
        json.dumps(
            {"untraced_s": plain_s, "traced_s": traced_s, "metrics": metrics, **tracer.dump()},
            indent=1,
        )
    )
    return {
        "metrics": metrics,
        "attempted": wl.nodes(out),
        "failed": wl.failed(out),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ifstrobe

    if Path(ifstrobe.__file__).resolve().parent != SRC / "ifstrobe":
        print(f"ifstrobe imported from {ifstrobe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "plane-scan-cli":
        import ifstrobe.cli  # noqa: F401
    wl = WORKLOADS[args.workload](ifstrobe, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    OUT.mkdir(exist_ok=True)
    errors: list[str] = []
    try:
        if args.mode == "measure":
            result = measure(wl, args.seconds, errors.append)
        else:
            result = trace(wl, OUT / f"trace-{args.workload}-seed{args.seed}.json", errors.append)
    except Exception:  # reported as a failed check, with the traceback on stderr
        traceback.print_exc()
        errors.append("the job raised: " + traceback.format_exc().strip().splitlines()[-1])
        result = {"attempted": 0, "failed": 0}
    finally:
        wl.cleanup()
    leftover = procs.children(os.getpid())
    if leftover:
        errors.append(f"child processes still alive: {leftover}")
    result["errors"] = errors
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
