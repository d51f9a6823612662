"""Benchmark of ifstrobe: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree (``src/ifstrobe`` next to ``perfbench``);
nothing needs installing.  Each workload runs in interpreters of its own
(``workload.py``).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics ``wall_cal``, ``nodes_per_cal``, ``setup_s``
and ``peak_rss_mb``; with ``--trace 1`` it holds the per-layer metrics of
one traced run, whose spans go to ``perfbench/out/``.  ``--workload all``
runs every workload both ways and prints one line per run.  The exit code
is 1 when a check of the program's outputs fails, when a child times out
or when a child process is still alive at the end.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "ifstrobe" / "__init__.py"
WORKLOADS = ("staircase-width", "staircase-amplitude", "plane-scan-cli", "generic-rk45")

# set-up is timed in this many fresh interpreters per run (the measuring one included)
SETUP_SAMPLES = 3
# every run ends within this many seconds, or its children are killed
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def become_subreaper() -> None:
    """Adopt orphaned descendants, so the final check sees every process this run started."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def start_child(workload: str, seed: int, seconds: float, mode: str) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "workload.py"), workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)


def wait_ready(proc: subprocess.Popen, deadline: float) -> bytes:
    """Block until the child prints its ``ready`` line; returns any bytes read past it."""
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                raise BenchError("timed out waiting for the workload to set up")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError(f"workload exited during set-up (code {proc.wait()})")
            buf += chunk
    line, _, rest = buf.partition(b"\n")
    if line.strip() != b"ready":
        raise BenchError(f"unexpected first line from the workload: {line!r}")
    return rest


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start one workload interpreter; returns (set-up seconds, its JSON result or None)."""
    start = time.perf_counter()
    proc = start_child(workload, seed, seconds, mode)
    try:
        rest = wait_ready(proc, deadline)
        setup_s = time.perf_counter() - start
        out, _ = procs.communicate(proc, max(deadline - time.monotonic(), 0.0))
    except BaseException:
        procs.kill_group(proc)
        raise
    lines = (rest + out).decode().strip().splitlines()
    if mode == "setup":
        if proc.returncode != 0:
            raise BenchError(f"set-up run exited {proc.returncode}")
        return setup_s, None
    if not lines:
        raise BenchError(f"workload printed no result (exit code {proc.returncode})")
    return setup_s, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        run_child(workload, seed, seconds, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s, res = run_child(workload, seed, seconds, "measure", deadline)
    setups.append(setup_s)
    if "cals" not in res:  # the job raised; the errors say why
        return result_line(res, {})
    print(
        f"{workload}: {len(res['walls'])} rounds, median "
        f"{statistics.median(res['walls']):.4f} s, {statistics.median(res['cals']):.2f} cal",
        file=sys.stderr,
    )
    metrics = {
        "wall_cal": (statistics.median(res["cals"]), "cal"),
        "nodes_per_cal": (
            statistics.median(n / c for n, c in zip(res["nodes"], res["cals"])),
            "1/cal",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return result_line(res, metrics)


def trace(workload: str, seed: int, seconds: float) -> dict:
    _, res = run_child(workload, seed, seconds, "trace", time.monotonic() + RUN_BUDGET_S)
    return result_line(res, res.get("metrics", {}))


def result_line(res: dict, metrics: dict) -> dict:
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def stop_on_signal(signum, frame) -> None:
    raise BenchError(f"stopped by signal {signum}")


def reap_leftovers() -> list[int]:
    """Reap every child of this process; kill the live ones and return their pids.

    Children killed on a timeout re-parent here as zombies; only live ones
    count as left over.
    """
    children = procs.children(os.getpid())
    alive = [pid for pid in children if not procs.is_zombie(pid)]
    for pid in alive:
        for kill in (os.killpg, os.kill):
            try:
                kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    for pid in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return alive


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"no ifstrobe source tree at {PACKAGE.parent}", file=sys.stderr)
        return 2

    become_subreaper()
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGHUP, stop_on_signal)
    code = 0
    try:
        if args.workload == "all":
            runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        else:
            runs = [(args.workload, args.trace)]
        for workload, traced in runs:
            run = trace if traced else measure
            line = run(workload, args.seed, args.seconds)
            if args.workload == "all":
                print(f"{workload} --trace {traced}: ", end="")
            print(json.dumps(line), flush=True)
            code = code or (0 if line["correct"] else 1)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        code = 1
    finally:
        leftover = reap_leftovers()
    if leftover:
        print(f"benchmark failed: processes {leftover} outlived their workload", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
