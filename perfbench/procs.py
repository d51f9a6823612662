"""Process-tree helpers: child listing, peak memory and group kills (Linux /proc)."""

from __future__ import annotations

import os
import signal
import subprocess
import threading


def children(pid: int) -> list[int]:
    """Live (or not yet reaped) direct children of ``pid``, over all its threads."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def is_zombie(pid: int) -> bool:
    """True for a process that has exited but is not yet reaped (or is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except OSError:
        return True


def tree(pid: int) -> list[int]:
    """``pid`` and all of its descendants."""
    pids = [pid]
    for p in pids:
        pids.extend(children(p))
    return pids


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process in KiB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreePeakRss(threading.Thread):
    """Samples the summed VmHWM of a process tree every 10 ms while it runs.

    VmHWM only grows, so the last sample before a process exits holds its
    whole peak; the sum counts pages shared between processes once per
    process, as resident-set figures do.
    """

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(0.01):
            total = sum(peak_rss_kb(p) for p in tree(self.pid))
            self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> int:
        self._done.set()
        self.join()
        return self.peak_kb


def kill_group(proc: subprocess.Popen) -> None:
    """Kill the process group led by ``proc`` (started with start_new_session) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and its descendants, found through /proc, and reap it.

    For a child that shares the caller's process group, where a group kill
    would take the caller with it.
    """
    for pid in tree(proc.pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def communicate(proc: subprocess.Popen, timeout: float, kill=kill_group) -> tuple:
    """``proc.communicate`` that kills the child with ``kill`` if it times out or is interrupted."""
    try:
        return proc.communicate(timeout=timeout)
    except BaseException:
        kill(proc)
        raise
