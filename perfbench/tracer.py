"""Spans and counts recorded around calls into ifstrobe's public functions.

The wrappers live here, outside the package.  Two things make installing
them less obvious than assigning a module attribute:

* ``ifstrobe.strobe`` is the function, not the module, because the package
  re-exports the function under the module's name.  Modules are therefore
  looked up in ``sys.modules``.
* Modules bind the names they import (``ifstrobe.sweep.attractor``,
  ``ifstrobe.strobe.time_to_threshold``, ``ifstrobe.bifurcation.flow``, the
  package's own re-exports, ...).  :meth:`Tracer.installed` replaces every
  binding in every ``ifstrobe`` module that refers to a traced function.

Each traced call adds its count and its self time (duration minus the time
spent in traced calls nested inside it).  Calls at the coarse layers also
keep a span (id, parent id, name, start, end) in memory; the hot leaf
functions (``strobe``, ``flow``, ``time_to_threshold``, ``solve_ivp``) run
millions of times per job, so for them only the totals are kept.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, traced name, keep spans)
TRACED = (
    ("ifstrobe.model", "flow", "model.flow", False),
    ("ifstrobe.model", "time_to_threshold", "model.time_to_threshold", False),
    ("ifstrobe.model", "solve_ivp", "model.solve_ivp", False),
    ("ifstrobe.strobe", "strobe", "strobe.strobe", False),
    ("ifstrobe.strobe", "boundary_sigma", "strobe.boundary_sigma", True),
    ("ifstrobe.strobe", "attractor", "strobe.attractor", True),
    ("ifstrobe.bifurcation", "bif_T", "bifurcation.bif_T", True),
    ("ifstrobe.bifurcation", "rate_limits", "bifurcation.rate_limits", True),
    ("ifstrobe.sweep", "sweep_T", "sweep.sweep_T", True),
    ("ifstrobe.sweep", "scan_plane", "sweep.scan_plane", True),
    ("ifstrobe.sweep", "verify_adding", "sweep.verify_adding", True),
    ("ifstrobe.cli", "run", "cli.run", True),
)


class Tracer:
    """Per-name call counts, self times, spans and result-derived totals."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.spikes = 0  # spikes returned by strobe
        self.nodes = 0  # parameter nodes returned by sweep_T and scan_plane
        self.unconverged_s = 0.0  # time in attractor calls that did not converge
        self._stack: list[list] = []  # [child seconds, span id in scope]
        self._ids = itertools.count()

    def _on_result(self, name: str, result, elapsed: float) -> None:
        if name == "strobe.strobe":
            self.spikes += result.spikes
        elif name == "strobe.attractor":
            if not result.converged:
                self.unconverged_s += elapsed
        elif name == "sweep.sweep_T":
            self.nodes += len(result)
        elif name == "sweep.scan_plane":
            self.nodes += result.period.size

    def wrap(self, name: str, fn, keep_span: bool):
        stack, calls, self_s, spans, ids = (
            self._stack, self.calls, self.self_s, self.spans, self._ids
        )
        watch = name in ("strobe.strobe", "strobe.attractor", "sweep.sweep_T", "sweep.scan_plane")

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = next(ids) if keep_span else parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans.append((span_id, parent, name, start, end))
            if watch:
                self._on_result(name, result, elapsed)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every ifstrobe binding of the traced functions through wrappers."""
        originals = {}
        for module, attr, name, keep_span in TRACED:
            if module in sys.modules:  # ifstrobe.cli is imported only by the CLI workload
                fn = getattr(sys.modules[module], attr)
                originals[id(fn)] = (fn, self.wrap(name, fn, keep_span))
        replaced = []
        for modname, module in list(sys.modules.items()):
            if modname != "ifstrobe" and not modname.startswith("ifstrobe."):
                continue
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures of everything traced so far, as (value, unit)."""
        calls, self_s = self.calls, self.self_s

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        nodes = calls["strobe.attractor"]
        metrics = {}
        for name in (
            "model.time_to_threshold",
            "model.flow",
            "model.solve_ivp",
            "strobe.strobe",
            "strobe.boundary_sigma",
            "strobe.attractor",
        ):
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics.update(
            {
                "strobe.spikes_per_map": (per(self.spikes, calls["strobe.strobe"]), "spikes/map"),
                "strobe.boundary_sigma_per_node": (
                    per(calls["strobe.boundary_sigma"], nodes),
                    "calls/node",
                ),
                "strobe.maps_per_node": (per(calls["strobe.strobe"], nodes), "maps/node"),
                "strobe.attractor.unconverged_s": (self.unconverged_s, "s"),
                "bifurcation.bif_T.calls": (calls["bifurcation.bif_T"], "count"),
                "bifurcation.rate_limits.self_s": (self_s["bifurcation.rate_limits"], "s"),
                "sweep.nodes": (self.nodes, "count"),
                "sweep.sweep_T.self_s": (self_s["sweep.sweep_T"], "s"),
                "sweep.verify_adding.self_s": (self_s["sweep.verify_adding"], "s"),
                "sweep.scan_plane.self_s": (self_s["sweep.scan_plane"], "s"),
            }
        )
        return metrics

    def dump(self) -> dict:
        """Spans (times relative to the first span's start) and totals."""
        origin = min((s[3] for s in self.spans), default=0.0)
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s - origin, "end": e - origin}
                for i, p, n, s, e in sorted(self.spans, key=lambda s: s[0])
            ],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
