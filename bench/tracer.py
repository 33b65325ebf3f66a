"""Outside-in tracer for savwave's layers.

The tracer replaces public callables at the module or class attribute their
caller looks up (``harness.step_exponential_sav``, ``schemes.drift_core``,
``model.Discretization.nodal``, ``noise.RngStream.normals``, ...) with
wrappers that time each call as a span, and puts the originals back on
``uninstall``.  Nothing under ``src/`` is modified.

Spans are aggregated in memory per (span name, inside-a-step flag) as call
count, total time and self time, where self time is a span's duration minus
the time its child spans cover.  Pool workers are forked with the wrappers in
place; each chunk a worker runs is recorded as a root span, written to a spool
directory when the chunk ends, and merged back when the study returns.  The
chunk intervals count as children of the study span, so the study's self time
is the orchestration the parent does outside every chunk.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

perf = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

STEP_SPANS = ("schemes.step_exponential_sav", "schemes.step_midpoint_sav")

# (module, attribute looked up by the caller, span name, kind)
TARGETS = (
    ("savwave.cli", "strong_convergence", "harness.strong_convergence", "study"),
    ("savwave.cli", "energy_evolution", "harness.energy_evolution", "study"),
    ("savwave.harness", "spatial_refinement", "harness.spatial_refinement", "study"),
    ("savwave.cli", "write_csv", "cli.write_csv", "plain"),
    ("savwave.harness", "_convergence_chunk", "harness.chunk", "chunk"),
    ("savwave.harness", "_energy_chunk", "harness.chunk", "chunk"),
    ("savwave.harness", "_spatial_chunk", "harness.chunk", "chunk"),
    ("savwave.harness", "spectral_discretization", "model.spectral_discretization", "plain"),
    ("savwave.harness", "sav_radicand", "model.sav_radicand", "plain"),
    ("savwave.harness", "wave_group_table", "spectral.wave_group_table", "plain"),
    ("savwave.harness", "trace_operator", "noise.trace_operator", "factory"),
    ("savwave.harness", "step_exponential_sav", "schemes.step_exponential_sav", "plain"),
    ("savwave.harness", "step_midpoint_sav", "schemes.step_midpoint_sav", "plain"),
    ("savwave.schemes", "drift_core", "model.drift_core", "plain"),
    ("savwave.schemes", "diffusion_values", "model.diffusion_values", "plain"),
    ("savwave.schemes", "apply_g_core", "model.apply_g_core", "plain"),
    ("savwave.schemes", "sav_radicand", "model.sav_radicand", "plain"),
    ("savwave.schemes", "modified_energy", "schemes.modified_energy", "plain"),
    ("savwave.model", "Discretization.nodal", "model.nodal", "plain"),
    ("savwave.model", "Discretization.nodal_deriv", "model.nodal_deriv", "plain"),
    ("savwave.model", "Discretization.project", "model.project", "plain"),
    ("savwave.noise", "RngStream.normals", "noise.normals", "plain"),
    ("savwave.fem", "assemble", "fem.assemble", "plain"),
    ("savwave.fem", "ritz_project", "fem.ritz_project", "plain"),
    ("savwave.fem", "l2_project", "fem.l2_project", "plain"),
    ("savwave.fem", "noise_projection_matrix", "fem.noise_projection_matrix", "plain"),
    ("savwave.fem", "linear_interp_matrix", "fem.linear_interp_matrix", "plain"),
)


def _resolve(module_name, attr):
    """(owner object, attribute name) for 'name' or 'Class.name' on a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def union_length(intervals, lo, hi):
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Installs the span wrappers and holds the aggregates of one traced run."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.stack = []  # open spans: [name, in_step, child_seconds]
        self.stats = {}  # (name, in_step) -> [calls, total_s, self_s]
        self.installed = []  # (owner, attr, original)
        self.missing = []

    # -- installation -------------------------------------------------------

    def install(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for module_name, attr, name, kind in TARGETS:
            try:
                owner, key = _resolve(module_name, attr)
                original = vars(owner)[key]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.installed.append((owner, key, original))
            setattr(owner, key, self.wrap(name, original, kind))

    def uninstall(self):
        while self.installed:
            owner, key, original = self.installed.pop()
            setattr(owner, key, original)

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, kind="plain"):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind == "chunk" and os.getpid() != tracer.pid:
                return tracer._worker_chunk(name, fn, args, kwargs)
            out = tracer.call(name, fn, kind, *args, **kwargs)
            if kind == "factory":
                out = tracer.wrap(f"{name}.apply", out)
            return out

        return traced

    def run(self, fn, *args):
        """Run fn(*args) as the root span; its self time is the time no layer covers."""
        return self.call("bench.workload", fn, "study", *args)

    def call(self, name, fn, kind, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span named `name`."""
        stack = self.stack
        parent = stack[-1] if stack else None
        in_step = parent is not None and (parent[1] or parent[0] in STEP_SPANS)
        frame = [name, in_step, 0.0]
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            if kind == "study":
                frame[2] += self._merge_spool(t0, t1)
            dt = t1 - t0
            if parent is not None:
                parent[2] += dt
            stat = self.stats.get((name, in_step))
            if stat is None:
                stat = self.stats[(name, in_step)] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[2]

    def _worker_chunk(self, name, fn, args, kwargs):
        # A forked pool worker inherits the parent's open spans and totals;
        # start clean, run the chunk as a root span and hand its totals back.
        self.stack, self.stats = [], {}
        t0 = perf()
        out = self.call(name, fn, "plain", *args, **kwargs)
        t1 = perf()
        record = {"interval": [t0, t1],
                  "stats": [[n, s, *v] for (n, s), v in self.stats.items()]}
        path = self.spool_dir / f"chunk-{os.getpid()}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps(record))
        return out

    def _merge_spool(self, lo, hi):
        """Fold worker chunk totals into ours; return the time their chunks covered."""
        intervals = []
        for path in sorted(self.spool_dir.glob("chunk-*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            intervals.append(record["interval"])
            for name, in_step, calls, total, self_s in record["stats"]:
                stat = self.stats.setdefault((name, in_step), [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += self_s
        return union_length(intervals, lo, hi)

    # -- results ------------------------------------------------------------

    def _sum(self, names, field, in_step=None):
        return sum(v[field] for (n, s), v in self.stats.items()
                   if n in names and (in_step is None or s == in_step))

    def layer_metrics(self):
        """The per-layer metrics of the benchmark, from this run's aggregates."""
        calls, total, self_s = 0, 1, 2
        steps = self._sum(STEP_SPANS, calls)
        per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
        return {
            "model.transform_self_s": self._sum(
                ("model.nodal", "model.nodal_deriv", "model.project"), self_s),
            "model.nodal_calls_per_step": per_step(self._sum(("model.nodal",), calls, True)),
            "model.project_calls_per_step": per_step(self._sum(("model.project",), calls, True)),
            "model.nonlinearity_self_s": self._sum(
                ("model.drift_core", "model.diffusion_values", "model.apply_g_core",
                 "model.sav_radicand"), self_s),
            "schemes.step_self_s": self._sum(STEP_SPANS, self_s),
            "schemes.step_calls": steps,
            "schemes.diagnostics_s": self._sum(
                ("schemes.modified_energy", "model.sav_radicand", "noise.trace_operator.apply"),
                total, True),
            "noise.draw_s": self._sum(("noise.normals",), total),
            "noise.normals_calls": self._sum(("noise.normals",), calls),
            "fem.setup_s": self._sum(
                ("fem.assemble", "fem.ritz_project", "fem.l2_project",
                 "fem.noise_projection_matrix"), total),
            "harness.other_self_s": sum(v[self_s] for (n, _), v in self.stats.items()
                                        if n.startswith("harness.")),
            "cli.write_s": self._sum(("cli.write_csv",), total),
        }

    def spans(self):
        """Aggregates as a JSON-ready list, heaviest self time first."""
        rows = [{"span": n, "in_step": s, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, s), v in self.stats.items()]
        return sorted(rows, key=lambda r: -r["self_s"])
