"""Layer micro-grid: median cost of one call of each layer operation, tracing off.

Cells cover K in {64, 256, 1024} sine modes and B in {1, 25, 250} batched
paths with f = g = sine.  Cells at K <= 64 predict converge-ladder; cells at
K >= 256 predict energy-diag and spatial-fem.  Run in a fresh process with
one BLAS thread (the parent sets it):

    python3 bench/microgrid.py     # prints one JSON object
"""

from __future__ import annotations

import json
import statistics
import sys
import time

KS = (64, 256, 1024)
BS = (1, 25, 250)
ELEMENTS = (64, 256)
TAU = 2.0**-9
MIN_REPS = 3
MIN_SECONDS = 0.1


def median_us(fn):
    """Median wall time of fn() in microseconds, after one warm-up call."""
    fn()
    times = []
    stop = time.perf_counter() + MIN_SECONDS
    while len(times) < MIN_REPS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def paired_us(fn_a, fn_b):
    """Median cost of fn_a and median of (fn_b - fn_a), timed back to back in pairs.

    Pairing keeps the difference of two similar costs from drifting with the
    machine's speed between two separate measurements.
    """
    fn_a()
    fn_b()
    a, diff = [], []
    stop = time.perf_counter() + 2 * MIN_SECONDS
    while len(a) < MIN_REPS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn_a()
        t1 = time.perf_counter()
        fn_b()
        t2 = time.perf_counter()
        a.append(t1 - t0)
        diff.append((t2 - t1) - (t1 - t0))
    return statistics.median(a) * 1e6, statistics.median(diff) * 1e6


def grid():
    import numpy as np

    from savwave import fem, model, noise, schemes, spectral

    out = {}
    rng = np.random.default_rng(20260810)
    for K in KS:
        ops = model.spectral_discretization(K)
        problem = model.make_problem(f="sine", g="sine", modes=K)
        table = spectral.wave_group_table(ops.lam, TAU)
        trace_fn = noise.trace_operator(problem.noise, ops)
        decay = 1.0 / np.arange(1, K + 1) ** 2
        for B in BS:
            u = problem.u0.coeffs + 0.1 * rng.standard_normal((B, K)) * decay
            v = 0.1 * rng.standard_normal((B, K)) * decay
            state = schemes.SavState(u, v, np.sqrt(model.sav_radicand(u, problem, ops)))
            dw = np.sqrt(problem.noise.q * TAU) * rng.standard_normal((B, K))
            vals = ops.nodal(u)
            streams = [noise.RngStream(1, b) for b in range(B)]
            cell = f"K{K}.B{B}"
            out[f"model.nodal_us.{cell}"] = median_us(lambda: ops.nodal(u))
            out[f"model.project_us.{cell}"] = median_us(lambda: ops.project(vals))
            out[f"model.drift_core_us.{cell}"] = median_us(
                lambda: model.drift_core(u, problem, ops))
            step, diagnostics = paired_us(
                lambda: schemes.step_exponential_sav(
                    state, dw, table, problem, ops, diagnostics=False),
                lambda: schemes.step_exponential_sav(
                    state, dw, table, problem, ops, diagnostics=True, trace_fn=trace_fn))
            out[f"schemes.step_exponential_us.{cell}"] = step
            out[f"schemes.step_midpoint_us.{cell}"] = median_us(lambda: schemes.step_midpoint_sav(
                state, dw, TAU, problem, ops, diagnostics=False))
            out[f"schemes.diagnostics_us.{cell}"] = diagnostics
            out[f"noise.draw_us.{cell}"] = median_us(lambda: [s.normals(K) for s in streams])
        out[f"spectral.table_build_us.K{K}"] = median_us(
            lambda: spectral.spectral_group_table(K, TAU))
    for E in ELEMENTS:
        out[f"fem.assemble_ms.E{E}"] = median_us(lambda: fem.assemble(E)) / 1e3
    return out


def metric_names():
    cells = [f"K{K}.B{B}" for K in KS for B in BS]
    ops = ("model.nodal_us", "model.project_us", "model.drift_core_us",
           "schemes.step_exponential_us", "schemes.step_midpoint_us",
           "schemes.diagnostics_us", "noise.draw_us")
    return ([f"{op}.{c}" for op in ops for c in cells]
            + [f"spectral.table_build_us.K{K}" for K in KS]
            + [f"fem.assemble_ms.E{E}" for E in ELEMENTS])


if __name__ == "__main__":
    print(json.dumps(grid()))
    sys.exit(0)
