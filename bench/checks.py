"""Output checks: a workload run counts as failed when any of these fails.

Each check takes the ``outputs`` dict a workload produced and returns a list
of failure messages (empty when the run is correct).  At the default seed the
outputs are also compared with the result pinned in pinned.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

PINNED_PATH = Path(__file__).with_name("pinned.json")

# Relative tolerance against the pinned result.  Reordered floating-point work
# (a DST-I in place of the dense synthesis agrees to 2e-11, BLAS blocking moves
# the last bits) perturbs a path by ~1e-11 relative; the RMS errors are ~1e-3 of
# the solution, so they move by ~1e-8 relative.  A changed scheme, noise draw or
# coupling moves them by 1e-3 or more.
PIN_RTOL = 1e-6

CONVERGE_SLOPE = (0.8, 1.2)
ENERGY_SIGMAS = 4.0
SPATIAL_MIN_SLOPE = 0.6


def _strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


def _exit_ok(outputs):
    code = outputs.get("exit_code", 0)
    return [] if code == 0 else [f"exit code {code}"]


def check_converge(outputs):
    fails = _exit_ok(outputs)
    lo, hi = CONVERGE_SLOPE
    for scheme, res in outputs["schemes"].items():
        if not lo <= res["slope"] <= hi:
            fails.append(f"{scheme}: slope {res['slope']:.4f} outside [{lo}, {hi}]")
        if not _strictly_decreasing(res["rms"]):
            fails.append(f"{scheme}: errors not monotone in tau: {res['rms']}")
        if res["excluded"] != 0:
            fails.append(f"{scheme}: {res['excluded']} paths excluded")
    return fails


def check_energy(outputs):
    fails = _exit_ok(outputs)
    worst = max(
        (abs(m - p) - ENERGY_SIGMAS * se, n)
        for n, (m, se, p) in enumerate(
            zip(outputs["mean_V"], outputs["stderr_V"], outputs["predicted_V"]))
    )
    if worst[0] > 0.0:
        fails.append(f"step {worst[1]}: |mean V - predicted| exceeds "
                     f"{ENERGY_SIGMAS:g} standard errors by {worst[0]:.3e}")
    return fails


def check_spatial(outputs):
    fails = _exit_ok(outputs)
    if not _strictly_decreasing(outputs["rms"]):
        fails.append(f"errors not monotone in h: {outputs['rms']}")
    if not outputs["slope"] >= SPATIAL_MIN_SLOPE:
        fails.append(f"slope {outputs['slope']:.4f} below {SPATIAL_MIN_SLOPE}")
    return fails


CHECKS = {
    "converge-ladder": check_converge,
    "energy-diag": check_energy,
    "spatial-fem": check_spatial,
}


def pinned_view(workload, outputs):
    """The numbers compared with the pin: every RMS error and slope, every 16th energy step."""
    if workload == "converge-ladder":
        view = {}
        for scheme, res in outputs["schemes"].items():
            view[f"{scheme}.rms"] = res["rms"]
            view[f"{scheme}.slope"] = [res["slope"]]
        return view
    if workload == "energy-diag":
        return {k: outputs[k][::16] for k in ("mean_V", "stderr_V", "predicted_V")}
    return {"rms": outputs["rms"], "slope": [outputs["slope"]]}


def compare_pinned(workload, outputs, pinned):
    fails = []
    view = pinned_view(workload, outputs)
    for key, want in pinned.items():
        got = view.get(key)
        if got is None or len(got) != len(want):
            fails.append(f"pinned {key}: shape differs")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if not math.isclose(g, w, rel_tol=PIN_RTOL, abs_tol=0.0):
                fails.append(f"pinned {key}[{i}]: {g!r} vs {w!r} (rtol {PIN_RTOL:g})")
                break
    return fails


def load_pinned():
    return json.loads(PINNED_PATH.read_text())


def check(workload, outputs, seed, pinned=None):
    """All failure messages for one run of `workload` at `seed`."""
    fails = CHECKS[workload](outputs)
    if seed == DEFAULT_SEED:
        pins = (load_pinned() if pinned is None else pinned).get(workload)
        if pins is None:
            fails.append("no pinned result at the default seed")
        else:
            fails += compare_pinned(workload, outputs, pins)
    return fails
