"""Self-tests of the benchmark: the output checks bite and the tracer is sound.

    python3 -m pytest -q bench

The repository's own suite (tests/) does not collect this file, so it adds
nothing to the tier-1 run.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from microgrid import metric_names  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OTHER_SEED = DEFAULT_SEED + 1


# ---------------------------------------------------------------------------
# Output checks: a correct result passes, every perturbed result fails.


def converge_ok():
    taus = [2.0**-e for e in WORKLOADS["converge-ladder"].tau_exps]
    return {"exit_code": 0, "schemes": {
        s: {"taus": taus, "rms": [0.2 * t for t in taus], "excluded": 0, "slope": 1.0}
        for s in ("exponential", "midpoint")}}


def energy_ok():
    n = 257
    return {"exit_code": 0, "mean_V": [1.0 + 0.01 * i for i in range(n)],
            "stderr_V": [0.0] + [0.05] * (n - 1),
            "predicted_V": [1.0 + 0.01 * i + (0.1 if i else 0.0) for i in range(n)]}


def spatial_ok():
    widths = [2.0**-e for e in WORKLOADS["spatial-fem"].h_exps]
    return {"exit_code": 0, "widths": widths, "rms": [0.5 * h for h in widths], "slope": 1.0}


def perturb(outputs, edit):
    out = copy.deepcopy(outputs)
    edit(out)
    return out


def _set(path, value):
    def edit(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _swap_first_two(path):
    def edit(out):
        node = out
        for key in path:
            node = node[key]
        node[0], node[1] = node[1], node[0]
    return edit


CASES = {
    "converge-ladder": (converge_ok, [
        _set(("schemes", "midpoint", "slope"), 1.25),
        _set(("schemes", "exponential", "slope"), 0.75),
        _swap_first_two(("schemes", "exponential", "rms")),
        _set(("schemes", "midpoint", "excluded"), 1),
        _set(("exit_code",), 3),
    ]),
    "energy-diag": (energy_ok, [
        _set(("mean_V", 200), 1.0 + 0.01 * 200 + 0.1 + 4.01 * 0.05),
        _set(("predicted_V", 10), 5.0),
        _set(("exit_code",), 1),
    ]),
    "spatial-fem": (spatial_ok, [
        _swap_first_two(("rms",)),
        _set(("slope",), 0.59),
        _set(("exit_code",), 3),
    ]),
}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_checks_pass_a_correct_result(workload):
    make, _ = CASES[workload]
    assert checks.check(workload, make(), OTHER_SEED) == []


@pytest.mark.parametrize("workload,index",
                         [(w, i) for w, (_, edits) in sorted(CASES.items())
                          for i in range(len(edits))])
def test_checks_fail_a_perturbed_result(workload, index):
    make, edits = CASES[workload]
    assert checks.check(workload, perturb(make(), edits[index]), OTHER_SEED) != []


def outputs_from_pins(workload, pins):
    """An outputs dict whose pinned view equals `pins` exactly."""
    if workload == "converge-ladder":
        out = converge_ok()
        for scheme, res in out["schemes"].items():
            res["rms"] = list(pins[f"{scheme}.rms"])
            res["slope"] = pins[f"{scheme}.slope"][0]
        return out
    if workload == "energy-diag":
        n = 16 * (len(pins["mean_V"]) - 1) + 1
        return {"exit_code": 0, **{k: [pins[k][i // 16] for i in range(n)]
                                   for k in ("mean_V", "stderr_V", "predicted_V")}}
    out = spatial_ok()
    out["rms"], out["slope"] = list(pins["rms"]), pins["slope"][0]
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pinned_comparison_allows_reordering_and_catches_changes(workload):
    pins = checks.load_pinned()[workload]
    exact = outputs_from_pins(workload, pins)
    assert checks.compare_pinned(workload, exact, pins) == []
    key = sorted(pins)[0]
    reordered = copy.deepcopy(pins)
    reordered[key][-1] *= 1.0 + 1e-9
    assert checks.compare_pinned(workload, outputs_from_pins(workload, reordered), pins) == []
    changed = copy.deepcopy(pins)
    changed[key][-1] *= 1.0 + 1e-5
    assert checks.compare_pinned(workload, outputs_from_pins(workload, changed), pins) != []


def test_default_seed_requires_a_pin():
    assert checks.check("spatial-fem", spatial_ok(), DEFAULT_SEED, pinned={}) != []


# ---------------------------------------------------------------------------
# Tracer.


def _small_energy():
    from savwave import harness

    study = harness.EnergyStudy(f="sine", g="sine", modes=64, T=1.0, tau=2.0**-7,
                                realizations=8, chunk=4)
    return harness.energy_evolution(study, workers=1)


def _small_converge(workers):
    from savwave import harness

    study = harness.ConvergenceStudy(f="sine", g="sine", modes=16, T=0.25, tau_exps=(4, 5),
                                     ref_exp=7, realizations=4, chunk=2)
    return harness.strong_convergence(study, workers=workers)


def _cli_converge(tmp_path, workers):
    from savwave import cli

    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem.f = sine\nproblem.g = sine\nspace.modes = 16\ntime.T = 0.25\n"
                   "converge.tau_exps = 4 5\nconverge.ref_exp = 7\nmc.realizations = 4\n"
                   "mc.chunk = 2\n")
    return cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", str(workers)])


def traced(tmp_path, fn, *args):
    tr = tracer_mod.Tracer(tmp_path / "spool")
    tr.install()
    try:
        t0 = time.perf_counter()
        tr.run(fn, *args)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    return tr, wall


def test_self_times_and_uncovered_time_add_up_to_the_traced_wall(tmp_path):
    tr, wall = traced(tmp_path, _small_energy)
    assert tr.missing == []
    covered = sum(v[2] for v in tr.stats.values())  # bench.workload's self is the uncovered time
    assert abs(covered - wall) <= 0.01 * wall
    assert tr.layer_metrics()["model.nodal_calls_per_step"] == 4.0


def test_worker_chunks_are_children_of_the_study(tmp_path):
    tr, wall = traced(tmp_path, _cli_converge, tmp_path, 2)
    study = tr.stats[("harness.strong_convergence", False)]
    chunks = tr.stats[("harness.chunk", False)]
    assert chunks[0] == 4  # 2 schemes x 2 chunks, run in the pool workers
    assert 0.0 <= study[2] < study[1] <= wall
    assert tr.layer_metrics()["model.nodal_calls_per_step"] == 3.0
    assert list(tr.spool_dir.iterdir()) == []


def test_counts_repeat_exactly(tmp_path):
    def counts(workers):
        tr, _ = traced(tmp_path, _small_converge, workers)
        return {key: v[0] for key, v in tr.stats.items()}

    first = counts(2)
    assert first == counts(2)
    assert first == counts(1)


def test_wrappers_are_removed_afterwards(tmp_path):
    originals = {}
    for module, attr, _, _ in tracer_mod.TARGETS:
        owner, key = tracer_mod._resolve(module, attr)
        originals[(module, attr)] = vars(owner)[key]
    tr, _ = traced(tmp_path, _small_energy)
    for (module, attr), original in originals.items():
        owner, key = tracer_mod._resolve(module, attr)
        assert vars(owner)[key] is original, f"{module}.{attr} still wrapped"
    before = copy.deepcopy(tr.stats)
    _small_energy()
    assert tr.stats == before


def test_union_length_merges_overlaps_and_clips():
    assert tracer_mod.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracer_mod.union_length([(0, 4)], 1, 2) == 1


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints.


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    per_layer = [n for n, _ in run.TRACE_LAYERS] + metric_names()
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
