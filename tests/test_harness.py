import builtins
import inspect
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from savwave import checks, fem, harness, model, noise, schemes, spectral
from savwave.checks import invariant_suite
from savwave.harness import (
    AuxGapStudy,
    ConvergenceStudy,
    EnergyStudy,
    SpatialStudy,
    aux_gap_scaling,
    energy_evolution,
    fit_loglog,
    _convergence_chunk,
    _energy_chunk,
    spatial_refinement,
    strong_convergence,
)
from savwave.model import make_problem, spectral_discretization, uniform_grid
from savwave.noise import RngStream, power_covariance, trace_operator


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, as `_map_chunks` runs in-process tasks; restored afterwards."""
    get, put = harness._openblas() or (lambda: 1, lambda n: None)
    count = get()
    put(1)
    yield
    put(count)


MINI = ConvergenceStudy(
    f="sine", g="sine", modes=16, T=0.5, tau_exps=(4, 5, 6), ref_exp=9,
    schemes=("exponential",), realizations=16, seed=321, chunk=8,
)


class TestFitLoglog:
    def test_loglog_fit_recovers_slope(self):
        x = np.array([0.5, 0.25, 0.125])
        slope, intercept = fit_loglog(x, 3.0 * x**1.5)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert 2.0**intercept == pytest.approx(3.0, rel=1e-12)

    def test_closed_form_agrees_with_polyfit(self):
        # Ladders shaped like the studies': five halvings of the step, errors
        # of order tau^p with multiplicative noise.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            first = rng.integers(2, 10)
            x = 2.0 ** -np.arange(first, first + 5)
            y = rng.uniform(0.01, 4.0) * x ** rng.uniform(0.5, 2.0) * np.exp(
                rng.normal(0.0, 0.1, x.size))
            expect = np.polyfit(np.log2(x), np.log2(y), 1)
            np.testing.assert_allclose(fit_loglog(x, y), expect, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("x, y", [([], []), ([0.5], [0.25]), ([0.5, 0.25], [1.0, 0.0]),
                                      ([0.5, 0.25, 0.125], [1.0, -0.5, 0.25])])
    def test_fewer_than_two_points_or_a_zero_give_nan(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log of a y <= 0, no fit of one point
            slope, intercept = fit_loglog(x, y)
        assert np.isnan(slope) and np.isnan(intercept)


class TestStrongConvergence:
    def test_self_comparison_is_exact_zero(self):
        study = ConvergenceStudy(
            f="linear", g="sine", modes=8, T=0.25, tau_exps=(5,), ref_exp=5,
            schemes=("exponential",), realizations=4, seed=1, chunk=4,
        )
        res = strong_convergence(study).per_scheme[0]
        assert np.all(res.rms_error == 0.0)
        assert res.excluded == 0

    def test_errors_decrease_monotonically_on_shared_paths(self):
        res = strong_convergence(MINI).per_scheme[0]
        # taus are listed coarse to fine, so errors must decrease
        assert np.all(np.diff(res.rms_error) < 0)

    def test_worker_count_does_not_change_results(self):
        a = strong_convergence(MINI, workers=1).per_scheme[0]
        b = strong_convergence(MINI, workers=3).per_scheme[0]
        assert np.array_equal(a.rms_error, b.rms_error)
        assert np.array_equal(a.stderr, b.stderr)

    def test_one_pool_keeps_scheme_order_across_workers(self):
        study = type(MINI)(**{**MINI.__dict__, "schemes": ("exponential", "midpoint")})
        a = strong_convergence(study, workers=1).per_scheme
        b = strong_convergence(study, workers=3).per_scheme
        assert [r.scheme for r in b] == ["exponential", "midpoint"]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.rms_error, rb.rms_error)
            assert np.array_equal(ra.stderr, rb.stderr)

    def test_chunk_steps_exactly_the_coupled_path_increments(self, monkeypatch):
        # Every increment handed to the reference and to each ladder level
        # must be the path's fine draw, or the in-order sum from zero of its
        # fine draws.  A 24-step noise window divides neither the 256 fine
        # steps nor any ladder multiple.
        # Both schemes: the stacked task takes one increment per step for both.
        study = type(MINI)(**{**MINI.__dict__, "realizations": 6, "chunk": 3,
                              "schemes": ("exponential", "midpoint")})
        monkeypatch.setattr(noise, "_NORMALS_PER_DRAW", 24 * study.modes)
        seen = {}
        step = schemes.Integrator.step

        def recording_step(self, dw, diagnostics=False):
            seen.setdefault(self.table.tau, []).append(dw.copy())
            return step(self, dw, diagnostics)

        monkeypatch.setattr(schemes.Integrator, "step", recording_step)
        _convergence_chunk(study, 1)

        tau_ref = 2.0**-study.ref_exp
        n_fine = round(study.T / tau_ref)
        multiples = [2 ** (study.ref_exp - e) for e in study.tau_exps]
        cov = make_problem(f=study.f, g=study.g, modes=study.modes,
                           noise_decay=study.noise_decay).noise
        assert sorted(seen) == sorted([tau_ref, *(2.0**-e for e in study.tau_exps)])
        for b in range(3):
            fine = (RngStream(study.seed, 3 + b).normals((n_fine, study.modes))
                    * np.sqrt(cov.q * tau_ref))
            assert np.array_equal(np.array(seen[tau_ref])[:, b], fine)
            for e, m in zip(study.tau_exps, multiples):
                sums = np.zeros((n_fine // m, study.modes))
                for j in range(n_fine // m):
                    for i in range(m):
                        sums[j] += fine[j * m + i]
                assert np.array_equal(np.array(seen[2.0**-e])[:, b], sums)

    @pytest.mark.parametrize("norm", ["l2", "h"])
    @pytest.mark.parametrize("predictor", ["identity", "extrapolation"])
    @pytest.mark.parametrize("reference", [None, "exponential"])
    def test_stacked_schemes_match_single_scheme_studies(self, norm, predictor, reference):
        # One task steps both schemes on one (2, B, K) state; each scheme's
        # results must be the bytes its own study gives.  A cubic drift at
        # coarse steps carries round-off into the outputs, and 7 rows in
        # chunks of 3 end on a chunk of one row, which the stacked study (2
        # groups) and the single ones (1 group) both step inside a group.
        study = ConvergenceStudy(
            f="cubic", g="sine", modes=16, T=0.5, tau_exps=(3, 4, 5), ref_exp=7,
            schemes=("exponential", "midpoint"), predictor=predictor,
            reference_scheme=reference, norm=norm, realizations=7, seed=17, chunk=3,
        )
        stacked = strong_convergence(study).per_scheme
        for res in stacked:
            single, = strong_convergence(replace(study, schemes=(res.scheme,))).per_scheme
            assert res.rms_error.tobytes() == single.rms_error.tobytes()
            assert res.stderr.tobytes() == single.stderr.tobytes()
            assert res.excluded == single.excluded

    def test_h_norm_errors_dominate_l2(self):
        l2 = strong_convergence(MINI).per_scheme[0]
        hn = strong_convergence(type(MINI)(**{**MINI.__dict__, "norm": "h"})).per_scheme[0]
        assert np.all(hn.rms_error >= l2.rms_error)

    def test_invalid_ladder_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(tau_exps=(4,), ref_exp=3)

    @pytest.mark.parametrize("T, tau_exps, ref_exp", [(0.3, (4, 5, 6), 9),
                                                      (3 * 2.0**-7, (6, 8), 9)])
    def test_horizon_off_the_ladder_rejected(self, T, tau_exps, ref_exp):
        # every level must end at T: a ladder step that does not divide T
        # would be compared with the reference at another time
        with pytest.raises(ValueError, match="whole number of steps"):
            ConvergenceStudy(T=T, tau_exps=tau_exps, ref_exp=ref_exp)

    def test_cross_scheme_reference_supported(self):
        study = type(MINI)(**{**MINI.__dict__, "schemes": ("midpoint",),
                              "reference_scheme": "exponential"})
        res = strong_convergence(study).per_scheme[0]
        assert np.all(res.rms_error > 0)
        assert 0.5 < res.slope < 1.5


# Every study ends its paths at T: a step that does not divide T is an error,
# not a curve that stops short of T or runs past it.
@pytest.mark.parametrize("study, config", [
    pytest.param(ConvergenceStudy, dict(T=0.3), id="converge"),
    pytest.param(EnergyStudy, dict(T=0.3), id="energy"),
    pytest.param(EnergyStudy, dict(T=1.0, tau=0.3), id="energy-tau-0.3"),
    pytest.param(AuxGapStudy, dict(T=0.3), id="aux-gap"),
    pytest.param(AuxGapStudy, dict(T=0.3, tau_exps=(4,)), id="aux-gap-one-step"),
    pytest.param(SpatialStudy, dict(T=0.3), id="spatial"),
])
def test_every_study_rejects_a_horizon_off_its_steps(study, config):
    with pytest.raises(ValueError, match="whole number of steps"):
        study(**config)


@pytest.mark.parametrize("study, config", [
    # scripts/temporal_order.py at default and paper scale, and converge-ladder
    (ConvergenceStudy, dict(T=1.0, tau_exps=(8, 9, 10, 11, 12), ref_exp=13)),
    (ConvergenceStudy, dict(T=1.0, tau_exps=(8, 9, 10, 11, 12), ref_exp=14)),
    (ConvergenceStudy, dict(T=0.5, tau_exps=(6, 7, 8, 9, 10), ref_exp=12)),
    (EnergyStudy, dict(T=1.0, tau=2.0**-7)),  # scripts/energy_growth.py
    (EnergyStudy, dict(T=1.0, tau=2.0**-8)),  # energy-diag
    (AuxGapStudy, dict(T=1.0, tau_exps=(6, 7, 8, 9, 10))),  # scripts/aux_gap.py
    (SpatialStudy, dict(T=1.0, tau=2.0**-9)),  # scripts/spatial_refinement.py, spatial-fem
], ids=["temporal-order", "temporal-order-paper", "converge-ladder", "energy-growth",
        "energy-diag", "aux-gap", "spatial"])
def test_every_study_accepts_the_configs_it_runs(study, config):
    assert study(**config).T == config["T"]


def test_step_count_takes_the_rule_of_the_cli():
    assert harness.step_count(1.0, 2.0**-7) == 128
    assert harness.step_count(0.3, 0.1) == 3  # 0.3 / 0.1 is 2.9999999999999996
    assert harness.step_count(0.0, 0.5) == 0
    for T, tau in ((1.0, 0.3), (-1.0, 0.5), (1.0 + 1e-12, 2.0**-7)):
        with pytest.raises(ValueError):
            harness.step_count(T, tau)


class TestEnergyEvolution:
    def test_conservative_run_is_flat_with_zero_band(self):
        study = EnergyStudy(f="sine", g="zero", modes=16, T=0.25, tau=2.0**-5,
                            realizations=6, seed=5, chunk=3)
        res = energy_evolution(study)
        assert np.max(np.abs(res.mean_V - res.predicted_V)) <= 1e-12
        assert np.max(res.stderr_V) <= 1e-12

    def test_additive_noise_matches_exact_law(self):
        study = EnergyStudy(f="linear", g="constant", sigma=1.0, modes=32, T=0.5,
                            tau=2.0**-6, realizations=400, seed=7, chunk=200)
        res = energy_evolution(study)
        dev = np.abs(res.mean_V - res.predicted_V)
        assert np.all(dev[1:] <= 3.0 * res.stderr_V[1:])
        # growth is linear: the predicted points sit on one line
        inc = np.diff(res.predicted_V)
        assert np.max(np.abs(inc - inc[0])) <= 1e-15

    def test_multiplicative_prediction_tracks_mean(self):
        study = EnergyStudy(f="linear", g="sine", modes=16, T=0.25, tau=2.0**-5,
                            realizations=300, seed=11, chunk=100)
        res = energy_evolution(study)
        dev = np.abs(res.mean_V - res.predicted_V)
        assert np.all(dev[1:] <= 4.0 * np.maximum(res.stderr_V[1:], 1e-12))

    def test_chunk_memory_does_not_grow_with_steps(self):
        # Noise is streamed through one window of ceil(1024/K) = 16 steps, so
        # 4x the steps must not raise the traced peak, and the peak stays
        # below 128 (batch, K) float arrays: the window, the state and the
        # step temporaries, and the K x K setup.
        batch, modes = 32, 64
        peaks = []
        for T in (0.5, 2.0):  # 64 and 256 steps
            study = EnergyStudy(f="sine", g="sine", modes=modes, T=T, tau=2.0**-7,
                                realizations=batch, chunk=batch)
            tracemalloc.start()
            try:
                _energy_chunk(study, study.tau, 0, trace=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 128 * batch * modes * 8

    def test_sliced_chunk_memory_does_not_grow_with_steps(self, one_blas_thread, monkeypatch):
        # The same bounds with the rows stepped in two slices: the slices fold
        # their per-step values every `_FOLD_STEPS` steps, so no buffer holds
        # a row per step of the study.
        monkeypatch.setattr(harness, "_SLICE_VALUES", 1)
        batch, modes = 32, 64
        peaks = []
        for T in (0.5, 2.0):  # 64 and 256 steps
            study = EnergyStudy(f="sine", g="sine", modes=modes, T=T, tau=2.0**-7,
                                realizations=batch, chunk=batch)
            assert len(harness._slices(batch, 2, modes)) == 2
            tracemalloc.start()
            try:
                _energy_chunk(study, study.tau, 0, None, 2, trace=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 128 * batch * modes * 8

    def test_worker_determinism(self):
        study = EnergyStudy(f="linear", g="sine", modes=16, T=0.25, tau=2.0**-5,
                            realizations=40, seed=3, chunk=10)
        a = energy_evolution(study, workers=1)
        b = energy_evolution(study, workers=4)
        assert np.array_equal(a.mean_V, b.mean_V)
        assert np.array_equal(a.predicted_V, b.predicted_V)


def _openblas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in maps if "openblas" in line}
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
    return counts


def _pooled(fn):
    """fn(key, first, stop) for two keys on the production pool of two workers, per key."""
    return harness._map_chunks(fn, EnergyStudy(realizations=1, chunk=1), 4, 2, keys=(0, 1))


def _worker_blas_threads(key, first, stop):
    return [_openblas_threads()]


def _failing_task(key, first, stop):
    raise ValueError(f"task {key} failed")


POOL_PROBE = """
import json

from savwave import harness


def task(key, first, stop):
    return [_openblas_threads()]


if __name__ == "__main__":
    get, put = harness._openblas()
    put(2)  # workers must not inherit the parent's 2
    parts = harness._map_chunks(task, harness.EnergyStudy(realizations=1, chunk=1), 4, 2,
                                keys=(0, 1))
    print(json.dumps([counts for (counts,) in parts]))
"""


def _pool_probe_threads(tmp_path, probe):
    """Per pool task of `probe`, run in a fresh interpreter: every OpenBLAS thread count it saw.

    Forked workers of this process would inherit every library it has
    loaded, scipy's own OpenBLAS among them, which no savwave study loads.
    """
    script = tmp_path / "pool_probe.py"
    script.write_text(inspect.getsource(_openblas_threads) + probe)
    env = dict(os.environ)
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_pool_workers_run_one_blas_thread(tmp_path):
    if harness._openblas() is None:
        pytest.skip("numpy links no OpenBLAS")
    seen = _pool_probe_threads(tmp_path, POOL_PROBE)
    assert len(seen) == 2
    for worker_counts in seen:
        assert worker_counts and all(c == 1 for c in worker_counts)


def test_pooled_study_restores_the_blas_threads_also_when_a_task_raises():
    if harness._openblas() is None:
        pytest.skip("numpy links no OpenBLAS")
    get, put = harness._openblas()
    count = get()
    put(3)
    try:
        _pooled(_worker_blas_threads)
        assert get() == 3
        with pytest.raises(ValueError, match="failed"):
            _pooled(_failing_task)
        assert get() == 3
    finally:
        put(count)


def test_pool_forks_its_workers(monkeypatch):
    # Workers inherit the one-thread OpenBLAS setting and numpy.random across
    # the fork, so the pool must fork whatever the platform's default is.
    import concurrent.futures

    methods = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            methods.append(None if mp_context is None else mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    _pooled(_worker_blas_threads)
    assert methods == ["fork"]


FEM_POOL_PROBE = """
import json

import numpy as np

from savwave import fem, harness
from savwave.model import make_problem
from savwave.schemes import Integrator, initial_state


def fem_task(key, first, stop):
    ops = fem.assemble(16)
    problem = make_problem(f="sine", g="sine", modes=ops.modes)
    u0, v0 = fem.initial_coefficients(ops, problem)
    integ = Integrator("exponential", 2.0**-6, problem, ops,
                       initial_state(u0[None], v0[None], problem, ops))
    integ.step(np.zeros((1, ops.modes)))
    return [_openblas_threads()]


if __name__ == "__main__":
    parts = harness._map_chunks(fem_task, harness.EnergyStudy(realizations=1, chunk=1), 4, 2,
                                keys=(0, 1))
    print(json.dumps([counts for (counts,) in parts]))
"""


def test_fem_pool_task_loads_no_blas_past_the_fork(tmp_path):
    # A library a task loads after the fork escapes the one-thread setting
    # the workers inherit, so a FEM task must load none.
    if not _openblas_threads():
        pytest.skip("no OpenBLAS loaded")
    seen = _pool_probe_threads(tmp_path, FEM_POOL_PROBE)
    assert len(seen) == 2
    for counts in seen:
        assert counts and all(c == 1 for c in counts)


def _run_layouts(monkeypatch, study_fn, study, chunk_fn):
    """{(layout, workers): result} with chunks grouped per task, or one per task.

    Also asserts that the grouped layout really groups: it calls the chunk
    body fewer times than there are chunks.
    """
    body = getattr(harness, chunk_fn)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return body(*args, **kwargs)

    n_chunks = -(-study.realizations // study.chunk)
    # A convergence task steps all its schemes stacked, and there are at
    # least as many groups as schemes; these studies fit one group otherwise.
    grouped = min(len(getattr(study, "schemes", (None,))), n_chunks)
    assert grouped < n_chunks
    out = {}
    for layout, cap in (("grouped", harness._GROUP_VALUES), ("single", 1)):
        monkeypatch.setattr(harness, "_GROUP_VALUES", cap)
        with monkeypatch.context() as m:  # the counter runs in-process only
            m.setattr(harness, chunk_fn, counting)
            out[layout, 1] = study_fn(study, workers=1)
        assert len(calls) == (grouped if layout == "grouped" else n_chunks)
        calls.clear()
        out[layout, 3] = study_fn(study, workers=3)
    return out


@pytest.mark.parametrize("chunk", [3, 4])
class TestChunkGroups:
    # Grouping consecutive chunks into one stepped array must not move a
    # bit: each row's arithmetic is the same whichever rows share its array,
    # and every sum stays per chunk.  The last chunk is short (14 = 4+4+4+2
    # or 3+3+3+3+2).  Chunks of 3 do not line up with the 4-row blocks of
    # the BLAS matrix-vector kernel, so a GEMV reduction shows up here; the
    # cubic drift at coarse steps carries its round-off into the outputs.

    def test_reductions_are_row_wise(self, chunk):
        ops = spectral_discretization(32)
        trace_fn = trace_operator(power_covariance(32), ops)
        x = np.random.default_rng(7).standard_normal((14, ops.grid.points))
        for reduce in (ops.quad, trace_fn):
            whole = reduce(x)
            for lo in range(0, 14, chunk):
                part = reduce(x[lo:lo + chunk].copy())
                assert part.tobytes() == whole[lo:lo + chunk].tobytes()

    def test_convergence_bytes_do_not_depend_on_grouping(self, monkeypatch, chunk):
        study = ConvergenceStudy(
            f="cubic", g="sine", modes=32, T=1.0, tau_exps=(3, 4, 5), ref_exp=7,
            schemes=("exponential", "midpoint"), realizations=14, seed=44, chunk=chunk,
        )
        out = _run_layouts(monkeypatch, strong_convergence, study, "_convergence_chunk")
        base = out["single", 1].per_scheme
        for res in out.values():
            for a, b in zip(base, res.per_scheme):
                assert a.rms_error.tobytes() == b.rms_error.tobytes()
                assert a.stderr.tobytes() == b.stderr.tobytes()

    def test_energy_bytes_do_not_depend_on_grouping(self, monkeypatch, chunk):
        study = EnergyStudy(f="cubic", g="sine", modes=32, T=1.0, tau=2.0**-3,
                            realizations=14, seed=44, chunk=chunk)
        out = _run_layouts(monkeypatch, energy_evolution, study, "_energy_chunk")
        base = out["single", 1]
        for res in out.values():
            assert res.mean_V.tobytes() == base.mean_V.tobytes()
            assert res.stderr_V.tobytes() == base.stderr_V.tobytes()
            assert res.predicted_V.tobytes() == base.predicted_V.tobytes()

    def test_spatial_errors_agree_across_grouping(self, monkeypatch, chunk):
        # FEM transforms go through BLAS small-matrix kernels whose round-off
        # can depend on the row count, so here the bound is relative.
        study = SpatialStudy(f="sine", g="sine", ref_modes=32, h_exps=(3, 4), T=0.25,
                             tau=2.0**-6, realizations=14, seed=46, chunk=chunk)
        out = _run_layouts(monkeypatch, spatial_refinement, study, "_spatial_chunk")
        base = out["single", 1]
        for res in out.values():
            np.testing.assert_allclose(res.rms_error, base.rms_error, rtol=1e-12, atol=0)


@pytest.mark.parametrize("study, modes, stack, groups", [
    pytest.param(  # benchmark converge-ladder: 2 chunks, 2 stacked schemes
        ConvergenceStudy(f="sine", g="sine", modes=64, T=0.5, tau_exps=(6, 7, 8, 9, 10),
                         ref_exp=12, realizations=50, chunk=25), 64, 2,
        [(0, 1), (1, 2)], id="converge-ladder"),
    pytest.param(  # criterion 4: 8 chunks, at most 5 per stacked task
        ConvergenceStudy(modes=64, realizations=200, chunk=25), 64, 2,
        [(0, 4), (4, 8)], id="criterion-4"),
    pytest.param(
        EnergyStudy(modes=256, T=1.0, tau=2.0**-8, realizations=250, chunk=125), 256, 1,
        [(0, 1), (1, 2)], id="energy-diag"),
    pytest.param(
        SpatialStudy(ref_modes=256, realizations=50, chunk=25), 256, 1,
        [(0, 2)], id="spatial-fem"),
    pytest.param(  # the one-row last chunk shares the larger, last group
        ConvergenceStudy(modes=64, realizations=51, chunk=25), 64, 2,
        [(0, 1), (1, 3)], id="short-last-chunk"),
])
def test_groups_follow_from_the_study_alone(study, modes, stack, groups):
    assert harness._groups(study, modes, stack) == groups


def test_group_spans_are_relative_to_the_group():
    # chunks 3 and 4 of 14 realizations in chunks of 3: rows 9..11 and 12..13
    study = EnergyStudy(realizations=14, chunk=3)
    streams, spans = harness._group(study, 3, 5)
    assert len(streams) == 5
    assert spans == [slice(0, 3), slice(3, 5)]


def _result_bytes(chunks):
    """One bytes string of a chunk body's results: arrays, tuples of arrays or floats."""
    return b"".join(np.asarray(part).tobytes()
                    for chunk in chunks for part in (chunk if isinstance(chunk, tuple) else (chunk,)))


# 24 rows in chunks of 5 (the last one short): two slices of 12 or three of 8,
# and a chunk straddles every slice boundary.  The spatial task steps one slice.
SLICED = {
    "convergence": lambda threads: _convergence_chunk(
        ConvergenceStudy(f="cubic", g="sine", modes=16, T=0.25, tau_exps=(4, 5), ref_exp=7,
                         predictor="extrapolation", norm="h", realizations=24, seed=31, chunk=5),
        0, 5, threads),
    "energy": lambda threads: _energy_chunk(
        EnergyStudy(f="sine", g="sine", modes=32, T=2.0**-2, tau=2.0**-6, realizations=24,
                    seed=32, chunk=5),
        2.0**-6, 0, 5, threads, trace=True),
    # Two 25-row slices of this task would change the FEM noise maps' bits.
    "spatial": lambda threads: harness._spatial_chunk(
        SpatialStudy(f="sine", g="sine", ref_modes=256, h_exps=(3, 4), T=2.0**-3, tau=2.0**-6,
                     realizations=50, seed=34, chunk=25),
        0, 2, threads),
}


class TestRowSlices:
    # In-process tasks step up to `threads` row slices, one Python thread
    # each, with OpenBLAS at one thread: every output bit must be the one
    # of the whole task stepped at one thread, as a pool worker steps it.

    @pytest.mark.parametrize("modes", sorted(harness._SLICE_MODES))
    def test_a_floor_slice_takes_the_bits_of_the_whole_task(self, one_blas_thread, modes):
        # A slice's own arrays against its rows of the whole task: `nodal` of
        # coefficients, and `project` of the stacked [f; g dW] rows of a step.
        ops = spectral_discretization(modes)
        rows, nodes = harness._SLICE_ROWS, ops.x.size
        rng = np.random.default_rng(modes)
        for whole in (2 * rows, 125):
            coeffs = rng.standard_normal((whole, modes))
            values = rng.standard_normal((2, whole, nodes))
            nodal = ops.nodal(coeffs)
            coeffs_back = ops.project(values.reshape(-1, nodes)).reshape(2, whole, modes)
            for lo in (0, whole // 2, whole - rows):
                part = slice(lo, lo + rows)
                assert ops.nodal(coeffs[part].copy()).tobytes() == nodal[part].tobytes()
                got = ops.project(values[:, part].reshape(-1, nodes))
                assert got.tobytes() == coeffs_back[:, part].tobytes()

    def test_slices_cover_the_rows_and_none_is_below_the_floor(self, monkeypatch):
        with monkeypatch.context() as m:  # the row floor alone
            m.setattr(harness, "_SLICE_VALUES", 1)
            for rows in range(1, 70):
                for threads in (1, 2, 3, 4, 8):
                    slices = harness._slices(rows, threads, 64)
                    assert slices[0].start == 0 and slices[-1].stop == rows
                    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
                    assert 1 <= len(slices) <= threads
                    if len(slices) > 1:  # never a one-row slice: its GEMMs take GEMV bits
                        assert min(s.stop - s.start for s in slices) >= harness._SLICE_ROWS
            assert len(harness._slices(2 * harness._SLICE_ROWS - 1, 2, 256)) == 1
        assert len(harness._slices(125, 2, 256)) == 2  # energy-diag's tasks
        # A slice must hold _SLICE_VALUES values of the stacked state: the
        # converge-ladder shape is one slice, K = 256 converge tasks are two.
        assert len(harness._slices(25, 2, 64, stack=2)) == 1
        assert len(harness._slices(50, 2, 256, stack=2)) == 2
        assert len(harness._slices(64, 2, 64, stack=2)) == 2  # the stack counts
        assert len(harness._slices(64, 2, 64)) == 1
        # Outside the measured mode counts a row's bits may depend on its slice.
        assert harness._slices(250, 4, 100) == [slice(0, 250)]
        assert harness._slices(250, 4, 255) == [slice(0, 250)]

    @pytest.mark.parametrize("body", sorted(SLICED))
    def test_sliced_task_takes_the_bits_of_one_thread(self, one_blas_thread, monkeypatch, body):
        monkeypatch.setattr(harness, "_SLICE_VALUES", 1)
        whole = _result_bytes(SLICED[body](1))
        # A fold every 5 of the energy task's 16 steps leaves a short last block.
        monkeypatch.setattr(harness, "_FOLD_STEPS", 5)
        for threads in (2, 3):
            assert _result_bytes(SLICED[body](threads)) == whole

    def test_in_process_tasks_get_the_blas_budget_and_restore_it(self, monkeypatch):
        if harness._openblas() is None:
            pytest.skip("numpy links no OpenBLAS")
        get, put = harness._openblas()
        count = get()
        seen = []
        body = harness._energy_chunk

        def recording(*args):
            seen.append((get(), args[-1]))
            return body(*args)

        monkeypatch.setattr(harness, "_energy_chunk", recording)
        study = AuxGapStudy(f="sine", g="sine", modes=16, T=2.0**-3, tau_exps=(5,),
                            realizations=4, chunk=2)
        drift_values = model.Problem.drift_values

        def shifted(self, u, out=None):  # F~ - 2 takes F(u) + delta0 below zero
            f, F = drift_values(self, u, out)
            return f, F - 2.0

        put(3)
        try:
            aux_gap_scaling(study)
            assert get() == 3
            with monkeypatch.context() as m:
                m.setattr(model.Problem, "drift_values", shifted)
                with pytest.raises(model.ModelViolationError):
                    aux_gap_scaling(study)
            assert get() == 3
        finally:
            put(count)
        assert seen == [(1, 3)] * 2

    def test_no_openblas_means_one_thread(self, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        harness._map_chunks(lambda first, stop, threads: seen.append(threads) or [None],
                            EnergyStudy(realizations=2, chunk=2), 4, 1)
        assert seen == [1]

    def test_openblas_is_looked_up_once(self, monkeypatch):
        # Once, in the study's process: a pool task finds the lookup done
        # before the fork (the cache's misses unchanged), and no process
        # opens /proc/self/maps.
        _OPENED.clear()
        monkeypatch.setattr(builtins, "open", _recording_open)
        harness._openblas.cache_clear()
        try:
            seen = _pooled(_lookups_seen)
            misses = harness._openblas.cache_info().misses
            harness._map_chunks(lambda first, stop, threads: [None],
                                EnergyStudy(realizations=2, chunk=2), 4, 1)
            opened = list(_OPENED)
        finally:
            monkeypatch.undo()
            harness._openblas.cache_clear()
        assert misses == 1
        assert "/proc/self/maps" not in [path for _, path in opened]
        for (task_misses, task_opened) in (task for (task,) in seen):
            assert task_misses == misses
            assert "/proc/self/maps" not in [path for _, path in task_opened]

    def test_numpy_openblas_handle_sets_the_thread_count(self):
        # Without the handle every in-process study would step on one thread
        # and fail nothing: guard it wherever numpy names an OpenBLAS.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas.get("name", "").lower():
            pytest.skip("numpy links no OpenBLAS")
        assert harness._openblas() is not None
        get, put = harness._openblas()
        count = get()
        try:
            put(1 if count > 1 else 2)
            assert get() == (1 if count > 1 else 2)
        finally:
            put(count)


_OPENED = []
_open = builtins.open


def _recording_open(path, *args, **kwargs):
    _OPENED.append((os.getpid(), path))
    return _open(path, *args, **kwargs)


def _lookups_seen(key, first, stop):
    return [(harness._openblas.cache_info().misses, list(_OPENED))]


def _off_the_caller(body, after):
    """Run body() on a fresh caller thread; return (result or error, the caller, alive after 120 s).

    `after(thread)` is called with the caller before it starts, for mutants
    that act only on other threads.
    """
    out = {}

    def call():
        try:
            out["result"] = body()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            out["result"] = exc

    caller = threading.Thread(target=call, daemon=True)
    after(caller)
    caller.start()
    caller.join(120)
    return out.get("result"), caller.is_alive()


@pytest.mark.parametrize("body", ["convergence", "energy"])
@pytest.mark.parametrize("error", ["radicand", "non-finite"])
def test_an_error_in_another_slice_reaches_the_caller(one_blas_thread, monkeypatch, body, error):
    # Mid-run, past the energy task's first fold: the error must end the
    # task, not only the block of steps it was raised in.
    monkeypatch.setattr(harness, "_FOLD_STEPS", 5)
    monkeypatch.setattr(harness, "_SLICE_VALUES", 1)
    state = {"calls": 0}

    def failing():  # counted over the other slice's threads, one per block of steps
        if threading.current_thread() is state["caller"]:
            return False
        state["calls"] += 1
        return state["calls"] > 12

    if error == "radicand":  # the radicand mutant of the CLI's check tests
        drift_values = model.Problem.drift_values

        def shifted(self, u, out=None):
            f, F = drift_values(self, u, out)
            return (f, F - 2.0) if failing() else (f, F)

        monkeypatch.setattr(model.Problem, "drift_values", shifted)
        expected = model.ModelViolationError
    else:
        step = schemes.Integrator.step

        def poisoned(self, dw, diagnostics=False):
            if failing():
                dw = dw.copy()
                dw[0, 0] = np.nan
            return step(self, dw, diagnostics)

        monkeypatch.setattr(schemes.Integrator, "step", poisoned)
        expected = schemes.BlowUpError
    with np.errstate(all="ignore"):
        result, alive = _off_the_caller(lambda: SLICED[body](2),
                                        lambda caller: state.update(caller=caller))
    assert not alive
    assert type(result) is expected


class TestAuxGap:
    def test_the_trace_operator_moves_no_bit_of_the_diagnostics(self):
        # The aux-gap study steps the energy task without a trace operator;
        # its gaps and energies must be the bits the energy study steps.
        study = AuxGapStudy(f="cubic", g="sine", modes=16, T=0.25, tau_exps=(5,),
                            predictor="extrapolation", realizations=6, seed=4, chunk=3)
        with_trace = _energy_chunk(study, 2.0**-5, 0, 2, trace=True)
        without = _energy_chunk(study, 2.0**-5, 0, 2)
        for a, b in zip(with_trace, without):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a[:2], b[:2]))
            assert a[3] == b[3] > 0
            assert np.all(np.isfinite(a[2])) and np.all(np.isnan(b[2]))

    def test_worst_gap_spans_the_fold_blocks(self, monkeypatch):
        # Every path's gap is made to peak at its first step and decay, so a
        # worst gap kept per block of steps, not per path, reads below 1.
        monkeypatch.setattr(harness, "_FOLD_STEPS", 5)
        step = schemes.Integrator.step

        def decaying(self, dw, diagnostics=False):
            diag = step(self, dw, diagnostics)
            return replace(diag, aux_gap=np.full_like(diag.aux_gap, 1.0 / self.state.n))

        monkeypatch.setattr(schemes.Integrator, "step", decaying)
        study = AuxGapStudy(f="sine", g="sine", modes=16, T=0.25, tau_exps=(5, 6),
                            realizations=4, seed=6, chunk=2)
        assert np.all(aux_gap_scaling(study).mean_max_gap == 1.0)

    def test_zero_drift_keeps_gap_zero(self):
        study = AuxGapStudy(f="zero", g="sine", modes=16, T=0.25, tau_exps=(5, 6),
                            realizations=4, seed=1, chunk=4)
        res = aux_gap_scaling(study)
        assert np.all(res.mean_max_gap == 0.0)

    def test_one_pool_keeps_step_order_across_workers(self):
        study = AuxGapStudy(f="sine", g="sine", modes=16, T=0.25, tau_exps=(5, 6, 7),
                            realizations=6, seed=2, chunk=3)
        a = aux_gap_scaling(study, workers=1)
        b = aux_gap_scaling(study, workers=3)
        assert np.array_equal(a.mean_max_gap, b.mean_max_gap)
        assert np.all(np.diff(a.mean_max_gap) < 0)

    def test_deterministic_drift_scales_linearly(self):
        study = AuxGapStudy(f="sine", g="zero", modes=32, T=1.0, tau_exps=(5, 6, 7, 8),
                            realizations=1, seed=1, chunk=1)
        res = aux_gap_scaling(study)
        assert np.all((res.ratios > 1.5) & (res.ratios < 2.7))

    def test_multiplicative_halving_ratio_in_band(self):
        study = AuxGapStudy(f="sine", g="sine", modes=32, T=0.5, tau_exps=(5, 6, 7),
                            realizations=32, seed=9, chunk=16)
        res = aux_gap_scaling(study)
        assert np.all((res.ratios > 1.5) & (res.ratios < 2.7))


class TestSpatialRefinement:
    def test_error_decreases_with_mesh_refinement(self):
        study = SpatialStudy(f="sine", g="sine", ref_modes=128, h_exps=(3, 4, 5),
                             T=0.5, tau=2.0**-8, realizations=8, seed=13, chunk=8)
        res = spatial_refinement(study)
        assert np.all(np.diff(res.rms_error) < 0)
        assert res.slope >= 0.6

    @pytest.mark.parametrize("fine_grid", [1000, 200])  # not a multiple of a block; under one
    def test_blocked_error_matches_the_whole_grid_oracle(self, monkeypatch, fine_grid):
        # Oracle: the reference synthesized by one (fine_grid + 1, ref_modes)
        # sine matrix and the element solutions interpolated by np.interp,
        # from the terminal states the chunk stepped.  Blocks sum the
        # quadrature in another order, so the errors agree to rtol 1e-12.
        runs = []

        def recording(*args, **kwargs):
            runs.append(schemes.Integrator(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "Integrator", recording)
        study = SpatialStudy(f="sine", g="sine", ref_modes=128, h_exps=(3, 4), T=2.0**-4,
                             tau=2.0**-6, realizations=8, seed=5, chunk=8, fine_grid=fine_grid)
        got, = harness._spatial_chunk(study, 0)
        ref, *fem_runs = runs
        fine = uniform_grid(fine_grid)
        k = np.arange(1, study.ref_modes + 1)
        ref_vals = ref.state.u @ (np.sqrt(2.0) * np.sin(np.pi * np.outer(fine.x, k))).T
        expected = np.empty_like(got)
        for i, (e, run) in enumerate(zip(study.h_exps, fem_runs)):
            ops = fem.assemble(2**e)
            vals = np.array([np.interp(fine.x, ops.x, row) for row in run.state.u @ ops.synth.T])
            expected[i] = np.einsum("bm,m->b", (ref_vals - vals) ** 2, fine.weights)
        assert np.all(expected > 0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_terminal_memory_scales_with_rows_not_modes(self):
        # A 4x finer grid may add at most 3 float64 per fine-grid point: its
        # nodes and weights; never a (fine_grid + 1, ref_modes) sine matrix,
        # a (rows, fine_grid + 1) array or an interpolation matrix.
        rows, h_exps = 4, (2, 3)
        studies = [SpatialStudy(f="sine", g="sine", ref_modes=128, h_exps=h_exps, T=2.0**-4,
                                tau=2.0**-6, realizations=rows, chunk=rows, fine_grid=fine_grid)
                   for fine_grid in (2048, 8192)]
        harness._spatial_chunk(studies[0], 0)  # one-time imports stay off the trace
        peaks = []
        for study in studies:
            tracemalloc.start()
            try:
                harness._spatial_chunk(study, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_point = 3 * 8
        assert peaks[1] - peaks[0] <= (8192 - 2048) * per_point


CHECK_NAMES = [
    "spectral.unitarity_drift", "spectral.group_composition",
    "spectral.hoelder_cosine", "spectral.transform_roundtrip", "spectral.parseval_quadrature",
    "noise.increment_variance", "noise.coupling_exact", "noise.replay_determinism",
    "noise.lag1_autocorrelation", "model.gradient_consistency", "model.dealiasing",
    "model.radicand_floor", "schemes.pathwise_energy", "schemes.deterministic_conservation",
    "schemes.substitution_residual", "schemes.solvability", "schemes.onestep_increment_slope",
    "schemes.moment_bound", "fem.pencil_residual", "fem.mass_orthonormal",
    "fem.energy_conservation", "fem.pathwise_energy", "fem.substitution_residual",
    "fem.ritz_is_interpolation", "fem.spectral_consistency", "harness.error_monotonic",
    "harness.ci_honesty", "harness.determinism",
]

SEED = 20260810  # invariant_suite's default


@pytest.fixture(scope="module")
def default_suite():
    return invariant_suite()


class TestInvariantSuite:
    def test_default_run_passes_everything(self, default_suite):
        failed = [r.name for r in default_suite if not r.passed]
        assert failed == []

    def test_suite_runs_exactly_the_named_checks_in_order(self, default_suite):
        assert [r.name for r in default_suite] == CHECK_NAMES

    def test_filter_selects_module_prefix(self):
        results = invariant_suite(name_filter="spectral")
        assert results
        assert all(r.name.startswith("spectral") for r in results)

    def test_checks_synthesize_batches_only(self, monkeypatch):
        # the checks synthesize (B, K) batches, as every production path does
        nodal = model.Discretization.nodal
        lone = []

        def recording(self, coeffs):
            if coeffs.ndim < 2:
                lone.append(coeffs.shape)
            return nodal(self, coeffs)

        monkeypatch.setattr(model.Discretization, "nodal", recording)
        for prefix in ("spectral", "model", "fem"):
            assert all(r.passed for r in invariant_suite(name_filter=prefix))
        assert lone == []

    def test_pencil_residual_sees_a_perturbed_eigenvalue(self, monkeypatch):
        assemble = checks.fem_mod.assemble

        def perturbed(elements):
            ops = assemble(elements)
            return replace(ops, lam=ops.lam * (1.0 + 1e-5))

        assert checks._check_fem_pencil(None, None).passed
        monkeypatch.setattr(checks.fem_mod, "assemble", perturbed)
        assert not checks._check_fem_pencil(None, None).passed

    # Each re-pointed check against a mutant of the production function it
    # runs: the check passes on the real one and fails on the mutant.

    def _fails_under(self, monkeypatch, check, target, name, mutant):
        rng = np.random.default_rng(SEED)
        assert check(rng, SEED).passed
        monkeypatch.setattr(target, name, mutant)
        assert not check(np.random.default_rng(SEED), SEED).passed

    def test_transform_roundtrip_sees_dropped_analysis_weights(self, monkeypatch):
        build = checks.spectral_discretization

        def unweighted(*args, **kwargs):
            ops = build(*args, **kwargs)
            return replace(ops, analysis=ops.synth.T)

        self._fails_under(monkeypatch, checks._check_spectral_roundtrip,
                          checks, "spectral_discretization", unweighted)

    def test_parseval_quadrature_sees_synthesis_without_sqrt2(self, monkeypatch):
        build = checks.spectral_discretization

        def unscaled(*args, **kwargs):
            ops = build(*args, **kwargs)
            return replace(ops, synth=ops.synth / np.sqrt(2.0))

        self._fails_under(monkeypatch, checks._check_spectral_parseval,
                          checks, "spectral_discretization", unscaled)

    def test_hoelder_cosine_sees_a_table_without_the_square_root(self, monkeypatch):
        build = spectral.wave_group_table

        def unrooted(lam, tau):  # cos(t*lam) in place of cos(t*sqrt(lam))
            return build(np.asarray(lam) ** 2, tau)

        self._fails_under(monkeypatch, checks._check_spectral_hoelder,
                          spectral, "wave_group_table", unrooted)

    def test_coupling_exact_sees_a_reversed_sum(self, monkeypatch):
        def reversed_sum(cov, tau, n_steps, streams, multiples):
            fine = []
            for dw in noise.increments(cov, tau, n_steps, streams):
                fine.append(dw.copy())
                done = []
                for level, m in enumerate(multiples):
                    if len(fine) % m == 0:
                        coarse = np.zeros_like(dw)
                        for f in reversed(fine[-m:]):
                            coarse += f
                        done.append((level, coarse))
                yield dw, done

        self._fails_under(monkeypatch, checks._check_noise_coupling,
                          noise, "coupled_increments", reversed_sum)

    def test_coupling_exact_sees_an_accumulator_never_reset(self, monkeypatch):
        def never_reset(cov, tau, n_steps, streams, multiples):
            accums = [np.zeros((len(streams), cov.modes)) for _ in multiples]
            for k, dw in enumerate(noise.increments(cov, tau, n_steps, streams), 1):
                for acc in accums:
                    acc += dw
                yield dw, [(level, acc) for level, (acc, m) in enumerate(zip(accums, multiples))
                           if k % m == 0]

        self._fails_under(monkeypatch, checks._check_noise_coupling,
                          noise, "coupled_increments", never_reset)

    def test_increment_variance_sees_a_scale_without_tau(self, monkeypatch):
        increments = noise.increments

        def unit_step(cov, tau, n_steps, streams):
            return increments(cov, 1.0, n_steps, streams)

        self._fails_under(monkeypatch, checks._check_noise_variance,
                          noise, "increments", unit_step)

    def test_lag1_autocorrelation_sees_a_repeated_window_row(self, monkeypatch):
        increments = noise.increments

        def stale(cov, tau, n_steps, streams):
            window = max(1, min(-(-noise._NORMALS_PER_DRAW // cov.modes), n_steps))
            for k, dw in enumerate(increments(cov, tau, n_steps, streams)):
                if k % window == 0:
                    first = dw.copy()
                yield first

        self._fails_under(monkeypatch, checks._check_noise_autocorr,
                          noise, "increments", stale)

    @pytest.mark.parametrize("check", [
        checks._check_model_floor, checks._check_schemes_pathwise,
        checks._check_schemes_solvability, checks._check_schemes_onestep,
        checks._check_schemes_moments, checks._check_fem_pathwise,
    ])
    def test_stepping_checks_draw_one_stream_per_path(self, monkeypatch, check):
        increments = noise.increments
        batches = []

        def recording(cov, tau, n_steps, streams):
            batches.append([s.index for s in streams])
            return increments(cov, tau, n_steps, streams)

        monkeypatch.setattr(noise, "increments", recording)
        assert check(np.random.default_rng(SEED), SEED).passed
        assert batches
        for indices in batches:
            assert len(indices) > 1 and len(set(indices)) == len(indices)

    def test_dropping_balancing_term_fails_energy_checks(self):
        results = invariant_suite(mutations={"unbalanced_table"})
        failed = {r.name for r in results if not r.passed}
        assert "schemes.pathwise_energy" in failed
        assert "fem.pathwise_energy" in failed
        # nothing unrelated breaks
        assert failed <= {"schemes.pathwise_energy", "fem.pathwise_energy"}
