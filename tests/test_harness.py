import tracemalloc

import numpy as np
import pytest

from savwave import harness, noise, schemes
from savwave.harness import (
    AuxGapStudy,
    ConvergenceStudy,
    EnergyStudy,
    SpatialStudy,
    Statistics,
    WeakEnergyStudy,
    aux_gap_scaling,
    energy_evolution,
    fit_loglog,
    _convergence_chunk,
    _energy_chunk,
    invariant_suite,
    spatial_refinement,
    strong_convergence,
    weak_energy_error,
)
from savwave.model import make_problem, spectral_discretization
from savwave.noise import RngStream, power_covariance, trace_operator

MINI = ConvergenceStudy(
    f="sine", g="sine", modes=16, T=0.5, tau_exps=(4, 5, 6), ref_exp=9,
    schemes=("exponential",), realizations=16, seed=321, chunk=8,
)


class TestStatistics:
    def test_from_samples(self):
        s = Statistics.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.count == 4
        assert s.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)

    def test_single_sample_has_zero_stderr(self):
        assert Statistics.from_samples([3.0]).stderr == 0.0

    def test_loglog_fit_recovers_slope(self):
        x = np.array([0.5, 0.25, 0.125])
        slope, intercept = fit_loglog(x, 3.0 * x**1.5)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert 2.0**intercept == pytest.approx(3.0, rel=1e-12)


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
        # must be the fine draw, or the in-order sum of its fine draws, that
        # noise.coupled_path defines for that path.  A 24-step noise window
        # divides neither the 256 fine steps nor any ladder multiple.
        study = type(MINI)(**{**MINI.__dict__, "realizations": 6, "chunk": 3})
        monkeypatch.setattr(noise, "_NORMALS_PER_DRAW", 24 * study.modes)
        seen = {}
        step = schemes.Integrator.step

        def recording_step(self, dw, diagnostics=False):
            seen.setdefault(self.tau, []).append(dw.copy())
            return step(self, dw, diagnostics)

        monkeypatch.setattr(schemes.Integrator, "step", recording_step)
        _convergence_chunk(study, "exponential", 1)

        tau_ref = 2.0**-study.ref_exp
        n_fine = round(study.T / tau_ref)
        multiples = [2 ** (study.ref_exp - e) for e in study.tau_exps]
        cov = make_problem(f=study.f, g=study.g, modes=study.modes,
                           noise_decay=study.noise_decay).noise
        assert sorted(seen) == sorted([tau_ref, *(2.0**-e for e in study.tau_exps)])
        for b in range(3):
            paths = noise.coupled_path(cov, tau_ref, n_fine, [1, *multiples],
                                       RngStream(study.seed, 3 + b))
            assert np.array_equal(np.array(seen[tau_ref])[:, b], paths[1])
            for e, m in zip(study.tau_exps, multiples):
                assert np.array_equal(np.array(seen[2.0**-e])[:, b], paths[m])

    def test_h_norm_errors_dominate_l2(self):
        l2 = strong_convergence(MINI).per_scheme[0]
        hn = strong_convergence(type(MINI)(**{**MINI.__dict__, "norm": "h"})).per_scheme[0]
        assert np.all(hn.rms_error >= l2.rms_error)

    def test_invalid_ladder_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(tau_exps=(4,), ref_exp=3)

    def test_cross_scheme_reference_supported(self):
        study = type(MINI)(**{**MINI.__dict__, "schemes": ("midpoint",),
                              "reference_scheme": "exponential"})
        res = strong_convergence(study).per_scheme[0]
        assert np.all(res.rms_error > 0)
        assert 0.5 < res.slope < 1.5


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
        # Noise is streamed through one window of ceil(4096/K) = 64 steps, so
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
                _energy_chunk(study, 0)
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
        paths = {line.split()[-1] for line in maps if "openblas" in line}
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


def test_pool_workers_run_one_blas_thread():
    from concurrent.futures import ProcessPoolExecutor

    if not _openblas_threads():
        pytest.skip("no OpenBLAS loaded")
    with ProcessPoolExecutor(1, initializer=harness._one_blas_thread) as pool:
        counts = pool.submit(_openblas_threads).result(timeout=60)
    assert counts and all(c == 1 for c in counts)


def _run_layouts(monkeypatch, study_fn, study, chunk_fn):
    """{(layout, workers): result} with chunks grouped per task, or one per task.

    Also asserts that the grouped layout really groups: it calls the chunk
    body fewer times than there are chunks.
    """
    body = getattr(harness, chunk_fn)
    calls = []

    def counting(*args):
        calls.append(args)
        return body(*args)

    n_chunks = -(-study.realizations // study.chunk)
    keys = len(getattr(study, "schemes", (None,)))
    out = {}
    for layout, cap in (("grouped", harness._GROUP_VALUES), ("single", 1)):
        monkeypatch.setattr(harness, "_GROUP_VALUES", cap)
        with monkeypatch.context() as m:  # the counter runs in-process only
            m.setattr(harness, chunk_fn, counting)
            out[layout, 1] = study_fn(study, workers=1)
        assert len(calls) == keys * (1 if layout == "grouped" else n_chunks)
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


class TestAuxGap:
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


class TestWeakEnergy:
    def test_additive_drift_shrinks_with_mesh(self):
        drifts = []
        for elems in (8, 16):
            study = WeakEnergyStudy(f="linear", g="constant", elements=elems,
                                    ref_modes=64, T=0.5, tau=2.0**-6,
                                    realizations=64, seed=17, chunk=32)
            res = weak_energy_error(study)
            drifts.append(res.drift[-1])
        assert drifts[1] < drifts[0]

    def test_multiplicative_drift_monotone_over_two_levels(self):
        drifts = []
        for elems in (16, 32):
            study = WeakEnergyStudy(f="sine", g="sine", elements=elems,
                                    ref_modes=64, T=0.5, tau=2.0**-6,
                                    realizations=64, seed=17, chunk=32)
            res = weak_energy_error(study)
            drifts.append(res.drift[-1])
        assert drifts[1] < drifts[0]

    def test_err0_is_initialization_defect(self):
        study = WeakEnergyStudy(f="sine", g="sine", elements=16, ref_modes=64,
                                T=0.25, tau=2.0**-6, realizations=8, seed=2, chunk=8)
        res = weak_energy_error(study)
        assert res.gap[0] == res.err0
        # err0 is dominated by the delta0 offset carried by q^2
        assert 0.8 <= res.err0 <= 1.05

    def test_matched_discretization_gap_is_initialization_only(self):
        # V - V1 = q^2 - F(u) stays within O(tau) of its initial value delta0
        from savwave.model import make_problem
        from savwave.noise import RngStream
        from savwave.schemes import run_trajectory

        problem = make_problem(f="sine", g="sine", modes=32)
        tau = 2.0**-7
        diffs = np.zeros(33)
        paths = 4
        for i in range(paths):
            records = run_trajectory(problem, tau=tau, n_steps=32, rng=RngStream(40, i))
            diffs += np.array([r.V - r.V1 for r in records]) / paths
        assert abs(diffs[0] - problem.delta0) <= 1e-12
        assert np.max(np.abs(diffs - diffs[0])) <= 20 * tau


class TestInvariantSuite:
    def test_default_run_passes_everything(self):
        results = invariant_suite()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_filter_selects_module_prefix(self):
        results = invariant_suite(name_filter="spectral")
        assert results
        assert all(r.name.startswith("spectral") for r in results)

    def test_dropping_balancing_term_fails_energy_checks(self):
        results = invariant_suite(mutations={"drop_balancing"})
        failed = {r.name for r in results if not r.passed}
        assert "schemes.pathwise_energy" in failed
        assert "fem.pathwise_energy" in failed
        # nothing unrelated breaks
        assert failed <= {"schemes.pathwise_energy", "fem.pathwise_energy"}
