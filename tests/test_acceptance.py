"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single summary line (run with -s to see them all); the
asserted bounds are the criteria themselves, runtime walls included.
"""

import os
import time

import numpy as np

from savwave.checks import _fem_stencil
from savwave.cli import main
from savwave.fem import assemble, eigenvalue_closed_form, initial_coefficients, noise_projection_matrix
from savwave.harness import (
    AuxGapStudy,
    ConvergenceStudy,
    EnergyStudy,
    SpatialStudy,
    aux_gap_scaling,
    energy_evolution,
    fit_loglog,
    spatial_refinement,
    strong_convergence,
)
from savwave.model import make_problem, sav_radicand, spectral_discretization
from savwave.noise import RngStream, increments, trace as cov_trace
from savwave.schemes import (
    Integrator,
    SavState,
    initial_state,
    modified_energy,
    state_norm,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from savwave.spectral import spectral_group_table

WORKERS = min(4, os.cpu_count() or 1)


def batched_initial(problem, ops, batch):
    u = np.tile(problem.u0.coeffs, (batch, 1))
    v = np.tile(problem.v0.coeffs, (batch, 1))
    return SavState(u, v, np.sqrt(sav_radicand(u, problem, ops)))


def test_criterion_01_pathwise_energy_identity():
    start = time.perf_counter()
    modes = 64
    tau = 2.0**-7
    ops = spectral_discretization(modes)
    table = spectral_group_table(modes, tau)
    batch, steps = 8, 125  # 10^3 steps per combination
    worst = 0.0
    min_denom = np.inf
    combo = 0
    for scheme in ("exponential", "midpoint"):
        for predictor in ("identity", "extrapolation"):
            for fname in ("linear", "sine", "cubic"):
                for gname in ("constant", "sine"):
                    problem = make_problem(f=fname, g=gname, modes=modes)
                    state = batched_initial(problem, ops, batch)
                    u_prev = state.u
                    rng = RngStream(2026, combo)
                    combo += 1
                    for _ in range(steps):
                        dw = np.stack([next(increments(problem.noise, tau, 1, [rng]))[0]
                                       for _ in range(batch)])
                        u_hat = state.u if predictor == "identity" else 0.5 * (3 * state.u - u_prev)
                        u_prev = state.u
                        if scheme == "exponential":
                            state, diag = step_exponential_sav(state, dw, table, problem, ops,
                                                               u_hat=u_hat)
                        else:
                            state, diag = step_midpoint_sav(state, dw, tau, problem, ops,
                                                            u_hat=u_hat)
                        rel = np.max(np.abs(diag.energy_residual) / (1.0 + diag.V))
                        worst = max(worst, float(rel))
                        min_denom = min(min_denom, float(np.min(diag.denominator)))
                        assert np.all(np.abs(diag.energy_residual) <= 1e-9 * (1.0 + diag.V))
    elapsed = time.perf_counter() - start
    assert min_denom >= 1.0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: pathwise energy identity, worst residual "
          f"{worst:.2e} <= 1e-9*(1+V) over 24 configs ({elapsed:.1f}s)")


def test_criterion_02_deterministic_conservation():
    start = time.perf_counter()
    modes = 64
    tau = 2.0**-8
    problem = make_problem(f="sine", g="zero", modes=modes)
    ops = spectral_discretization(modes)
    table = spectral_group_table(modes, tau)
    worst = 0.0
    for scheme in ("exponential", "midpoint"):
        state = batched_initial(problem, ops, 1)
        v0 = float(modified_energy(state.u, state.v, state.q, ops.lam)[0])
        zero = np.zeros((1, modes))
        for _ in range(10_000):
            if scheme == "exponential":
                state, _ = step_exponential_sav(state, zero, table, problem, ops,
                                                diagnostics=False)
            else:
                state, _ = step_midpoint_sav(state, zero, tau, problem, ops,
                                             diagnostics=False)
        drift = abs(float(modified_energy(state.u, state.v, state.q, ops.lam)[0]) - v0) / v0
        worst = max(worst, drift)
        assert drift <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: deterministic conservation, drift {worst:.2e} "
          f"<= 1e-10 over 10^4 steps ({elapsed:.1f}s)")


def test_criterion_03_additive_energy_law():
    start = time.perf_counter()
    study = EnergyStudy(f="linear", g="constant", sigma=1.0, modes=64, T=1.0,
                        tau=2.0**-7, realizations=1000, seed=12345, chunk=250)
    res = energy_evolution(study, workers=WORKERS)
    problem = make_problem(f="linear", g="constant", modes=64)
    rate = 0.5 * study.tau * cov_trace(problem.noise)
    assert np.max(np.abs(np.diff(res.predicted_V) - rate)) <= 1e-14
    dev = np.abs(res.mean_V - res.predicted_V)
    assert np.all(dev[1:] <= 3.0 * res.stderr_V[1:])
    worst_z = float(np.max(dev[1:] / res.stderr_V[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 3: additive energy law, worst z-score {worst_z:.2f} <= 3 "
          f"over {res.times.size - 1} steps, R=1000 ({elapsed:.1f}s)")


def test_criterion_04_temporal_strong_order_one():
    start = time.perf_counter()
    slopes = {}
    for f, g in (("linear", "sine"), ("sine", "sine")):
        study = ConvergenceStudy(
            f=f, g=g, modes=64, T=1.0, tau_exps=(8, 9, 10, 11, 12), ref_exp=13,
            schemes=("exponential", "midpoint"), realizations=200, seed=12345, chunk=25,
        )
        res = strong_convergence(study, workers=WORKERS)
        for sch in res.per_scheme:
            assert sch.excluded == 0
            assert 0.8 <= sch.slope <= 1.2, (f, g, sch.scheme, sch.slope)
            assert np.all(np.diff(sch.rms_error) < 0)  # monotone on shared paths
            slopes[(f, g, sch.scheme)] = sch.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    pretty = ", ".join(f"{f}/{g} {s}={v:.3f}" for (f, g, s), v in slopes.items())
    print(f"\n[PASS] criterion 4: strong order, slopes in [0.8, 1.2]: {pretty} ({elapsed:.0f}s)")


def test_criterion_05_aux_gap_halving():
    start = time.perf_counter()
    study = AuxGapStudy(f="sine", g="sine", modes=64, T=1.0, tau_exps=(6, 7, 8, 9, 10),
                        realizations=100, seed=12345, chunk=50)
    res = aux_gap_scaling(study, workers=WORKERS)
    assert np.all((res.ratios >= 1.5) & (res.ratios <= 2.7)), res.ratios
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 5: aux-gap halving ratios {np.round(res.ratios, 3)} "
          f"in [1.5, 2.7], R=100 ({elapsed:.1f}s)")


def test_criterion_06_solvability_and_substitution():
    start = time.perf_counter()
    modes = 64
    tau = 2.0**-8
    ops = spectral_discretization(modes)
    table = spectral_group_table(modes, tau)
    problem = make_problem(f="cubic", g="sine", modes=modes)
    rng = np.random.default_rng(606)
    k = np.arange(1, modes + 1, dtype=float)
    state = SavState(rng.standard_normal((1000, modes)) / k,
                     rng.standard_normal((1000, modes)),
                     0.5 + rng.random(1000))
    dw = rng.standard_normal((1000, modes)) * np.sqrt(tau)
    bound = 1e-10 * (1.0 + state_norm(state, ops.lam))
    new, diag = step_exponential_sav(state, dw, table, problem, ops)
    assert np.all(diag.denominator >= 1.0)
    res_exp = substitution_residual("exponential", state, new, dw, problem, ops, table=table)
    assert np.all(res_exp <= bound)
    new, diag = step_midpoint_sav(state, dw, tau, problem, ops)
    assert np.all(diag.denominator >= 1.0)
    res_mid = substitution_residual("midpoint", state, new, dw, problem, ops, tau=tau)
    assert np.all(res_mid <= bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    worst = max(float(np.max(res_exp / bound)), float(np.max(res_mid / bound)))
    print(f"\n[PASS] criterion 6: denominators >= 1, substitution residuals at "
          f"{worst:.1e} of the 1e-10 bound on 10^3 states/scheme ({elapsed:.1f}s)")


def test_criterion_07_fem_structure():
    start = time.perf_counter()
    ops = assemble(32)  # h = 2^-5
    exact = eigenvalue_closed_form(32)
    mu_err = float(np.max(np.abs(ops.lam - exact) / exact))
    assert mu_err <= 1e-10
    stiffness, mass = _fem_stencil(32)
    phi = ops.synth[1:-1]
    resid = stiffness @ phi - (mass @ phi) * ops.lam
    pencil = float(np.max(np.max(np.abs(resid), axis=0) / ops.lam))
    assert pencil <= 1e-13
    problem = make_problem(f="sine", g="sine", modes=ops.modes)
    u0, v0 = initial_coefficients(ops, problem)
    state = initial_state(np.tile(u0, (4, 1)), np.tile(v0, (4, 1)), problem, ops)
    cmap = noise_projection_matrix(ops, ops.modes)
    rng = RngStream(707, 0)
    worst = 0.0
    for variant in ("exponential", "midpoint"):
        integ = Integrator(variant, 2.0**-7, problem, ops, state)
        for n in range(250):
            dw = next(increments(problem.noise, 2.0**-7, 1, [rng]))[0] @ cmap.T
            dw = np.tile(dw, (4, 1))
            diag = integ.step(dw, diagnostics=True)
            rel = float(np.max(np.abs(diag.energy_residual) / (1.0 + diag.V)))
            worst = max(worst, rel)
            assert rel <= 1e-9
        state = integ.state
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 7: FEM closed-form eigenvalues at {mu_err:.1e}, pencil "
          f"residual {pencil:.1e} <= 1e-13, pathwise "
          f"residual {worst:.1e} <= 1e-9 at h=2^-5 ({elapsed:.1f}s)")


def test_criterion_08_fem_spatial_trend():
    start = time.perf_counter()
    study = SpatialStudy(f="sine", g="sine", ref_modes=256, h_exps=(3, 4, 5, 6),
                         T=1.0, tau=2.0**-9, realizations=100, seed=12345, chunk=25)
    res = spatial_refinement(study, workers=WORKERS)
    assert np.all(np.diff(res.rms_error) < 0)  # monotone decrease as h halves
    assert res.slope >= 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 8: FEM spatial trend monotone, slope {res.slope:.3f} >= 0.6, "
          f"errors {np.format_float_scientific(res.rms_error[0], 2)} -> "
          f"{np.format_float_scientific(res.rms_error[-1], 2)} ({elapsed:.0f}s)")


def test_criterion_09_one_step_increment_scaling():
    start = time.perf_counter()
    modes = 64
    problem = make_problem(f="sine", g="sine", modes=modes)
    ops = spectral_discretization(modes)
    batch = 40
    means = []
    taus = [2.0**-e for e in (6, 7, 8, 9, 10)]
    for i, tau in enumerate(taus):
        table = spectral_group_table(modes, tau)
        state = batched_initial(problem, ops, batch)
        rng = RngStream(909, i)
        scale = np.sqrt(problem.noise.q * tau)
        n_steps = round(0.5 / tau)
        total = 0.0
        for _ in range(n_steps):
            prev = state.u
            state, _ = step_exponential_sav(state, rng.normals((batch, modes)) * scale,
                                            table, problem, ops, diagnostics=False)
            du = state.u - prev
            total += float(np.mean(np.sqrt(np.einsum("bk,bk->b", du, du))))
        means.append(total / n_steps)
    slope, _ = fit_loglog(taus, means)
    assert 0.8 <= slope <= 1.2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 9: one-step increment slope {slope:.3f} in [0.8, 1.2] "
          f"({elapsed:.1f}s)")


def test_criterion_10_worker_reproducibility(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "problem.f = sine\nproblem.g = sine\nspace.modes = 32\ntime.T = 0.5\n"
        "converge.tau_exps = 6 7 8\nconverge.ref_exp = 10\n"
        "converge.schemes = exponential midpoint\n"
        "mc.realizations = 16\nmc.chunk = 4\nmc.seed = 1010\n"
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "w1"),
                 "--workers", "1"]) == 0
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "w8"),
                 "--workers", "8"]) == 0
    one = (tmp_path / "w1" / "converge.csv").read_bytes()
    eight = (tmp_path / "w8" / "converge.csv").read_bytes()
    assert one == eight
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion 10: converge CSV byte-identical for --workers 1 vs 8 "
          f"({elapsed:.1f}s)")
