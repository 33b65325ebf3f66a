"""Invariant suite: every module's structural properties as named checks.

Each check runs production code (the steppers through `schemes.Integrator`,
the tables, transforms, noise streams and studies) and compares one measured
value with a fixed bound; `invariant_suite` runs them in order and backs the
`check` command.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fem as fem_mod
from .harness import ConvergenceStudy, _batched_initial, fit_loglog, strong_convergence
from .model import ModelViolationError, make_problem, spectral_discretization
from .noise import CovarianceSpec, RngStream, power_covariance
from .schemes import (
    SCHEMES,
    BlowUpError,
    Integrator,
    SavState,
    initial_state,
    state_norm,
    substitution_residual,
)

__all__ = ["CheckResult", "invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: str
    passed: bool
    detail: str = ""


def _result(name, value, limit, detail=""):
    return CheckResult(name, float(value), f"<= {limit:g}", bool(value <= limit), detail)


def _result_range(name, value, lo, hi, detail=""):
    ok = bool(lo <= value <= hi) and np.isfinite(value)
    return CheckResult(name, float(value), f"in [{lo:g}, {hi:g}]", ok, detail)


def _smooth_field(rng, modes, decay=2.0):
    """A batch of one (1, modes) random field with coefficients decaying as k^-decay."""
    k = np.arange(1, modes + 1, dtype=np.float64)
    return rng.standard_normal((1, modes)) / k**decay


def _free_wave(tau, ops, u, v):
    """Integrator of the exponential scheme with f = g = 0 from (1, K) u, v: the bare wave group."""
    problem = make_problem(f="zero", g="zero", modes=ops.modes)
    return Integrator("exponential", tau, problem, ops, initial_state(u, v, problem, ops))


def _wave_energy_drift(tau, ops, u, v, lam):
    """Relative change of 1/2|u|_H1^2 + 1/2|v|^2 over 10^4 steps of the free wave."""
    integ = _free_wave(tau, ops, u, v)
    e0 = 0.5 * np.sum(lam * u**2) + 0.5 * np.sum(v**2)
    try:
        for _ in range(10_000):
            integ.step(np.zeros_like(u))
    except BlowUpError:
        return np.inf
    u, v = integ.state.u, integ.state.v
    return abs(0.5 * np.sum(lam * u**2) + 0.5 * np.sum(v**2) - e0) / e0


def _check_spectral_unitarity(rng, _):
    modes = 64
    lam = np.pi**2 * np.arange(1, modes + 1) ** 2
    u = _smooth_field(rng, modes, 1.0)
    v = rng.standard_normal((1, modes))
    drift = _wave_energy_drift(2.0**-6, spectral_discretization(modes), u, v, lam)
    return _result("spectral.unitarity_drift", drift, 1e-12, "10^4 composed steps")


def _check_spectral_composition(rng, _):
    tau = 0.137
    ops = spectral_discretization(32)
    u = rng.standard_normal((1, 32))
    v = rng.standard_normal((1, 32))
    one = _free_wave(tau, ops, u, v)
    two = _free_wave(2 * tau, ops, u, v)
    zero = np.zeros((1, 32))
    one.step(zero)
    one.step(zero)
    two.step(zero)
    scale = np.sqrt(np.sum(u**2) + np.sum(v**2))
    worst = max(np.max(np.abs(one.state.u - two.state.u)),
                np.max(np.abs(one.state.v - two.state.v))) / scale
    return _result("spectral.group_composition", worst, 1e-12)


def _check_spectral_hoelder(rng, _):
    from .spectral import wave_group_table

    modes = 64
    lam = np.pi**2 * np.arange(1, modes + 1) ** 2
    x = rng.standard_normal(modes)
    x /= np.sqrt(np.sum(x**2))
    worst = 0.0
    # pairs 2^-12 apart tell the top modes from a table of Lipschitz constant sqrt(lam)
    grid = np.linspace(0.0, 2.0, 9)
    times = np.sort(np.concatenate([grid, grid + 2.0**-12]))
    cos = [wave_group_table(lam, t).cos for t in times]
    for i, t in enumerate(times):
        for j, s in enumerate(times[:i]):
            diff = (cos[i] - cos[j]) / np.sqrt(lam)
            worst = max(worst, np.sqrt(np.sum((diff * x) ** 2)) / (t - s))
    return _result("spectral.hoelder_cosine", worst, 1.01, "gamma = 1 bound")


def _check_spectral_roundtrip(rng, _):
    ops = spectral_discretization(48)
    c = rng.standard_normal((1, 48))
    back = ops.project(ops.nodal(c))
    worst = np.max(np.abs(back - c)) / np.max(np.abs(c))
    return _result("spectral.transform_roundtrip", worst, 1e-12)


def _check_spectral_parseval(rng, _):
    m = 256
    ops = spectral_discretization(8, grid_points=m)
    c = _smooth_field(rng, 8, 2.0)
    err = abs(ops.quad(ops.nodal(c) ** 2)[0] - np.vdot(c, c))
    return _result("spectral.parseval_quadrature", err, 5.0 / m**2)


def _path_increments(cov, tau, n_steps, seed, key, batch):
    """`noise.increments` of `batch` paths as a study draws them: row b from its own stream.

    Row b is drawn from RngStream(seed, 64 * key + b), so draws with
    different keys share no stream for batches of up to 64 paths.
    """
    from .noise import increments

    return increments(cov, tau, n_steps, [RngStream(seed, 64 * key + b) for b in range(batch)])


def _drawn(cov, tau, n_steps, stream):
    """(n_steps, K) increments of one stream as `noise.increments` yields them."""
    from .noise import increments

    return np.array([dw[0].copy() for dw in increments(cov, tau, n_steps, [stream])])


def _check_noise_variance(_, seed):
    cov = CovarianceSpec(np.array([1.0, 0.5]))
    n = 100_000
    tau = 0.01
    block = _drawn(cov, tau, n, RngStream(seed, 77))
    var = np.var(block[:, 0], ddof=1)
    se = tau * np.sqrt(2.0 / (n - 1))
    return _result("noise.increment_variance", abs(var - tau), 5 * se, f"n = {n}")


def _check_noise_coupling(_, seed):
    from .noise import coupled_increments

    # K = 12 draws 342-step noise windows, which divide neither the 1024 fine
    # steps nor any multiple; multiples of 4 and up tell an in-order sum from
    # a reversed one.
    multiples = (2, 4, 32)
    fine, worst, count = [], 0.0, 0
    for dw, done in coupled_increments(power_covariance(12), 2.0**-10, 1024,
                                       [RngStream(seed, 3), RngStream(seed, 4)], multiples):
        fine.append(dw.copy())
        for level, coarse in done:
            manual = np.zeros_like(coarse)
            for f in fine[-multiples[level]:]:
                manual += f
            worst = max(worst, float(np.max(np.abs(manual - coarse))))
            count += 1
    if count != sum(1024 // m for m in multiples):  # a coarse step went missing
        worst = np.inf
    return _result("noise.coupling_exact", worst, 0.0, "bitwise aggregation")


def _check_noise_replay(_, seed):
    cov = power_covariance(16)
    a = _drawn(cov, 0.1, 100, RngStream(seed, 5))
    b = _drawn(cov, 0.1, 100, RngStream(seed, 5))
    return _result("noise.replay_determinism", float(np.max(np.abs(a - b))), 0.0)


def _check_noise_autocorr(_, seed):
    cov = CovarianceSpec(np.array([1.0]))
    n = 100_000
    draws = _drawn(cov, 1.0, n, RngStream(seed, 11))[:, 0]
    x = draws - np.mean(draws)
    r = float(np.sum(x[1:] * x[:-1]) / np.sum(x**2))
    return _result("noise.lag1_autocorrelation", abs(r), 5.0 / np.sqrt(n))


def _check_model_gradient(rng, _):
    from .model import make_problem, potential, spectral_discretization

    modes = 32
    ops = spectral_discretization(modes)
    worst = 0.0
    eps = 1e-5
    for name in ("linear", "sine", "cubic"):
        problem = make_problem(f=name, g="zero", modes=modes)
        u = _smooth_field(rng, modes, 2.0)
        phi = _smooth_field(rng, modes, 2.0)
        plus = potential(u + eps * phi, problem, ops)
        minus = potential(u - eps * phi, problem, ops)
        fd = (plus[0] - minus[0]) / (2 * eps)
        inner = float(np.vdot(ops.project(problem.f(ops.nodal(u))), phi))
        worst = max(worst, abs(fd - inner) / max(abs(inner), 1e-12))
    return _result("model.gradient_consistency", worst, 1e-6, "eps = 1e-5")


def _check_model_dealiasing(rng, _):
    from .model import drift_core, make_problem, spectral_discretization

    modes = 32
    coarse = spectral_discretization(modes)
    fine = spectral_discretization(modes, grid_points=4 * modes)
    u = np.zeros((1, modes))
    u[:, : modes // 4] = _smooth_field(rng, modes // 4, 2.0)
    worst = 0.0
    for name in ("sine", "cubic"):
        problem = make_problem(f=name, g="sine", modes=modes)
        b1, _ = drift_core(u, problem, coarse)
        b2, _ = drift_core(u, problem, fine)
        worst = max(worst, float(np.max(np.abs(b1 - b2))))
    return _result("model.dealiasing", worst, 1e-10, "M = 2K vs 4K")


def _check_model_floor(_, seed):
    from .model import RADICAND_FLOOR, make_problem, spectral_discretization

    problem = make_problem(f="sine", g="sine", modes=32)
    ops = spectral_discretization(32)
    integ = Integrator("exponential", 2.0**-6, problem, ops,
                       _batched_initial(problem, ops, 4))
    lowest = np.inf
    for dw in _path_increments(problem.noise, 2.0**-6, 64, seed, 21, 4):
        integ.step(dw, diagnostics=True)
        lowest = min(lowest, float(np.min(integ.state.rad)))
    value = RADICAND_FLOOR / lowest  # passes iff lowest >= floor
    return _result("model.radicand_floor", value, 1.0, f"min radicand {lowest:.3e}")


def _pathwise_energy_worst(mutations, seed, fem=False):
    worst = 0.0
    batch = 4
    steps = 60
    tau = 2.0**-7
    ops = fem_mod.assemble(32) if fem else spectral_discretization(32)
    configs = [(s, p, f, g)
               for s in SCHEMES
               for p in ("identity", "extrapolation")
               for f in ("linear", "sine", "cubic")
               for g in ("constant", "sine")]
    for i, (scheme, predictor, fname, gname) in enumerate(configs):
        problem = make_problem(f=fname, g=gname, modes=32 if not fem else 31)
        initial, cmap = None, None
        if fem:
            initial = fem_mod.initial_coefficients(ops, problem)
            cmap = fem_mod.noise_projection_matrix(ops, problem.noise.modes)
        integ = Integrator(scheme, tau, problem, ops,
                           _batched_initial(problem, ops, batch, initial), predictor)
        if "unbalanced_table" in mutations:
            # a2 = tau in place of sin/sqrt(lam): the energy law needs a2 = sin/sqrt(lam)
            integ.table = replace(integ.table, a2=np.full_like(integ.table.a2, tau))
        for dw in _path_increments(problem.noise, tau, steps, seed, 100 + i, batch):
            if cmap is not None:
                dw = dw @ cmap.T
            diag = integ.step(dw, diagnostics=True)
            g_inc_res = np.max(np.abs(diag.energy_residual) / (1.0 + diag.V))
            worst = max(worst, float(g_inc_res))
    return worst


def _check_schemes_pathwise(_, seed, mutations=frozenset()):
    worst = _pathwise_energy_worst(mutations, seed, fem=False)
    return _result("schemes.pathwise_energy", worst, 1e-9,
                   "all schemes/predictors/nonlinearities")


def _check_schemes_conservation(_, seed):
    worst = 0.0
    problem = make_problem(f="sine", g="zero", modes=64)
    ops = spectral_discretization(64)
    for scheme in SCHEMES:
        integ = Integrator(scheme, 2.0**-8, problem, ops, _batched_initial(problem, ops, 1))
        v0 = float(integ.energy()[0])
        dw = np.zeros((1, 64))
        for _ in range(10_000):
            integ.step(dw)
        worst = max(worst, abs(float(integ.energy()[0]) - v0) / v0)
    return _result("schemes.deterministic_conservation", worst, 1e-10, "10^4 steps, g = 0")


def _random_states(rng, modes, batch):
    k = np.arange(1, modes + 1, dtype=np.float64)
    u = rng.standard_normal((batch, modes)) / k
    v = rng.standard_normal((batch, modes))
    q = 0.5 + rng.random(batch) * 1.5
    return SavState(u, v, q)


def _substitution_worst(seed, fem=False):
    rng = np.random.default_rng(seed)
    tau = 2.0**-6
    worst = 0.0
    if fem:
        ops = fem_mod.assemble(24)
        modes = ops.modes
    else:
        modes = 48
        ops = spectral_discretization(modes)
    problem = make_problem(f="cubic", g="sine", modes=modes)
    state = _random_states(rng, modes, 1000)
    dw = rng.standard_normal((1000, modes)) * np.sqrt(tau)
    scale = 1.0 + state_norm(state, ops.lam)
    for scheme in SCHEMES:
        integ = Integrator(scheme, tau, problem, ops, state)
        integ.step(dw)
        res = substitution_residual(scheme, state, integ.state, dw, problem, ops,
                                    table=integ.table, tau=tau)
        worst = max(worst, float(np.max(res / scale)))
    return worst


def _check_schemes_substitution(_, seed):
    return _result("schemes.substitution_residual", _substitution_worst(seed), 1e-10,
                   "10^3 random states per scheme")


def _check_schemes_solvability(_, seed):
    problem = make_problem(f="cubic", g="sine", modes=32)
    ops = spectral_discretization(32)
    smallest = np.inf
    for scheme in SCHEMES:
        integ = Integrator(scheme, 2.0**-6, problem, ops, _batched_initial(problem, ops, 8))
        for dw in _path_increments(problem.noise, 2.0**-6, 64, seed, 31, 8):
            diag = integ.step(dw, diagnostics=True)
            smallest = min(smallest, float(np.min(diag.denominator)))
    # passes iff the smallest denominator stays >= 1
    return _result("schemes.solvability", 1.0 - smallest, 0.0,
                   f"min denominator {smallest:.12f}")


def _check_schemes_onestep(_, seed):
    taus = [2.0**-e for e in (6, 7, 8, 9, 10)]
    problem = make_problem(f="sine", g="sine", modes=32)
    ops = spectral_discretization(32)
    batch = 32
    means = []
    for i, tau in enumerate(taus):
        integ = Integrator("exponential", tau, problem, ops,
                           _batched_initial(problem, ops, batch))
        n_steps = round(0.25 / tau)
        total = 0.0
        for dw in _path_increments(problem.noise, tau, n_steps, seed, 50 + i, batch):
            prev_u = integ.state.u
            integ.step(dw)
            du = integ.state.u - prev_u
            total += float(np.mean(np.sqrt(np.einsum("bk,bk->b", du, du))))
        means.append(total / n_steps)
    slope, _ = fit_loglog(taus, means)
    return _result_range("schemes.onestep_increment_slope", slope, 0.8, 1.2)


def _check_schemes_moments(_, seed):
    ops = spectral_discretization(64)
    batch = 64
    worst_ratio = 0.0
    for i, fname in enumerate(("linear", "sine")):
        problem = make_problem(f=fname, g="sine", modes=64)
        integ = Integrator("exponential", 2.0**-6, problem, ops,
                           _batched_initial(problem, ops, batch))
        v2_0 = float(np.mean(integ.energy() ** 2))
        worst = v2_0
        for dw in _path_increments(problem.noise, 2.0**-6, 64, seed, 61 + i, batch):
            integ.step(dw)
            worst = max(worst, float(np.mean(integ.energy() ** 2)))
        worst_ratio = max(worst_ratio, worst / v2_0)
    return _result("schemes.moment_bound", worst_ratio, 10.0,
                   "mean V^2 vs initial, both standard drifts on [0, 1]")


def _fem_stencil(elements):
    """Dense interior (stiffness, mass) of the P1 element stencils (2, -1)/h and (4, 1)h/6.

    An oracle built from the element integrals alone, independent of the
    closed-form basis that fem.assemble writes.
    """
    h = 1.0 / elements
    eye = np.eye(elements - 1)
    off = np.eye(elements - 1, k=1) + np.eye(elements - 1, k=-1)
    return (2.0 * eye - off) / h, (4.0 * eye + off) * h / 6.0


def _check_fem_pencil(_, __):
    ops = fem_mod.assemble(64)
    stiffness, mass = _fem_stencil(64)
    phi = ops.synth[1:-1]
    resid = stiffness @ phi - (mass @ phi) * ops.lam
    worst = float(np.max(np.max(np.abs(resid), axis=0) / ops.lam))
    return _result("fem.pencil_residual", worst, 1e-13, "max_k |K phi_k - mu_k M phi_k|_inf / mu_k")


def _check_fem_orthonormal(_, __):
    ops = fem_mod.assemble(48)
    _, mass = _fem_stencil(48)
    phi = ops.synth[1:-1]
    worst = float(np.max(np.abs(phi.T @ mass @ phi - np.eye(ops.modes))))
    return _result("fem.mass_orthonormal", worst, 1e-12)


def _check_fem_conservation(rng, _):
    ops = fem_mod.assemble(32)
    u = rng.standard_normal((1, ops.modes)) / np.arange(1, ops.modes + 1)
    v = rng.standard_normal((1, ops.modes))
    drift = _wave_energy_drift(2.0**-6, ops, u, v, ops.lam)
    return _result("fem.energy_conservation", drift, 1e-10, "10^4 steps")


def _check_fem_pathwise(_, seed, mutations=frozenset()):
    worst = _pathwise_energy_worst(mutations, seed, fem=True)
    return _result("fem.pathwise_energy", worst, 1e-9)


def _check_fem_substitution(_, seed):
    return _result("fem.substitution_residual", _substitution_worst(seed, fem=True), 1e-10)


def _check_fem_ritz(_, __):
    from .spectral import SpectralField

    ops = fem_mod.assemble(8)
    c = np.zeros(8)
    c[0] = 1.0 / np.sqrt(2.0)
    r = fem_mod.ritz_project(ops, SpectralField(c))
    worst = float(np.max(np.abs(r - np.sin(np.pi * ops.x[1:-1]))))
    return _result("fem.ritz_is_interpolation", worst, 1e-12)


def _check_fem_consistency(_, __):
    # mu_k/(k*pi)^2 - 1 ~ (k*pi*h)^2/12, so the 2% band holds up to
    # k ~ d/8 (theta = pi/8) at every mesh width; d/4 would sit near 5%.
    ops = fem_mod.assemble(32)
    count = ops.modes // 8
    k = np.arange(1, count + 1)
    exact = (k * np.pi) ** 2
    worst = float(np.max(np.abs(ops.lam[:count] - exact) / exact))
    return _result("fem.spectral_consistency", worst, 0.02, "first d/8 eigenvalues")


def _mini_convergence(seed):
    return ConvergenceStudy(
        f="sine", g="sine", modes=16, T=0.5, tau_exps=(4, 5, 6), ref_exp=9,
        schemes=("exponential",), realizations=24, seed=seed, chunk=12,
    )


def _check_harness_monotonic(_, seed):
    res = strong_convergence(_mini_convergence(seed)).per_scheme[0]
    increments = np.diff(res.rms_error[::-1])  # coarse taus last
    worst = float(np.min(increments))
    return CheckResult("harness.error_monotonic", worst, ">= 0", bool(worst >= 0),
                       "rms error nonincreasing in tau")


def _slope_se(taus, rms, stderr):
    x = np.log2(taus)
    y_se = stderr / np.maximum(rms, 1e-300) / np.log(2.0)
    xbar = np.mean(x)
    w = (x - xbar) / np.sum((x - xbar) ** 2)
    return float(np.sqrt(np.sum((w * y_se) ** 2)))


def _check_harness_ci(_, seed):
    a = strong_convergence(_mini_convergence(seed)).per_scheme[0]
    b = strong_convergence(_mini_convergence(seed + 999)).per_scheme[0]
    gap = abs(a.slope - b.slope)
    band = 3.0 * (_slope_se(a.taus, a.rms_error, a.stderr)
                  + _slope_se(b.taus, b.rms_error, b.stderr))
    return _result("harness.ci_honesty", gap, max(band, 1e-12),
                   f"slopes {a.slope:.3f} vs {b.slope:.3f}")


def _check_harness_determinism(_, seed):
    study = _mini_convergence(seed)
    a = strong_convergence(study).per_scheme[0].rms_error
    b = strong_convergence(study).per_scheme[0].rms_error
    return _result("harness.determinism", float(np.max(np.abs(a - b))), 0.0)


_CHECKS = [
    ("spectral.unitarity_drift", _check_spectral_unitarity),
    ("spectral.group_composition", _check_spectral_composition),
    ("spectral.hoelder_cosine", _check_spectral_hoelder),
    ("spectral.transform_roundtrip", _check_spectral_roundtrip),
    ("spectral.parseval_quadrature", _check_spectral_parseval),
    ("noise.increment_variance", _check_noise_variance),
    ("noise.coupling_exact", _check_noise_coupling),
    ("noise.replay_determinism", _check_noise_replay),
    ("noise.lag1_autocorrelation", _check_noise_autocorr),
    ("model.gradient_consistency", _check_model_gradient),
    ("model.dealiasing", _check_model_dealiasing),
    ("model.radicand_floor", _check_model_floor),
    ("schemes.pathwise_energy", _check_schemes_pathwise),
    ("schemes.deterministic_conservation", _check_schemes_conservation),
    ("schemes.substitution_residual", _check_schemes_substitution),
    ("schemes.solvability", _check_schemes_solvability),
    ("schemes.onestep_increment_slope", _check_schemes_onestep),
    ("schemes.moment_bound", _check_schemes_moments),
    ("fem.pencil_residual", _check_fem_pencil),
    ("fem.mass_orthonormal", _check_fem_orthonormal),
    ("fem.energy_conservation", _check_fem_conservation),
    ("fem.pathwise_energy", _check_fem_pathwise),
    ("fem.substitution_residual", _check_fem_substitution),
    ("fem.ritz_is_interpolation", _check_fem_ritz),
    ("fem.spectral_consistency", _check_fem_consistency),
    ("harness.error_monotonic", _check_harness_monotonic),
    ("harness.ci_honesty", _check_harness_ci),
    ("harness.determinism", _check_harness_determinism),
]


def invariant_suite(name_filter=None, seed=20260810, mutations=frozenset()):
    """Run every structural check, optionally restricted to one module prefix.

    `mutations` deliberately breaks the named pieces (currently
    'unbalanced_table') so the corresponding checks must fail; this guards the
    suite itself against vacuous passes.  A check whose run aborts with
    `ModelViolationError` or `BlowUpError` is a failed result that names the
    exception, not an exception out of the suite.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in _CHECKS:
        if name_filter and not name.startswith(name_filter):
            continue
        try:
            if name in ("schemes.pathwise_energy", "fem.pathwise_energy"):
                res = fn(rng, seed, mutations=frozenset(mutations))
            else:
                res = fn(rng, seed)
        except (ModelViolationError, BlowUpError) as exc:
            res = CheckResult(name, float("nan"), "no abort", False,
                              f"{type(exc).__name__}: {exc}")
        if not res.passed:
            res = replace(res, detail=(res.detail + f" [seed {seed}]").strip())
        results.append(res)
    return results
