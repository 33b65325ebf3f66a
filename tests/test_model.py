import numpy as np
import pytest
from scipy.special import j0

from savwave.model import (
    DRIFTS,
    ModelViolationError,
    apply_g_core,
    drift_core,
    make_problem,
    potential,
    sav_radicand,
    spectral_discretization,
    uniform_grid,
)
from savwave.spectral import SpectralField, to_nodal

# int_0^1 (1 - cos(sin(pi x))) dx = 1 - J0(1)
F_SINE_AT_SINE = 1.0 - j0(1.0)


def sine_initial(modes):
    c = np.zeros(modes)
    c[0] = 1.0 / np.sqrt(2.0)
    return c


def fine_sine_coefficients(values_fn, modes, points=20_000):
    """Dense trapezoid oracle for <f, e_k> on a fine grid."""
    x = np.linspace(0.0, 1.0, points + 1)
    w = np.full(points + 1, 1.0 / points)
    w[[0, -1]] *= 0.5
    vals = values_fn(x)
    k = np.arange(1, modes + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    return (w * vals) @ basis


class TestPotential:
    def test_linear_drift_on_sine(self):
        problem = make_problem(f="linear", g="zero", modes=16)
        ops = spectral_discretization(16)
        assert potential(sine_initial(16), problem, ops) == pytest.approx(0.25, abs=1e-14)

    def test_zero_field_for_all_builtins(self):
        ops = spectral_discretization(8)
        for name in DRIFTS:
            problem = make_problem(f=name, g="zero", modes=8)
            assert potential(np.zeros(8), problem, ops) == 0.0

    def test_sine_drift_against_bessel_value(self):
        problem = make_problem(f="sine", g="zero", modes=64)
        ops = spectral_discretization(64)
        val = potential(sine_initial(64), problem, ops)
        assert val == pytest.approx(F_SINE_AT_SINE, abs=1e-10)

    def test_sine_drift_against_fine_quadrature(self):
        problem = make_problem(f="sine", g="zero", modes=64)
        ops = spectral_discretization(64)
        x = np.linspace(0.0, 1.0, 10_001)
        w = np.full(10_001, 1e-4)
        w[[0, -1]] *= 0.5
        oracle = float(np.sum(w * (1.0 - np.cos(np.sin(np.pi * x)))))
        assert potential(sine_initial(64), problem, ops) == pytest.approx(oracle, abs=1e-6)

    def test_antiderivative_matches_drift(self):
        # (Ftilde(u + e) - Ftilde(u - e)) / 2e = f(u) pointwise
        u = np.linspace(-2.0, 2.0, 41)
        eps = 1e-6
        for name, (f, anti) in DRIFTS.items():
            fd = (anti(u + eps) - anti(u - eps)) / (2 * eps)
            assert np.max(np.abs(fd - f(u))) < 1e-7


class TestSavValue:
    def test_linear_on_sine(self):
        problem = make_problem(f="linear", g="zero", modes=16)
        ops = spectral_discretization(16)
        assert np.sqrt(sav_radicand(sine_initial(16), problem, ops)) == pytest.approx(
            np.sqrt(1.25), abs=1e-13
        )

    def test_zero_field(self):
        problem = make_problem(f="cubic", g="zero", modes=8)
        ops = spectral_discretization(8)
        assert np.sqrt(sav_radicand(np.zeros(8), problem, ops)) == pytest.approx(1.0, abs=1e-15)

    def test_sine_on_sine(self):
        problem = make_problem(f="sine", g="zero", modes=64)
        ops = spectral_discretization(64)
        assert np.sqrt(sav_radicand(sine_initial(64), problem, ops)) == pytest.approx(
            np.sqrt(F_SINE_AT_SINE + 1.0), abs=1e-10
        )

    def test_degenerate_radicand_aborts(self):
        problem = make_problem(f="zero", g="zero", modes=8, delta0=1e-12)
        ops = spectral_discretization(8)
        with pytest.raises(ModelViolationError):
            sav_radicand(np.zeros(8), problem, ops)


class TestDriftDirection:
    def test_zero_drift(self):
        problem = make_problem(f="zero", g="zero", modes=8, delta0=0.81)
        ops = spectral_discretization(8)
        b, s = drift_core(sine_initial(8), problem, ops)
        assert np.all(b == 0)
        assert s == pytest.approx(0.9, rel=1e-15)

    def test_linear_drift_on_eigenmode_keeps_direction(self):
        problem = make_problem(f="linear", g="zero", modes=8)
        ops = spectral_discretization(8)
        b, s = drift_core(SpectralField.basis(2, 8).coeffs, problem, ops)
        assert b[1] == pytest.approx(1.0 / s, rel=1e-12)
        assert np.max(np.abs(np.delete(b, 1))) <= 1e-13

    def test_sine_drift_against_per_mode_quadrature(self):
        modes = 16
        problem = make_problem(f="sine", g="zero", modes=modes)
        ops = spectral_discretization(modes)
        b, s = drift_core(sine_initial(modes), problem, ops)
        oracle = fine_sine_coefficients(lambda x: np.sin(np.sin(np.pi * x)), modes) / s
        assert np.max(np.abs(b - oracle)) <= 1e-8


class TestApplyG:
    def test_additive_returns_increment(self):
        problem = make_problem(f="linear", g="constant", sigma=1.0, modes=24)
        ops = spectral_discretization(24)
        dw = np.random.default_rng(0).standard_normal(24)
        out = apply_g_core(sine_initial(24), dw, problem, ops)
        assert np.max(np.abs(out - dw)) <= 1e-12

    def test_zero_increment(self):
        problem = make_problem(f="linear", g="sine", modes=8)
        ops = spectral_discretization(8)
        out = apply_g_core(sine_initial(8), np.zeros(8), problem, ops)
        assert np.all(out == 0)

    def test_multiplicative_against_per_mode_quadrature(self):
        # g = sin(u), u = sin(pi x), dW = e1: coefficients of
        # sin(sin(pi x)) * sqrt(2) sin(pi x).  The product's sine spectrum
        # decays only like m^-3, so matching the true projection at 1e-8
        # needs an evaluation grid well past the dealiasing default.
        modes = 16
        problem = make_problem(f="linear", g="sine", modes=modes)
        ops = spectral_discretization(modes, grid_points=512)
        out = apply_g_core(sine_initial(modes), SpectralField.basis(1, modes).coeffs, problem, ops)
        oracle = fine_sine_coefficients(
            lambda x: np.sin(np.sin(np.pi * x)) * np.sqrt(2.0) * np.sin(np.pi * x), modes
        )
        assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_gradient_dependent_diffusion_is_supported(self):
        problem = make_problem(f="linear", g="sine", modes=16)
        problem = type(problem)(**{**problem.__dict__, "g": lambda u, ux: ux, "uses_gradient": True})
        ops = spectral_discretization(16)
        dw = SpectralField.basis(1, 16).coeffs
        out = apply_g_core(sine_initial(16), dw, problem, ops)
        # u_x = pi cos(pi x); coefficients of pi cos(pi x) sqrt2 sin(pi x)
        oracle = fine_sine_coefficients(
            lambda x: np.pi * np.cos(np.pi * x) * np.sqrt(2.0) * np.sin(np.pi * x), 16
        )
        assert np.max(np.abs(out - oracle)) <= 1e-8


class TestGradientConsistency:
    @pytest.mark.parametrize("name", ["linear", "sine", "cubic"])
    def test_potential_gradient_pairs_with_drift(self, name):
        modes = 32
        problem = make_problem(f=name, g="zero", modes=modes)
        ops = spectral_discretization(modes)
        rng = np.random.default_rng(17)
        k = np.arange(1, modes + 1, dtype=float)
        u = rng.standard_normal(modes) / k**2
        phi = rng.standard_normal(modes) / k**2
        eps = 1e-5
        fd = (potential(u + eps * phi, problem, ops) - potential(u - eps * phi, problem, ops)) / (2 * eps)
        inner = float(np.dot(ops.project(problem.f(ops.nodal(u))), phi))
        assert fd == pytest.approx(inner, rel=1e-6)


class TestDealiasing:
    @pytest.mark.parametrize("name", ["sine", "cubic"])
    def test_drift_invariant_under_grid_doubling(self, name):
        modes = 32
        problem = make_problem(f=name, g="zero", modes=modes)
        coarse = spectral_discretization(modes)
        finer = spectral_discretization(modes, grid_factor=4)
        u = np.zeros(modes)
        u[:8] = np.random.default_rng(3).standard_normal(8) / np.arange(1, 9) ** 2
        from savwave.model import drift_core

        b1, _ = drift_core(u, problem, coarse)
        b2, _ = drift_core(u, problem, finer)
        assert np.max(np.abs(b1 - b2)) <= 1e-10


class TestProblemConstruction:
    def test_unknown_drift_rejected(self):
        with pytest.raises(ValueError):
            make_problem(f="quintic")

    def test_unknown_diffusion_rejected(self):
        with pytest.raises(ValueError):
            make_problem(g="tanh")

    def test_nonpositive_delta0_rejected(self):
        with pytest.raises(ValueError):
            make_problem(delta0=0.0)

    def test_default_initial_data_is_sine(self):
        problem = make_problem(modes=32)
        vals = to_nodal(problem.u0, 64)
        x = np.linspace(0.0, 1.0, 65)
        assert np.max(np.abs(vals - np.sin(np.pi * x))) <= 1e-12
        assert np.all(problem.v0.coeffs == 0)

    def test_grid_weights_sum_to_one(self):
        grid = uniform_grid(37)
        assert np.sum(grid.weights) == pytest.approx(1.0, abs=1e-15)
