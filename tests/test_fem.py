import numpy as np
import pytest

from savwave.fem import (
    assemble,
    eigenvalue_closed_form,
    initial_coefficients,
    l2_project,
    linear_interp_matrix,
    noise_projection_matrix,
    ritz_project,
)
from savwave.model import make_problem
from savwave.schemes import (
    Integrator,
    SavState,
    initial_state,
    state_norm,
    step_exponential_sav,
    substitution_residual,
)
from savwave.spectral import SpectralField, wave_group_table


def sine_initial(modes):
    c = np.zeros(modes)
    c[0] = 1.0 / np.sqrt(2.0)
    return SpectralField(c)


def fem_state(system, problem):
    ops = system.discretization
    return initial_state(*initial_coefficients(system, problem), problem, ops)


class TestAssembly:
    def test_quarter_mesh_matrix_entries(self):
        system = assemble(4)
        assert system.stiffness[0, 0] == 8.0
        assert system.stiffness[0, 1] == -4.0
        assert system.mass[0, 0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert system.mass[0, 1] == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError):
            assemble(1)

    def test_eigenvalues_match_closed_form(self):
        system = assemble(48)
        exact = eigenvalue_closed_form(48)
        assert np.max(np.abs(system.mu - exact) / exact) <= 1e-10

    def test_first_eigenvalue_near_continuum(self):
        system = assemble(64)
        assert abs(system.mu[0] - np.pi**2) / np.pi**2 < 1e-3

    def test_eigenvalues_positive_increasing(self):
        system = assemble(16)
        assert np.all(system.mu > 0)
        assert np.all(np.diff(system.mu) > 0)

    def test_eigenvectors_mass_orthonormal(self):
        system = assemble(32)
        gram = system.phi.T @ system.mass @ system.phi
        assert np.max(np.abs(gram - np.eye(system.dim))) <= 1e-12


class TestProjections:
    def test_l2_fixes_interior_vectors(self):
        system = assemble(16)
        v = np.sin(2.3 * system.x[1:-1])
        assert np.array_equal(l2_project(system, v), v)

    def test_l2_of_zero(self):
        system = assemble(8)
        out = l2_project(system, lambda x: np.zeros_like(x))
        assert np.max(np.abs(out)) <= 1e-15

    def test_l2_galerkin_orthogonality(self):
        # residual loads of (v - proj) against every hat below 1e-10,
        # loads recomputed on an independent dense grid (the per-element
        # Gauss rule is O(h^6)-exact, so the mesh must not be too coarse)
        system = assemble(16)
        proj = l2_project(system, sine_initial(16))
        x = np.linspace(0.0, 1.0, 100_001)
        w = np.full(x.size, 1.0 / 100_000)
        w[[0, -1]] *= 0.5
        hats = linear_interp_matrix(system.x, x)[:, 1:-1]
        dense_load = (w * np.sin(np.pi * x)) @ hats
        assert np.max(np.abs(dense_load - system.mass @ proj)) <= 1e-10

    def test_l2_refinement_is_second_order(self):
        errs = []
        for elems in (8, 16, 32):
            system = assemble(elems)
            proj = l2_project(system, sine_initial(max(8, elems)))
            x = np.linspace(0.0, 1.0, 4097)
            vals = linear_interp_matrix(system.x, x) @ np.concatenate([[0.0], proj, [0.0]])
            w = np.full(x.size, 1.0 / 4096)
            w[[0, -1]] *= 0.5
            errs.append(np.sqrt(np.sum(w * (vals - np.sin(np.pi * x)) ** 2)))
        for a, b in zip(errs, errs[1:]):
            assert 3.0 < a / b < 5.0

    def test_ritz_fixes_interior_vectors(self):
        system = assemble(12)
        hat = np.zeros(system.dim)
        hat[4] = 1.0
        assert np.array_equal(ritz_project(system, hat), hat)

    def test_ritz_of_sine_is_nodal_interpolation(self):
        system = assemble(8)
        out = ritz_project(system, sine_initial(8))
        assert np.max(np.abs(out - np.sin(np.pi * system.x[1:-1]))) <= 1e-12

    def test_ritz_energy_minimization(self):
        # |R_h u|_{H1} <= |u|_{H1} on random smooth fields
        rng = np.random.default_rng(4)
        system = assemble(16)
        k = np.arange(1, 13, dtype=float)
        for _ in range(5):
            f = SpectralField(rng.standard_normal(12) / k**2)
            r = ritz_project(system, f)
            h1 = float(r @ system.stiffness @ r)
            exact = float(np.sum((k * np.pi) ** 2 * f.coeffs**2))
            assert h1 <= exact * (1 + 1e-12)


class TestInitialCoefficients:
    def test_ritz_displacement_and_l2_velocity_in_eigencoordinates(self):
        system = assemble(16)
        problem = make_problem(modes=16, v0=SpectralField.basis(2, 16))
        u0, v0 = initial_coefficients(system, problem)
        assert np.max(np.abs(system.phi @ u0 - ritz_project(system, problem.u0))) <= 1e-13
        assert np.max(np.abs(system.phi @ v0 - l2_project(system, problem.v0))) <= 1e-13

    def test_state_carries_the_nodal_cache(self):
        system = assemble(16)
        problem = make_problem(f="sine", g="sine", modes=16)
        state = fem_state(system, problem)
        ops = system.discretization
        assert np.array_equal(state.vals, ops.nodal(state.u))
        assert state.q == np.sqrt(state.rad)


class TestDiscreteGroup:
    def test_zero_time_identity(self):
        system = assemble(16)
        table = wave_group_table(system.mu, 0.0)
        assert np.all(table.cos == 1.0)
        assert np.all(table.sin == 0.0)
        assert np.all(table.a1 == 0.0)

    def test_half_period_sign_flip(self):
        system = assemble(16)
        tau = np.pi / np.sqrt(system.mu[0])
        table = wave_group_table(system.mu, tau)
        assert table.cos[0] == pytest.approx(-1.0, abs=1e-12)
        assert table.sin[0] == pytest.approx(0.0, abs=1e-12)

    def test_discrete_trig_identity(self):
        system = assemble(32)
        table = wave_group_table(system.mu, 0.7)
        x = np.random.default_rng(0).standard_normal(system.dim)
        lhs = np.sum((table.sin * x) ** 2) + np.sum((table.cos * x) ** 2)
        assert lhs == pytest.approx(np.sum(x**2), rel=1e-11)

    def test_long_run_conservation(self):
        system = assemble(32)
        table = wave_group_table(system.mu, 2.0**-6)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(system.dim) / np.arange(1, system.dim + 1)
        v = rng.standard_normal(system.dim)
        e0 = 0.5 * np.sum(system.mu * u**2) + 0.5 * np.sum(v**2)
        for _ in range(10_000):
            u, v = table.cos * u + table.a2 * v, -table.sqrt_lam * table.sin * u + table.cos * v
        e1 = 0.5 * np.sum(system.mu * u**2) + 0.5 * np.sum(v**2)
        assert abs(e1 - e0) / e0 <= 1e-10


class TestFullyDiscreteStep:
    def test_degenerate_step_is_discrete_group(self):
        system = assemble(16)
        problem = make_problem(f="zero", g="zero", modes=system.dim)
        state = fem_state(system, problem)
        table = wave_group_table(system.mu, 0.21)
        new, _ = step_exponential_sav(state, np.zeros(system.dim), table, problem,
                                      system.discretization)
        u_expect = table.cos * state.u + table.a2 * state.v
        assert np.array_equal(new.u, u_expect)
        assert new.q == state.q

    @pytest.mark.parametrize("variant", ["exponential", "midpoint"])
    def test_substitution_residual(self, variant):
        system = assemble(24)
        ops = system.discretization
        problem = make_problem(f="cubic", g="sine", modes=system.dim)
        rng = np.random.default_rng(7)
        k = np.arange(1, system.dim + 1, dtype=float)
        state = SavState(rng.standard_normal((500, system.dim)) / k,
                         rng.standard_normal((500, system.dim)),
                         0.5 + rng.random(500))
        dw = rng.standard_normal((500, system.dim)) * 0.03
        tau = 2.0**-6
        integ = Integrator(variant, tau, problem, ops, state)
        integ.step(dw)
        res = substitution_residual(variant, state, integ.state, dw, problem, ops,
                                    table=wave_group_table(system.mu, tau), tau=tau)
        assert np.all(res <= 1e-10 * (1.0 + state_norm(state, ops.lam)))

    @pytest.mark.parametrize("variant", ["exponential", "midpoint"])
    def test_pathwise_energy_identity_with_mass_inner_products(self, variant):
        # increment of 1/2|grad u|^2 + 1/2|v|^2 + q^2 equals
        # <v_n, P_h G_n> + 1/2 |P_h G_n|^2 in the mass inner product
        system = assemble(32)
        ops = system.discretization
        problem = make_problem(f="sine", g="sine", modes=system.dim)
        cmap = noise_projection_matrix(system, system.dim)
        rng = np.random.default_rng(3)
        tau = 2.0**-6
        integ = Integrator(variant, tau, problem, ops, fem_state(system, problem))
        scale = np.sqrt(problem.noise.q * tau)
        for _ in range(50):
            dw = cmap @ (rng.standard_normal(system.dim) * scale)
            diag = integ.step(dw, diagnostics=True)
            assert abs(float(diag.energy_residual)) <= 1e-9 * (1.0 + float(diag.V))

    def test_noise_projection_roundtrip(self):
        # coefficients -> nodal -> coefficients is the identity: reading the
        # increment's mesh-nodal trace as an element function loses nothing
        system = assemble(16)
        ops = system.discretization
        rng = np.random.default_rng(9)
        nodal = rng.standard_normal(system.dim)
        padded = np.concatenate([[0.0], nodal, [0.0]])
        coeffs = ops.project(padded)
        back = ops.nodal(coeffs)
        assert np.max(np.abs(back[1:-1] - nodal)) <= 1e-12

    def test_interp_matrix_reproduces_nodal_values(self):
        system = assemble(8)
        mat = linear_interp_matrix(system.x, system.x)
        assert np.max(np.abs(mat - np.eye(9))) <= 1e-14
