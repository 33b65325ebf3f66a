from dataclasses import replace

import numpy as np
import pytest

from savwave import checks
from savwave.checks import _fem_stencil
from savwave.fem import (
    assemble,
    eigenvalue_closed_form,
    initial_coefficients,
    l2_project,
    linear_interp,
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


def fem_state(ops, problem):
    return initial_state(*initial_coefficients(ops, problem), problem, ops)


class TestAssembly:
    def test_quarter_mesh_matrix_entries(self):
        # the stencil oracle, and the nodal mass that backs the FEM trace term
        stiffness, mass = _fem_stencil(4)
        assert stiffness[0, 0] == 8.0
        assert stiffness[0, 1] == -4.0
        assert mass[0, 0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert mass[0, 1] == pytest.approx(1.0 / 24.0, rel=1e-15)
        assert np.array_equal(assemble(4).l2_gram[1:-1, 1:-1], mass)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError):
            assemble(1)

    def test_eigenvalues_match_closed_form(self):
        ops = assemble(48)
        exact = eigenvalue_closed_form(48)
        assert np.max(np.abs(ops.lam - exact) / exact) <= 1e-10

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    def test_eigenpairs_match_long_double_oracle(self):
        # The P1 pencil's eigenpairs in extended precision, written in the
        # classical (1 - cos) form and with the unreduced sine argument j*theta_k.
        elements = 256
        ops = assemble(elements)
        k = np.arange(1, elements).astype(np.longdouble)
        theta = k * (4 * np.arctan(np.longdouble(1))) / elements
        c = np.cos(theta)
        mu = 6 * np.longdouble(elements) ** 2 * (1 - c) / (2 + c)
        phi = np.sqrt(6 / (2 + c)) * np.sin(np.outer(k, theta))
        assert float(np.max(np.abs(ops.lam / mu - 1))) <= 1e-14
        assert float(np.max(np.abs(ops.synth[1:-1] - phi))) <= 1e-14

    def test_first_eigenvalue_near_continuum(self):
        ops = assemble(64)
        assert abs(ops.lam[0] - np.pi**2) / np.pi**2 < 1e-3

    def test_eigenvalues_positive_increasing(self):
        ops = assemble(16)
        assert np.all(ops.lam > 0)
        assert np.all(np.diff(ops.lam) > 0)

    def test_eigenvectors_mass_orthonormal(self):
        ops = assemble(32)
        _, mass = _fem_stencil(32)
        phi = ops.synth[1:-1]
        assert np.max(np.abs(phi.T @ mass @ phi - np.eye(ops.modes))) <= 1e-12

    @pytest.mark.parametrize("elements", [16, 64])
    def test_analysis_is_phi_transpose_mass(self, elements):
        ops = assemble(elements)
        _, mass = _fem_stencil(elements)
        phi_t_mass = ops.synth[1:-1].T @ mass
        assert np.max(np.abs(ops.analysis[:, 1:-1] - phi_t_mass)) <= 1e-14
        assert not np.any(ops.analysis[:, [0, -1]])

    @pytest.mark.parametrize("elements", [16, 64])
    def test_noise_projection_is_the_signed_alias_fold(self, elements):
        # sine mode k lands on FEM mode r = k mod 2E, reflected into 1..E-1
        # with a minus sign, with magnitude sqrt(2)/c_r; k = 0 mod E vanishes
        modes = 256
        theta = np.arange(1, elements) * np.pi / elements
        norm = np.sqrt(6.0 / (2.0 + np.cos(theta)))
        fold = np.zeros((elements - 1, modes))
        for k in range(1, modes + 1):
            r = k % (2 * elements)
            sign = 1.0 if r < elements else -1.0
            r = r if r < elements else 2 * elements - r
            if r % elements:
                fold[r - 1, k - 1] = sign * np.sqrt(2.0) / norm[r - 1]
        cmap = noise_projection_matrix(assemble(elements), modes)
        assert np.max(np.abs(cmap - fold)) <= 1e-13

    def test_mass_orthonormal_check_sees_a_rescaled_column(self, monkeypatch):
        build = checks.fem_mod.assemble

        def rescaled(elements):
            ops = build(elements)
            synth = ops.synth.copy()
            synth[:, 3] *= 1.0 + 1e-9
            return replace(ops, synth=synth)

        assert checks._check_fem_orthonormal(None, None).passed
        monkeypatch.setattr(checks.fem_mod, "assemble", rescaled)
        assert not checks._check_fem_orthonormal(None, None).passed


class TestProjections:
    def test_l2_of_zero(self):
        ops = assemble(8)
        out = l2_project(ops, lambda x: np.zeros_like(x))
        assert np.max(np.abs(out)) <= 1e-15

    def test_l2_galerkin_orthogonality(self):
        # residual loads of (v - proj) against every hat below 1e-10,
        # loads recomputed on an independent dense grid (the per-element
        # Gauss rule is O(h^6)-exact, so the mesh must not be too coarse)
        ops = assemble(16)
        proj = l2_project(ops, sine_initial(16))
        x = np.linspace(0.0, 1.0, 100_001)
        w = np.full(x.size, 1.0 / 100_000)
        w[[0, -1]] *= 0.5
        hats = np.array([np.interp(x, ops.x, hat) for hat in np.eye(ops.x.size)[1:-1]]).T
        dense_load = (w * np.sin(np.pi * x)) @ hats
        _, mass = _fem_stencil(16)
        assert np.max(np.abs(dense_load - mass @ proj)) <= 1e-10

    def test_l2_refinement_is_second_order(self):
        errs = []
        for elems in (8, 16, 32):
            ops = assemble(elems)
            proj = l2_project(ops, sine_initial(max(8, elems)))
            x = np.linspace(0.0, 1.0, 4097)
            vals = np.interp(x, ops.x, np.concatenate([[0.0], proj, [0.0]]))
            w = np.full(x.size, 1.0 / 4096)
            w[[0, -1]] *= 0.5
            errs.append(np.sqrt(np.sum(w * (vals - np.sin(np.pi * x)) ** 2)))
        for a, b in zip(errs, errs[1:]):
            assert 3.0 < a / b < 5.0

    def test_ritz_of_sine_is_nodal_interpolation(self):
        ops = assemble(8)
        out = ritz_project(ops, sine_initial(8))
        assert np.max(np.abs(out - np.sin(np.pi * ops.x[1:-1]))) <= 1e-12

    def test_ritz_energy_minimization(self):
        # |R_h u|_{H1} <= |u|_{H1} on random smooth fields
        rng = np.random.default_rng(4)
        ops = assemble(16)
        stiffness, _ = _fem_stencil(16)
        k = np.arange(1, 13, dtype=float)
        for _ in range(5):
            f = SpectralField(rng.standard_normal(12) / k**2)
            r = ritz_project(ops, f)
            h1 = float(r @ stiffness @ r)
            exact = float(np.sum((k * np.pi) ** 2 * f.coeffs**2))
            assert h1 <= exact * (1 + 1e-12)


class TestInitialCoefficients:
    def test_ritz_displacement_and_l2_velocity_in_eigencoordinates(self):
        ops = assemble(16)
        problem = make_problem(modes=16, v0=SpectralField(np.eye(16)[1]))
        u0, v0 = initial_coefficients(ops, problem)
        assert np.max(np.abs(ops.synth[1:-1] @ u0 - ritz_project(ops, problem.u0))) <= 1e-13
        assert np.max(np.abs(ops.synth[1:-1] @ v0 - l2_project(ops, problem.v0))) <= 1e-13

    def test_state_carries_the_nodal_cache(self):
        ops = assemble(16)
        problem = make_problem(f="sine", g="sine", modes=16)
        state = fem_state(ops, problem)
        assert np.array_equal(state.vals, ops.nodal(state.u))
        assert state.q == np.sqrt(state.rad)


class TestDiscreteGroup:
    def test_zero_time_identity(self):
        ops = assemble(16)
        table = wave_group_table(ops.lam, 0.0)
        assert np.all(table.cos == 1.0)
        assert np.all(table.sin == 0.0)
        assert np.all(table.a1 == 0.0)

    def test_half_period_sign_flip(self):
        ops = assemble(16)
        tau = np.pi / np.sqrt(ops.lam[0])
        table = wave_group_table(ops.lam, tau)
        assert table.cos[0] == pytest.approx(-1.0, abs=1e-12)
        assert table.sin[0] == pytest.approx(0.0, abs=1e-12)

    def test_discrete_trig_identity(self):
        ops = assemble(32)
        table = wave_group_table(ops.lam, 0.7)
        x = np.random.default_rng(0).standard_normal(ops.modes)
        lhs = np.sum((table.sin * x) ** 2) + np.sum((table.cos * x) ** 2)
        assert lhs == pytest.approx(np.sum(x**2), rel=1e-11)

    def test_long_run_conservation(self):
        ops = assemble(32)
        table = wave_group_table(ops.lam, 2.0**-6)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(ops.modes) / np.arange(1, ops.modes + 1)
        v = rng.standard_normal(ops.modes)
        e0 = 0.5 * np.sum(ops.lam * u**2) + 0.5 * np.sum(v**2)
        for _ in range(10_000):
            u, v = table.cos * u + table.a2 * v, -table.sqrt_lam * table.sin * u + table.cos * v
        e1 = 0.5 * np.sum(ops.lam * u**2) + 0.5 * np.sum(v**2)
        assert abs(e1 - e0) / e0 <= 1e-10


class TestFullyDiscreteStep:
    def test_degenerate_step_is_discrete_group(self):
        ops = assemble(16)
        problem = make_problem(f="zero", g="zero", modes=ops.modes)
        state = fem_state(ops, problem)
        table = wave_group_table(ops.lam, 0.21)
        new, _ = step_exponential_sav(state, np.zeros(ops.modes), table, problem,
                                      ops)
        u_expect = table.cos * state.u + table.a2 * state.v
        assert np.array_equal(new.u, u_expect)
        assert new.q == state.q

    @pytest.mark.parametrize("variant", ["exponential", "midpoint"])
    def test_substitution_residual(self, variant):
        ops = assemble(24)
        problem = make_problem(f="cubic", g="sine", modes=ops.modes)
        rng = np.random.default_rng(7)
        k = np.arange(1, ops.modes + 1, dtype=float)
        state = SavState(rng.standard_normal((500, ops.modes)) / k,
                         rng.standard_normal((500, ops.modes)),
                         0.5 + rng.random(500))
        dw = rng.standard_normal((500, ops.modes)) * 0.03
        tau = 2.0**-6
        integ = Integrator(variant, tau, problem, ops, state)
        integ.step(dw)
        res = substitution_residual(variant, state, integ.state, dw, problem, ops,
                                    table=wave_group_table(ops.lam, tau), tau=tau)
        assert np.all(res <= 1e-10 * (1.0 + state_norm(state, ops.lam)))

    @pytest.mark.parametrize("variant", ["exponential", "midpoint"])
    def test_pathwise_energy_identity_with_mass_inner_products(self, variant):
        # increment of 1/2|grad u|^2 + 1/2|v|^2 + q^2 equals
        # <v_n, P_h G_n> + 1/2 |P_h G_n|^2 in the mass inner product
        ops = assemble(32)
        problem = make_problem(f="sine", g="sine", modes=ops.modes)
        cmap = noise_projection_matrix(ops, ops.modes)
        rng = np.random.default_rng(3)
        tau = 2.0**-6
        integ = Integrator(variant, tau, problem, ops, fem_state(ops, problem))
        scale = np.sqrt(problem.noise.q * tau)
        for _ in range(50):
            dw = cmap @ (rng.standard_normal(ops.modes) * scale)
            diag = integ.step(dw, diagnostics=True)
            assert abs(float(diag.energy_residual)) <= 1e-9 * (1.0 + float(diag.V))

    def test_noise_projection_roundtrip(self):
        # coefficients -> nodal -> coefficients is the identity: reading the
        # increment's mesh-nodal trace as an element function loses nothing
        ops = assemble(16)
        rng = np.random.default_rng(9)
        nodal = rng.standard_normal(ops.modes)
        padded = np.concatenate([[0.0], nodal, [0.0]])
        coeffs = ops.project(padded)
        back = ops.nodal(coeffs)
        assert np.max(np.abs(back[1:-1] - nodal)) <= 1e-12

    def test_linear_interp_reproduces_nodes_and_matches_np_interp(self):
        ops = assemble(8)
        rng = np.random.default_rng(10)
        vals = rng.standard_normal((3, 9))
        assert np.max(np.abs(linear_interp(ops.x, vals, ops.x) - vals)) <= 1e-15
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 50)])
        oracle = np.array([np.interp(x, ops.x, row) for row in vals])
        assert np.max(np.abs(linear_interp(ops.x, vals, x) - oracle)) <= 1e-14
