import numpy as np
import pytest

from savwave import fem, schemes
from savwave.model import make_problem, sav_radicand, spectral_discretization
from savwave.noise import RngStream, power_covariance, sample_block
from savwave.schemes import (
    BlowUpError,
    Integrator,
    SavState,
    modified_energy,
    pathwise_energy_residual,
    run_trajectory,
    state_norm,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from savwave.spectral import (
    PairState,
    SpectralField,
    group_step,
    spectral_group_table,
    wave_group_table,
)


def initial_state(problem, ops):
    u = problem.u0.coeffs.copy()
    v = problem.v0.coeffs.copy()
    return SavState(u, v, np.sqrt(sav_radicand(u, problem, ops)))


def random_states(seed, modes, batch):
    rng = np.random.default_rng(seed)
    k = np.arange(1, modes + 1, dtype=float)
    u = rng.standard_normal((batch, modes)) / k
    v = rng.standard_normal((batch, modes))
    q = 0.5 + 1.5 * rng.random(batch)
    return SavState(u, v, q), rng.standard_normal((batch, modes)) * 0.05


class TestDegenerateCases:
    def test_exponential_reduces_to_wave_group(self):
        modes = 32
        problem = make_problem(f="zero", g="zero", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, 0.37)
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(modes), rng.standard_normal(modes)
        state = SavState(u, v, 1.0)
        new, _ = step_exponential_sav(state, np.zeros(modes), table, problem, ops)
        pair = group_step(PairState(SpectralField(u), SpectralField(v)), table)
        assert np.array_equal(new.u, pair.u.coeffs)
        assert np.array_equal(new.v, pair.v.coeffs)
        assert new.q == state.q

    def test_exponential_additive_closed_form(self):
        # f = 0, g = 1: u' = C u + a2 (v + dW), v' = -sqrt(lam) S u + C (v + dW)
        modes = 16
        problem = make_problem(f="zero", g="constant", sigma=1.0, modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, 0.21)
        rng = np.random.default_rng(1)
        u, v, dw = rng.standard_normal((3, modes))
        state = SavState(u, v, 1.0)
        new, _ = step_exponential_sav(state, dw, table, problem, ops)
        u_expect = table.cos * u + table.a2 * (v + dw)
        v_expect = -table.sqrt_lam * table.sin * u + table.cos * (v + dw)
        assert np.max(np.abs(new.u - u_expect)) <= 1e-12
        assert np.max(np.abs(new.v - v_expect)) <= 1e-12
        assert new.q == state.q

    def test_midpoint_single_mode_cayley_rotation(self):
        # f = g = 0 on one mode: the step is the Cayley transform of the
        # harmonic oscillator.
        problem = make_problem(f="zero", g="zero", modes=1)
        ops = spectral_discretization(1)
        tau = 0.13
        lam = float(ops.lam[0])
        u, v = 0.7, -0.4
        state = SavState(np.array([u]), np.array([v]), 1.0)
        new, _ = step_midpoint_sav(state, np.zeros(1), tau, problem, ops)
        den = 1 + tau**2 * lam / 4
        u_expect = ((1 - tau**2 * lam / 4) * u + tau * v) / den
        v_expect = (-tau * lam * u + (1 - tau**2 * lam / 4) * v) / den
        assert new.u[0] == pytest.approx(u_expect, rel=1e-13)
        assert new.v[0] == pytest.approx(v_expect, rel=1e-13)

    def test_midpoint_vanishing_step_consistency(self):
        modes = 16
        problem = make_problem(f="sine", g="zero", modes=modes)
        ops = spectral_discretization(modes)
        state = initial_state(problem, ops)
        new, _ = step_midpoint_sav(state, np.zeros(modes), 1e-9, problem, ops)
        assert np.max(np.abs(new.u - state.u)) <= 1e-8
        assert np.max(np.abs(new.v - state.v)) <= 1e-8
        assert abs(new.q - state.q) <= 1e-8


class TestSubstitutionOracle:
    @pytest.mark.parametrize("scheme", ["exponential", "midpoint"])
    def test_random_states_satisfy_uneliminated_system(self, scheme):
        modes = 48
        tau = 2.0**-6
        problem = make_problem(f="cubic", g="sine", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, tau)
        state, dw = random_states(11, modes, 1000)
        if scheme == "exponential":
            new, _ = step_exponential_sav(state, dw, table, problem, ops)
            res = substitution_residual("exponential", state, new, dw, problem, ops, table=table)
        else:
            new, _ = step_midpoint_sav(state, dw, tau, problem, ops)
            res = substitution_residual("midpoint", state, new, dw, problem, ops, tau=tau)
        bound = 1e-10 * (1.0 + state_norm(state, ops.lam))
        assert np.all(res <= bound)

    def test_denominators_at_least_one(self):
        modes = 32
        problem = make_problem(f="cubic", g="sine", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, 2.0**-5)
        state, dw = random_states(5, modes, 200)
        _, diag = step_exponential_sav(state, dw, table, problem, ops)
        assert np.all(diag.denominator >= 1.0)
        _, diag = step_midpoint_sav(state, dw, 2.0**-5, problem, ops)
        assert np.all(diag.denominator >= 1.0)


class TestPathwiseEnergyIdentity:
    def test_single_mode_additive_hand_computed(self):
        problem = make_problem(f="zero", g="constant", sigma=1.0, modes=1)
        ops = spectral_discretization(1)
        table = spectral_group_table(1, 0.25)
        state = SavState(np.array([0.8]), np.array([-0.3]), 1.0)
        dw = np.array([0.05])
        new, diag = step_exponential_sav(state, dw, table, problem, ops)
        v0 = modified_energy(state.u, state.v, state.q, ops.lam)
        v1 = modified_energy(new.u, new.v, new.q, ops.lam)
        residual = v1 - v0 - state.v[0] * dw[0] - 0.5 * dw[0] ** 2
        assert abs(residual) <= 1e-12

    @pytest.mark.parametrize("scheme", ["exponential", "midpoint"])
    @pytest.mark.parametrize("predictor", ["identity", "extrapolation"])
    def test_multiplicative_random_steps(self, scheme, predictor):
        modes = 32
        tau = 2.0**-7
        problem = make_problem(f="sine", g="sine", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, tau)
        batch = 8
        state = SavState(
            np.tile(problem.u0.coeffs, (batch, 1)),
            np.zeros((batch, modes)),
            np.full(batch, float(np.sqrt(sav_radicand(problem.u0.coeffs, problem, ops)))),
        )
        u_prev = state.u
        rng = RngStream(31, 0)
        for n in range(125):
            dw = sample_block(problem.noise, tau, 1, rng)[0]
            dw = np.tile(dw, (batch, 1)) * (1 + 0.1 * np.arange(batch)[:, None])
            u_hat = state.u if predictor == "identity" else 0.5 * (3 * state.u - u_prev)
            u_prev = state.u
            if scheme == "exponential":
                new, diag = step_exponential_sav(state, dw, table, problem, ops, u_hat=u_hat)
            else:
                new, diag = step_midpoint_sav(state, dw, tau, problem, ops, u_hat=u_hat)
            assert np.all(np.abs(diag.energy_residual) <= 1e-9 * (1.0 + diag.V))
            state = new

    def test_deterministic_conservation_both_schemes(self):
        modes = 32
        problem = make_problem(f="sine", g="zero", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, 2.0**-8)
        for scheme in ("exponential", "midpoint"):
            state = initial_state(problem, ops)
            v0 = float(modified_energy(state.u, state.v, state.q, ops.lam))
            for _ in range(2000):
                if scheme == "exponential":
                    state, _ = step_exponential_sav(state, np.zeros(modes), table, problem, ops,
                                                    diagnostics=False)
                else:
                    state, _ = step_midpoint_sav(state, np.zeros(modes), 2.0**-8, problem, ops,
                                                 diagnostics=False)
            v1 = float(modified_energy(state.u, state.v, state.q, ops.lam))
            assert abs(v1 - v0) / v0 <= 1e-10

    def test_residual_helper_matches_diag(self):
        modes = 16
        problem = make_problem(f="linear", g="sine", modes=modes)
        ops = spectral_discretization(modes)
        table = spectral_group_table(modes, 0.01)
        state, dw = random_states(3, modes, 4)
        new, diag = step_exponential_sav(state, dw, table, problem, ops)
        from savwave.model import apply_g_core

        g_inc = apply_g_core(state.u, dw, problem, ops)
        res = pathwise_energy_residual(state, new, g_inc, ops.lam)
        assert np.max(np.abs(res - diag.energy_residual)) <= 1e-14

    def test_dropping_balancing_term_breaks_the_identity(self):
        modes = 32
        tau = 2.0**-6
        problem = make_problem(f="sine", g="sine", modes=modes)
        ops = spectral_discretization(modes)
        state = initial_state(problem, ops)
        rng = RngStream(77, 0)
        worst = 0.0
        for _ in range(20):
            dw = sample_block(problem.noise, tau, 1, rng)[0]
            state, diag = step_midpoint_sav(state, dw, tau, problem, ops, balancing=False)
            worst = max(worst, float(np.abs(diag.energy_residual) / (1 + diag.V)))
        assert worst > 1e-7


class TestRunTrajectory:
    def test_zero_steps_returns_initial_record_only(self):
        problem = make_problem(f="sine", g="sine", modes=16)
        records = run_trajectory(problem, tau=0.1, n_steps=0, rng=RngStream(1, 0))
        assert len(records) == 1
        assert records[0].step == 0
        assert records[0].aux_gap == 0.0

    def test_conservative_single_mode_energy_constant(self):
        problem = make_problem(f="linear", g="zero", modes=1)
        records = run_trajectory(problem, scheme="midpoint", tau=2.0**-6, n_steps=10_000,
                                 rng=RngStream(2, 0))
        v = np.array([r.V for r in records])
        assert np.max(np.abs(v - v[0])) / v[0] <= 1e-10

    def test_deterministic_replay(self):
        problem = make_problem(f="sine", g="sine", modes=24)
        a = run_trajectory(problem, tau=2.0**-6, n_steps=32, rng=RngStream(9, 4))
        b = run_trajectory(problem, tau=2.0**-6, n_steps=32, rng=RngStream(9, 4))
        assert [r.V for r in a] == [r.V for r in b]
        assert [r.q for r in a] == [r.q for r in b]

    def test_blow_up_guard_aborts(self):
        problem = make_problem(f="sine", g="sine", modes=16)
        with pytest.raises(BlowUpError):
            run_trajectory(problem, tau=2.0**-6, n_steps=8, rng=RngStream(3, 0), guard=1e-6)

    def test_records_carry_monotone_time_and_finite_diagnostics(self):
        problem = make_problem(f="cubic", g="sine", modes=16)
        records = run_trajectory(problem, scheme="midpoint", tau=2.0**-7, n_steps=64,
                                 rng=RngStream(8, 1))
        times = np.array([r.time for r in records])
        assert np.all(np.diff(times) > 0)
        for r in records:
            assert np.isfinite(r.V) and np.isfinite(r.V1) and np.isfinite(r.trace_term)

    def test_unknown_scheme_rejected(self):
        problem = make_problem(modes=8)
        with pytest.raises(ValueError):
            run_trajectory(problem, scheme="verlet", tau=0.1, n_steps=1, rng=RngStream(0))

    def test_extrapolation_predictor_changes_the_path(self):
        problem = make_problem(f="cubic", g="sine", modes=16)
        a = run_trajectory(problem, predictor="identity", tau=2.0**-5, n_steps=16,
                           rng=RngStream(12, 0))
        b = run_trajectory(problem, predictor="extrapolation", tau=2.0**-5, n_steps=16,
                           rng=RngStream(12, 0))
        assert a[-1].V != b[-1].V

    def test_nonfinite_state_aborts(self):
        problem = make_problem(f="linear", g="zero", modes=4)
        ops = spectral_discretization(4)
        table = spectral_group_table(4, 0.1)
        state = SavState(np.full(4, 1e308), np.zeros(4), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                step_exponential_sav(state, np.zeros(4), table, problem, ops)

    def test_noise_beyond_the_truncation_rejected(self):
        problem = make_problem(modes=8, noise=power_covariance(16))
        with pytest.raises(ValueError):
            run_trajectory(problem, tau=0.1, n_steps=1, rng=RngStream(0))

    @pytest.mark.parametrize("scheme", ["exponential", "midpoint"])
    def test_fem_backend_steps_the_mapped_noise(self, scheme):
        # noise with more sine modes than the mesh has eigenmodes is mapped,
        # not padded; each record is the Integrator's step on that increment
        system = fem.assemble(16)
        ops = system.discretization
        problem = make_problem(f="sine", g="sine", modes=16)
        cmap = fem.noise_projection_matrix(system, 16)
        initial = fem.initial_coefficients(system, problem)
        tau = 2.0**-6
        records = run_trajectory(problem, scheme=scheme, predictor="extrapolation", tau=tau,
                                 n_steps=8, rng=RngStream(5, 0), ops=ops, initial=initial,
                                 noise_map=cmap)
        integ = Integrator(scheme, tau, problem, ops, schemes.initial_state(*initial, problem, ops),
                           "extrapolation")
        rng = RngStream(5, 0)
        for record in records[1:]:
            diag = integ.step(cmap @ sample_block(problem.noise, tau, 1, rng)[0],
                              diagnostics=True)
            assert record.V == float(diag.V) and record.q == float(diag.q)
            assert abs(record.energy_residual) <= 1e-9 * (1.0 + record.V)


class TestIntegrator:
    @pytest.mark.parametrize("scheme, predictor", [("verlet", "identity"),
                                                   ("exponential", "extrapolate")])
    def test_unknown_names_rejected(self, scheme, predictor):
        problem = make_problem(modes=8)
        ops = spectral_discretization(8)
        with pytest.raises(ValueError):
            Integrator(scheme, 0.1, problem, ops, initial_state(problem, ops), predictor)

    def test_each_scheme_gets_its_table(self):
        problem = make_problem(modes=8)
        ops = spectral_discretization(8)
        state = initial_state(problem, ops)
        expo = Integrator("exponential", 0.1, problem, ops, state)
        assert np.array_equal(expo.table.cos, wave_group_table(ops.lam, 0.1).cos)
        assert Integrator("midpoint", 0.1, problem, ops, state).table is None

    @pytest.mark.parametrize("scheme", ["exponential", "midpoint"])
    def test_extrapolation_uses_the_previous_step(self, scheme):
        problem = make_problem(f="cubic", g="sine", modes=16)
        ops = spectral_discretization(16)
        tau = 2.0**-5
        integ = Integrator(scheme, tau, problem, ops, initial_state(problem, ops),
                           "extrapolation")
        rng = RngStream(6, 0)
        dws = sample_block(problem.noise, tau, 2, rng)
        integ.step(dws[0])
        prev, state = integ.u_prev, integ.state
        integ.step(dws[1])
        table = wave_group_table(ops.lam, tau)
        res = substitution_residual(scheme, state, integ.state, dws[1], problem, ops,
                                    table=table, tau=tau, u_hat=0.5 * (3.0 * state.u - prev))
        assert np.max(res) <= 1e-10
