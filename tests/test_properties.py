"""Derandomized property test of the production stepper on both spatial backends.

One drawn case is a backend (sine modes K, or a mesh of E elements), a
scheme, a predictor, a drift f, a diffusion g, a step tau, a batch and a
state.  The production `Integrator` steps it on that backend's own noise
path, and every step must keep the structure of the scheme: the pathwise
energy identity, rank-one denominators >= 1, and exact conservation of the
modified energy when g = 0.  Every accepted step must also solve the
un-eliminated step equations as `substitution_residual` rebuilds them from
the libm forms of f and Ftilde, while production evaluates the sine pair
from one tan.  And a row stepped alone must match its row of the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savwave import fem, model
from savwave.model import DIFFUSIONS, DRIFTS, make_problem, spectral_discretization
from savwave.noise import RngStream, power_covariance
from savwave.schemes import (
    PREDICTORS,
    SCHEMES,
    Integrator,
    initial_state,
    state_norm,
    substitution_residual,
)

STEPS = 8


def _case(backend, size, f, g, noise_factor):
    """(problem, ops, initial coefficients, noise map or None) of one backend."""
    if backend == "spectral":
        problem = make_problem(f=f, g=g, modes=size)
        ops = spectral_discretization(size)
        return problem, ops, (problem.u0.coeffs, problem.v0.coeffs), None
    ops = fem.assemble(size)
    noise_modes = noise_factor * size
    problem = make_problem(f=f, g=g, modes=noise_modes, noise=power_covariance(noise_modes))
    cmap = fem.noise_projection_matrix(ops, noise_modes)
    return problem, ops, fem.initial_coefficients(ops, problem), cmap


@given(backend=st.sampled_from(["spectral", "fem"]),
       size=st.sampled_from([4, 8, 16, 32]),
       scheme=st.sampled_from(sorted(SCHEMES)),
       predictor=st.sampled_from(PREDICTORS),
       f=st.sampled_from(sorted(DRIFTS)),
       g=st.sampled_from(sorted(DIFFUSIONS)),
       tau_exp=st.integers(3, 10),
       batch=st.integers(1, 6),
       noise_factor=st.integers(1, 4),
       amplitude=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_step_structure_on_both_backends(backend, size, scheme, predictor, f, g, tau_exp,
                                         batch, noise_factor, amplitude, seed):
    problem, ops, (u0, v0), cmap = _case(backend, size, f, g, noise_factor)
    rng = np.random.default_rng(seed)
    k = np.arange(1, ops.modes + 1)
    u = u0 + amplitude * rng.standard_normal((batch, ops.modes)) / k
    v = v0 + amplitude * rng.standard_normal((batch, ops.modes))
    tau = 2.0**-tau_exp
    integ = Integrator(scheme, tau, problem, ops, initial_state(u, v, problem, ops), predictor)
    energy0 = integ.energy()
    stream = RngStream(seed, 0)
    scale = np.sqrt(problem.noise.q * tau)
    for _ in range(STEPS):
        dw = stream.normals((batch, problem.noise.modes)) * scale
        if cmap is not None:
            dw = dw @ cmap.T
        diag = integ.step(dw, diagnostics=True)
        assert np.all(np.abs(diag.energy_residual) <= 1e-9 * (1.0 + diag.V))
        assert np.all(diag.denominator >= 1.0)
        if g == "zero":
            assert np.all(np.abs(diag.V - energy0) <= 1e-12 * energy0)


def _residuals(scheme, predictor, tau, problem, ops, state, cmap, seed, steps):
    """Substitution residual / (1 + state norm) of each production step."""
    integ = Integrator(scheme, tau, problem, ops, state, predictor)
    stream = RngStream(seed, 0)
    scale = np.sqrt(problem.noise.q * tau)
    out = []
    for _ in range(steps):
        dw = stream.normals((state.u.shape[0], problem.noise.modes)) * scale
        if cmap is not None:
            dw = dw @ cmap.T
        before = integ.state
        u_hat = before.u if predictor == "identity" else 0.5 * (3.0 * before.u - integ.u_prev)
        integ.step(dw, diagnostics=True)
        res = substitution_residual(scheme, before, integ.state, dw, problem, ops,
                                    table=integ.table, tau=tau, u_hat=u_hat)
        out.append(np.max(res / (1.0 + state_norm(integ.state, ops.lam))))
    return max(out)


@given(backend=st.sampled_from(["spectral", "fem"]),
       size=st.sampled_from([4, 8, 16]),
       scheme=st.sampled_from(sorted(SCHEMES)),
       predictor=st.sampled_from(PREDICTORS),
       f=st.sampled_from(sorted(DRIFTS)),
       g=st.sampled_from(sorted(DIFFUSIONS)),
       tau_exp=st.integers(3, 10),
       batch=st.integers(1, 4),
       amplitude=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_production_step_solves_the_libm_step_equations(backend, size, scheme, predictor, f, g,
                                                        tau_exp, batch, amplitude, seed):
    problem, ops, (u0, v0), cmap = _case(backend, size, f, g, 1)
    rng = np.random.default_rng(seed)
    k = np.arange(1, ops.modes + 1)
    u = u0 + amplitude * rng.standard_normal((batch, ops.modes)) / k
    v = v0 + amplitude * rng.standard_normal((batch, ops.modes))
    state = initial_state(u, v, problem, ops)
    assert _residuals(scheme, predictor, 2.0**-tau_exp, problem, ops, state, cmap, seed, 4) <= 1e-10


# A row stepped alone against the same row of a batch.  Rows share no
# arithmetic, but OpenBLAS's small GEMM rounds the last bit differently by
# shape, so the rows match within a bound, not bytewise.
ROW_TOL = 1e-13


def _row_alone_gap(backend, size, scheme, predictor, f, g, tau, batch, amplitude, seed,
                   diagnostics):
    """Max over 8 steps and rows of |row alone - row of the batch| / (1 + state norm)."""
    problem, ops, (u0, v0), cmap = _case(backend, size, f, g, 1)
    rng = np.random.default_rng(seed)
    k = np.arange(1, ops.modes + 1)
    u = u0 + amplitude * rng.standard_normal((batch, ops.modes)) / k
    v = v0 + amplitude * rng.standard_normal((batch, ops.modes))

    def integrator(rows):
        state = initial_state(u[rows], v[rows], problem, ops)
        return Integrator(scheme, tau, problem, ops, state, predictor)

    whole = integrator(slice(None))
    alone = [integrator(slice(r, r + 1)) for r in range(batch)]
    stream = RngStream(seed, 0)
    scale = np.sqrt(problem.noise.q * tau)
    gap = 0.0
    for _ in range(STEPS):
        dw = stream.normals((batch, problem.noise.modes)) * scale
        if cmap is not None:
            dw = dw @ cmap.T
        whole.step(dw, diagnostics=diagnostics)
        norm = 1.0 + state_norm(whole.state, ops.lam)
        for r, integ in enumerate(alone):
            integ.step(dw[r:r + 1], diagnostics=diagnostics)
            diff = max(np.max(np.abs(integ.state.u[0] - whole.state.u[r])),
                       np.max(np.abs(integ.state.v[0] - whole.state.v[r])),
                       abs(integ.state.q[0] - whole.state.q[r]))
            gap = max(gap, diff / norm[r])
    return gap


@given(backend=st.sampled_from(["spectral", "fem"]),
       size=st.sampled_from([4, 8, 16]),
       scheme=st.sampled_from(sorted(SCHEMES)),
       predictor=st.sampled_from(PREDICTORS),
       f=st.sampled_from(sorted(DRIFTS)),
       g=st.sampled_from(sorted(DIFFUSIONS)),
       tau_exp=st.integers(3, 10),
       batch=st.integers(2, 5),
       amplitude=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1),
       diagnostics=st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_row_stepped_alone_matches_its_row_in_the_batch(backend, size, scheme, predictor, f, g,
                                                          tau_exp, batch, amplitude, seed,
                                                          diagnostics):
    gap = _row_alone_gap(backend, size, scheme, predictor, f, g, 2.0**-tau_exp, batch,
                         amplitude, seed, diagnostics)
    assert gap <= ROW_TOL


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_substitution_residual_catches_a_wrong_sine_pair(monkeypatch, scheme):
    problem, ops, (u0, v0), _ = _case("spectral", 16, "sine", "sine", 1)
    u = np.tile(u0, (2, 1))
    v = np.tile(v0, (2, 1))

    sine_pair = model._sine_pair

    def wrong_pair(x, out=None):
        return sine_pair(x, out)[0], np.tan(0.5 * x) ** 2  # t^2 where t sin u belongs

    args = (scheme, "identity", 2.0**-6, problem, ops)
    assert _residuals(*args, initial_state(u, v, problem, ops), None, 5, 4) <= 1e-10
    monkeypatch.setattr(model, "_sine_pair", wrong_pair)
    assert _residuals(*args, initial_state(u, v, problem, ops), None, 5, 4) > 1e-6
