"""Derandomized property test of the production stepper on both spatial backends.

One drawn case is a backend (sine modes K, or a mesh of E elements), a
scheme, a predictor, a drift f, a diffusion g, a step tau, a batch and a
state.  The production `Integrator` steps it on that backend's own noise
path, and every step must keep the structure of the scheme: the pathwise
energy identity, rank-one denominators >= 1, and exact conservation of the
modified energy when g = 0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from savwave import fem
from savwave.model import DIFFUSIONS, DRIFTS, make_problem, spectral_discretization
from savwave.noise import RngStream, power_covariance
from savwave.schemes import PREDICTORS, SCHEMES, Integrator, initial_state

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
