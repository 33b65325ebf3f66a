"""Problem definition and the machinery turning pointwise maps into operators.

A `Problem` bundles the drift f with its antiderivative, the diffusion g, the
radicand shift delta0, initial data, and the noise covariance.  A
`Discretization` carries everything needed to evaluate Nemytskii operators on
coefficient vectors: eigenvalues of the negative Laplacian in the active
orthonormal basis, synthesis/analysis maps between coefficients and nodal
values, and a trapezoid quadrature.  The same interface backs the sine
spectral space and the finite element space, so the time steppers never
branch on the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .noise import CovarianceSpec, power_covariance
from .spectral import SpectralField, _synthesis_matrix, eigenvalues

__all__ = [
    "ModelViolationError",
    "QuadratureGrid",
    "Discretization",
    "Problem",
    "uniform_grid",
    "spectral_discretization",
    "make_problem",
    "DRIFTS",
    "DIFFUSIONS",
]

# Hard floor for F(u) + delta0 along computed trajectories.
RADICAND_FLOOR = 1e-8


class ModelViolationError(RuntimeError):
    """The auxiliary-variable radicand F(u) + delta0 left the admissible range."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform nodes on [0,1] with composite trapezoid weights summing to one."""

    x: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.weights.shape:
            raise ValueError("nodes and weights must align")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def points(self):
        return self.x.size


def uniform_grid(intervals):
    """Trapezoid grid with nodes j/M, j = 0..M."""
    if intervals < 2:
        raise ValueError(f"need at least 2 intervals, got {intervals}")
    x = np.linspace(0.0, 1.0, intervals + 1)
    w = np.full(intervals + 1, 1.0 / intervals)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadratureGrid(x, w)


@dataclass(frozen=True)
class Discretization:
    """Coefficient-space view of one spatial backend.

    Coefficient vectors live in an orthonormal basis of the backend's L2
    inner product, so dots of coefficient vectors are L2 pairings and
    `lam`-weighted dots are H1 pairings.  `synth`/`analysis` map between
    coefficients and nodal values on `grid`; `l2_gram` is None when the
    quadrature is diagonal (spectral) and the nodal mass matrix otherwise.
    """

    lam: np.ndarray
    grid: QuadratureGrid
    synth: np.ndarray
    analysis: np.ndarray
    l2_gram: np.ndarray | None = None

    @property
    def modes(self):
        return self.lam.size

    @property
    def x(self):
        return self.grid.x

    @property
    def weights(self):
        return self.grid.weights

    @cached_property
    def synth_t(self):
        """C-ordered synth.T of this instance: a view of a spectral synth, else a copy."""
        return np.ascontiguousarray(self.synth.T)

    def nodal(self, coeffs, out=None):
        # coeffs is a batch (..., B, K), multiplied into the C-ordered transpose,
        # which OpenBLAS's small GEMM runs faster than the transposed view; the
        # values land in `out` when given.
        return np.matmul(coeffs, self.synth_t, out=out)

    def project(self, values):
        return values @ self.analysis.T

    def quad(self, values):
        # A row-wise reduction: a GEMV gives a row different round-off
        # depending on which rows share its array.
        return np.einsum("...m,m->...", values, self.weights)


def spectral_discretization(modes, grid_points=None):
    """Sine-basis discretization with a dealiased nodal grid of M intervals (default M = 2K)."""
    m = 2 * modes if grid_points is None else grid_points
    if m < modes + 1:
        raise ValueError(f"grid with {m} intervals cannot resolve {modes} modes")
    grid = uniform_grid(m)
    # One read-only sine matrix, built in place as synth_t: synth is a view of
    # it.  analysis is the transpose of a C-ordered (M+1, K) product; the
    # GEMMs' bits depend on it.
    synth_t = _synthesis_matrix(modes, m)
    synth_t.setflags(write=False)
    analysis = np.multiply(synth_t.T, grid.weights[:, None], order="C").T
    return Discretization(eigenvalues(modes), grid, synth_t.T, analysis)


def _zero(u):
    return np.zeros_like(u)


def _identity(u):
    return u


def _versine(u):
    return 1.0 - np.cos(u)


def _sine_pair(u, out=None):
    """(sin u, 1 - cos u) in place from one tan t = tan(u/2): 2t/(1 + t^2) and t sin u.

    sin u lands in `out` when given; u broadcasts against it.
    """
    s = np.multiply(u, 0.5, out=out)
    t = np.tan(s)
    np.multiply(t, t, out=s)
    s += 1.0
    np.divide(t, s, out=s)
    s *= 2.0
    np.multiply(t, s, out=t)
    return s, t


# Built-in drift pairs (f, Ftilde) with Ftilde' = f and Ftilde(0) = 0.  Steppers
# evaluate them jointly (Problem.drift_values: the sine pair from one tan); f and
# Ftilde stay the oracles of drift_core, sav_radicand and
# schemes.substitution_residual.
DRIFTS = {
    "zero": (_zero, _zero),
    "linear": (_identity, lambda u: 0.5 * u**2),
    "sine": (np.sin, _versine),
    "cubic": (lambda u: u**3 + u, lambda u: 0.25 * u**4 + 0.5 * u**2),
}


# Built-in diffusions g(u), each built from sigma (only "constant" uses it).
# "zero", "sine" and "linear" return the drift registry's own functions, so
# Problem.g_is_f holds when f and g are registered under the same name.
DIFFUSIONS = {
    "zero": lambda sigma: _zero,
    "constant": lambda sigma: (lambda u: np.full_like(u, sigma)),
    "sine": lambda sigma: np.sin,
    "linear": lambda sigma: _identity,
}


@dataclass(frozen=True)
class Problem:
    """Drift/diffusion/initial data defining one stochastic wave problem."""

    f: Callable
    Ftilde: Callable
    g: Callable
    delta0: float
    u0: SpectralField
    v0: SpectralField
    noise: CovarianceSpec

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")

    @property
    def g_is_f(self):
        """True when g is f itself, so one evaluation serves both."""
        return self.g is self.f

    def drift_values(self, u, out=None):
        """(f(u), Ftilde(u)): the registry's sine pair from one tan, any other pair as given.

        f(u) lands in `out` when given; u broadcasts against it.
        """
        if self.f is DRIFTS["sine"][0] and self.Ftilde is _versine:
            return _sine_pair(u, out)
        if out is None:
            return self.f(u), self.Ftilde(u)
        np.copyto(out, self.f(u))
        return out, self.Ftilde(u)


def default_initial_displacement(modes):
    """sin(pi*x) expressed in the orthonormal sine basis."""
    c = np.zeros(modes)
    c[0] = 1.0 / np.sqrt(2.0)
    return SpectralField(c)


def make_problem(
    f="sine",
    g="sine",
    sigma=1.0,
    delta0=1.0,
    modes=64,
    noise_decay=2.0,
    noise=None,
    u0=None,
    v0=None,
):
    """Assemble a Problem from registry names and defaults u0 = sin(pi*x), v0 = 0."""
    if f not in DRIFTS:
        raise ValueError(f"unknown drift '{f}'; choose from {sorted(DRIFTS)}")
    if g not in DIFFUSIONS:
        raise ValueError(f"unknown diffusion '{g}'; choose from {sorted(DIFFUSIONS)}")
    drift, anti = DRIFTS[f]
    diffusion = DIFFUSIONS[g](sigma)
    if noise is None:
        noise = power_covariance(modes, noise_decay)
    if u0 is None:
        u0 = default_initial_displacement(modes)
    if v0 is None:
        v0 = SpectralField.zeros(modes)
    return Problem(
        f=drift,
        Ftilde=anti,
        g=diffusion,
        delta0=delta0,
        u0=u0,
        v0=v0,
        noise=noise,
    )


# ---------------------------------------------------------------------------
# Array cores.  These take batches of coefficient arrays, shape (..., B, K),
# and broadcast over the leading axes.


def potential(coeffs, problem, ops):
    """F(u) = int Ftilde(u(x)) dx by trapezoid on the dealiased grid."""
    return ops.quad(problem.Ftilde(ops.nodal(coeffs)))


def radicand(F_vals, problem, ops):
    """F(u) + delta0 from the nodal values of Ftilde(u); aborts below RADICAND_FLOOR."""
    rad = ops.quad(F_vals) + problem.delta0
    if (rad < RADICAND_FLOOR).any():
        raise ModelViolationError(
            f"F(u) + delta0 fell below {RADICAND_FLOOR}: min {np.min(rad)}"
        )
    return rad


def sav_radicand(coeffs, problem, ops):
    """F(u) + delta0 of coefficient arrays (bench/microgrid.py seeds q with it)."""
    return radicand(problem.Ftilde(ops.nodal(coeffs)), problem, ops)


# drift_core and apply_g_core are the unfused step
# ingredients: the steppers compute them jointly (schemes._step_inputs), and
# schemes.substitution_residual recomputes them one by one as its oracle.
# bench/microgrid.py times drift_core on its own.


def drift_core(u_hat, problem, ops):
    """Normalized drift direction b = P_K f(u_hat)/s and s = sqrt(F(u_hat)+delta0)."""
    vals = ops.nodal(u_hat)
    s = np.sqrt(radicand(problem.Ftilde(vals), problem, ops))
    b = ops.project(problem.f(vals)) / s[..., None]
    return b, s


def apply_g_core(u, dw, problem, ops):
    """Project the nodal product g(u)*dW back to coefficient space."""
    return ops.project(problem.g(ops.nodal(u)) * ops.nodal(dw))
