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
from typing import Callable

import numpy as np

from .noise import CovarianceSpec, power_covariance
from .spectral import SpectralField, _derivative_matrix, _synthesis_matrix, eigenvalues

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
    dsynth: np.ndarray
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

    def nodal(self, coeffs):
        return coeffs @ self.synth.T

    def nodal_deriv(self, coeffs):
        return coeffs @ self.dsynth.T

    def project(self, values):
        return values @ self.analysis.T

    def quad(self, values):
        # A row-wise reduction: a GEMV gives a row different round-off
        # depending on which rows share its array.
        return np.einsum("...m,m->...", values, self.weights)


def spectral_discretization(modes, grid_factor=2, grid_points=None):
    """Sine-basis discretization with a dealiased nodal grid (default M = 2K)."""
    m = grid_points if grid_points is not None else grid_factor * modes
    if m < modes + 1:
        raise ValueError(f"grid with {m} intervals cannot resolve {modes} modes")
    grid = uniform_grid(m)
    synth = np.array(_synthesis_matrix(modes, m))
    dsynth = np.array(_derivative_matrix(modes, m))
    analysis = (synth * grid.weights[:, None]).T
    return Discretization(eigenvalues(modes), grid, synth, analysis, dsynth)


def _zero(u):
    return np.zeros_like(u)


def _identity(u):
    return u


# Built-in drift pairs (f, Ftilde) with Ftilde' = f and Ftilde(0) = 0.
DRIFTS = {
    "zero": (_zero, _zero),
    "linear": (_identity, lambda u: 0.5 * u**2),
    "sine": (np.sin, lambda u: 1.0 - np.cos(u)),
    "cubic": (lambda u: u**3 + u, lambda u: 0.25 * u**4 + 0.5 * u**2),
}


def _of_u(fn):
    """Diffusion g(u, u_x) = fn(u) that records fn as `of_u` (see Problem.g_is_f)."""

    def g(u, ux):
        return fn(u)

    g.of_u = fn
    return g


# Built-in diffusions as maps of (u, u_x); only "constant" uses sigma.
DIFFUSIONS = {
    "zero": lambda sigma: _of_u(_zero),
    "constant": lambda sigma: (lambda u, ux: np.full_like(u, sigma)),
    "sine": lambda sigma: _of_u(np.sin),
    "linear": lambda sigma: _of_u(_identity),
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
    f_name: str = ""
    g_name: str = ""
    sigma: float = 1.0
    uses_gradient: bool = False

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")

    @property
    def g_is_f(self):
        """True when g(u, u_x) is f(u) pointwise, so one evaluation serves both."""
        return getattr(self.g, "of_u", None) is self.f


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
        f_name=f,
        g_name=g,
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# Array cores.  These accept coefficient arrays of shape (..., K) and
# broadcast over leading axes so that batches of realizations share one code
# path with single states.


def potential(coeffs, problem, ops):
    """F(u) = int Ftilde(u(x)) dx by trapezoid on the dealiased grid."""
    return ops.quad(problem.Ftilde(ops.nodal(coeffs)))


def nodal_radicand(vals, problem, ops):
    """F(u) + delta0 from the nodal values of u; aborts below RADICAND_FLOOR."""
    rad = ops.quad(problem.Ftilde(vals)) + problem.delta0
    if np.any(rad < RADICAND_FLOOR):
        raise ModelViolationError(
            f"F(u) + delta0 fell below {RADICAND_FLOOR}: min {np.min(rad)}"
        )
    return rad


def sav_radicand(coeffs, problem, ops):
    """F(u) + delta0 of coefficient arrays (bench/microgrid.py seeds q with it)."""
    return nodal_radicand(ops.nodal(coeffs), problem, ops)


# drift_core, diffusion_values and apply_g_core are the unfused step
# ingredients: the steppers compute them jointly (schemes._step_inputs), and
# schemes.substitution_residual recomputes them one by one as its oracle.
# bench/microgrid.py times drift_core on its own.


def drift_core(u_hat, problem, ops):
    """Normalized drift direction b = P_K f(u_hat)/s and s = sqrt(F(u_hat)+delta0)."""
    vals = ops.nodal(u_hat)
    s = np.sqrt(nodal_radicand(vals, problem, ops))
    b = ops.project(problem.f(vals)) / s[..., None]
    return b, s


def diffusion_values(u, problem, ops):
    """Nodal values of g(u, u_x); the gradient is synthesized only when used."""
    vals = ops.nodal(u)
    grad = ops.nodal_deriv(u) if problem.uses_gradient else None
    return problem.g(vals, grad)


def apply_g_core(u, dw, problem, ops):
    """Project the nodal product g(u, u_x)*dW back to coefficient space."""
    return ops.project(diffusion_values(u, problem, ops) * ops.nodal(dw))
