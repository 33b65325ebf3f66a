"""Linear finite elements on a uniform mesh of (0,1) with Dirichlet ends.

The generalized eigendecomposition of the stiffness/mass pair gives a
mass-orthonormal basis in which the discrete Laplacian is diagonal, so the
finite element space plugs into the same coefficient-space machinery as the
sine basis: trig-operator tables act mode by mode on the discrete
eigenvalues, and nonlinearities are evaluated at the mesh nodes.
`schemes.Integrator` steps on `FemSystem.discretization` with either
scheme's propagator table of `system.mu` (`schemes.SCHEMES`).

On a uniform mesh both matrices are tridiagonal Toeplitz, so the discrete
sine vectors sin(j*k*pi*h) diagonalize both (Strang & Fix, 1973): every
eigenpair is exact in closed form, with no eigensolver and no dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Discretization, uniform_grid
from .spectral import SpectralField

__all__ = [
    "FemSystem",
    "assemble",
    "eigenvalue_closed_form",
    "l2_project",
    "ritz_project",
    "initial_coefficients",
    "noise_projection_matrix",
    "linear_interp_matrix",
]

_GAUSS_T = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(frozen=True)
class FemSystem:
    """Assembled matrices and eigenpairs for one uniform mesh.

    mu/phi solve stiffness @ phi = mu * mass @ phi with phi mass-orthonormal
    columns; everything is immutable and shared read-only across threads.
    """

    elements: int
    h: float
    x: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray
    mu: np.ndarray
    phi: np.ndarray

    @property
    def dim(self):
        return self.elements - 1

    @cached_property
    def discretization(self):
        """Coefficient-space view: eigen-coefficients vs mesh nodal values."""
        d = self.dim
        n = self.elements + 1
        synth = np.zeros((n, d))
        synth[1:-1, :] = self.phi
        analysis = np.zeros((d, n))
        analysis[:, 1:-1] = self.phi.T @ self.mass
        gram = np.zeros((n, n))
        gram[1:-1, 1:-1] = self.mass
        return Discretization(self.mu, uniform_grid(self.elements), synth, analysis, gram)


def eigenvalue_closed_form(elements):
    """mu_k = (6/h^2)(1 - cos theta_k)/(2 + cos theta_k), theta_k = k*pi*h, in half-angle form."""
    h = 1.0 / elements
    theta = np.arange(1, elements) * np.pi * h
    return 12.0 * np.sin(0.5 * theta) ** 2 / (h**2 * (2.0 + np.cos(theta)))


def assemble(elements):
    """Mass/stiffness assembly plus the closed-form generalized eigenpairs.

    phi[j-1, k-1] = sqrt(6/(2 + cos theta_k)) sin(j*theta_k), mass-orthonormal with a positive
    first row; j*k is taken mod 2*elements so the sine's argument stays below 2*pi.
    """
    if elements < 2:
        raise ValueError(f"need at least 2 elements, got {elements}")
    d = elements - 1
    h = 1.0 / elements
    x = np.linspace(0.0, 1.0, elements + 1)
    mass = np.zeros((d, d))
    stiffness = np.zeros((d, d))
    idx = np.arange(d)
    mass[idx, idx] = 4.0 * h / 6.0
    stiffness[idx, idx] = 2.0 / h
    off = np.arange(d - 1)
    mass[off, off + 1] = mass[off + 1, off] = h / 6.0
    stiffness[off, off + 1] = stiffness[off + 1, off] = -1.0 / h
    k = np.arange(1, elements)
    norm = np.sqrt(6.0 / (2.0 + np.cos(k * np.pi * h)))
    phi = norm * np.sin(np.pi * (np.outer(k, k) % (2 * elements)) / elements)
    return FemSystem(elements, h, x, mass, stiffness, eigenvalue_closed_form(elements), phi)


def _gauss_points(system):
    starts = system.x[:-1]
    return (starts[:, None] + system.h * _GAUSS_T[None, :]).ravel()


def _evaluate(source, points):
    if isinstance(source, SpectralField):
        k = np.arange(1, source.modes + 1)
        return (np.sqrt(2.0) * np.sin(np.pi * np.outer(points, k))) @ source.coeffs
    return np.asarray(source(points), dtype=np.float64)


def l2_project(system, source):
    """L2 projection onto the element space: solve mass @ x = load.

    Loads are integrated by 3-point Gauss quadrature per element; an interior
    nodal vector is already in the space and is returned as-is.  The solve is
    phi @ (phi.T @ load), as phi.T @ mass @ phi = I.
    """
    if isinstance(source, np.ndarray):
        if source.shape != (system.dim,):
            raise ValueError(f"expected {system.dim} interior values")
        return source.copy()
    vals = _evaluate(source, _gauss_points(system)).reshape(system.elements, 3)
    scaled = vals * (system.h * _GAUSS_W)
    to_right = scaled @ _GAUSS_T
    to_left = scaled @ (1.0 - _GAUSS_T)
    load = to_right[:-1] + to_left[1:]
    return system.phi @ (system.phi.T @ load)


def ritz_project(system, source):
    """Energy projection: solve stiffness @ x = gradient load.

    The gradient load against a hat function telescopes to nodal values,
    (2u_i - u_{i-1} - u_{i+1})/h, so on a 1-d mesh the result coincides with
    nodal interpolation.  The solve is phi @ ((phi.T @ load) / mu).
    """
    if isinstance(source, np.ndarray):
        if source.shape != (system.dim,):
            raise ValueError(f"expected {system.dim} interior values")
        return source.copy()
    vals = _evaluate(source, system.x)
    load = (2.0 * vals[1:-1] - vals[:-2] - vals[2:]) / system.h
    return system.phi @ ((system.phi.T @ load) / system.mu)


def initial_coefficients(system, problem):
    """Eigen-coefficients (u0, v0) of the fully discrete initial state.

    u0 is the Ritz projection of the problem's initial displacement, v0 the
    L2 projection of its initial velocity.
    """
    to_coeffs = system.discretization.analysis[:, 1:-1]
    return (to_coeffs @ ritz_project(system, problem.u0),
            to_coeffs @ l2_project(system, problem.v0))


def noise_projection_matrix(system, noise_modes):
    """(dim, noise_modes) map from sine noise coefficients to eigen-coefficients.

    Realizes: evaluate the increment at the mesh nodes, read the resulting
    interior nodal vector as an element-space function, express it in the
    mass-orthonormal eigenbasis.
    """
    k = np.arange(1, noise_modes + 1)
    nodal = np.sqrt(2.0) * np.sin(np.pi * np.outer(system.x[1:-1], k))
    return (system.phi.T @ system.mass) @ nodal


def linear_interp_matrix(x_nodes, x_eval):
    """(len(x_eval), len(x_nodes)) piecewise-linear evaluation matrix."""
    x_nodes = np.asarray(x_nodes)
    x_eval = np.asarray(x_eval)
    idx = np.clip(np.searchsorted(x_nodes, x_eval, side="right") - 1, 0, x_nodes.size - 2)
    t = (x_eval - x_nodes[idx]) / (x_nodes[idx + 1] - x_nodes[idx])
    mat = np.zeros((x_eval.size, x_nodes.size))
    rows = np.arange(x_eval.size)
    mat[rows, idx] = 1.0 - t
    mat[rows, idx + 1] = t
    return mat
