"""Linear finite elements on a uniform mesh of (0,1) with Dirichlet ends.

On a uniform mesh the P1 mass and stiffness matrices are tridiagonal
Toeplitz, so the discrete sine vectors diagonalize both (Strang & Fix,
1973): the mass-orthonormal eigenvectors are phi_jk = c_k sin(j*theta_k),
theta_k = k*pi*h, c_k = sqrt(6/(2 + cos theta_k)), with eigenvalues
`eigenvalue_closed_form`.  `assemble` writes the element space as a
`model.Discretization` in that basis directly: the sine basis on the mesh,
rescaled mode by mode, with no eigensolver and no linear solve.  The time
steppers then run on it exactly as on the sine spectral space.
`l2_project` and `ritz_project` keep the defining solves of a function
(a SpectralField or a callable of x) as oracles, and `linear_interp`
evaluates nodal values between the nodes.  Coefficient states are batches
(..., B, K) like on the spectral space.
"""

from __future__ import annotations

import numpy as np

from .model import Discretization, uniform_grid
from .spectral import SpectralField, _synthesis_matrix, sine_values

__all__ = [
    "assemble",
    "eigenvalue_closed_form",
    "l2_project",
    "ritz_project",
    "initial_coefficients",
    "noise_projection_matrix",
    "linear_interp",
]

_GAUSS_T = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


def eigenvalue_closed_form(elements):
    """mu_k = (6/h^2)(1 - cos theta_k)/(2 + cos theta_k), theta_k = k*pi*h, in half-angle form."""
    h = 1.0 / elements
    theta = np.arange(1, elements) * np.pi * h
    return 12.0 * np.sin(0.5 * theta) ** 2 / (h**2 * (2.0 + np.cos(theta)))


def assemble(elements):
    """The element space of a uniform mesh as a Discretization, in closed form.

    synth[j, k-1] = c_k sin(j*theta_k) with zero Dirichlet rows; the sines
    are read from one table of sin(pi*m/elements), m = j*k mod 2*elements.
    By discrete sine orthogonality phi.T @ mass = (2/(elements*c_k))
    sin(j*theta_k), which is `analysis`.  `l2_gram` is the nodal mass
    matrix, (4h/6, h/6) stencil.
    """
    if elements < 2:
        raise ValueError(f"need at least 2 elements, got {elements}")
    h = 1.0 / elements
    k = np.arange(1, elements)
    norm = np.sqrt(6.0 / (2.0 + np.cos(k * np.pi * h)))
    sines = np.sin(np.pi * np.arange(2 * elements) / elements)[
        np.outer(np.arange(elements + 1), k) % (2 * elements)]
    sines[[0, -1]] = 0.0
    gram = np.zeros((elements + 1, elements + 1))
    inner = np.arange(1, elements)
    gram[inner, inner] = 4.0 * h / 6.0
    gram[inner[:-1], inner[1:]] = gram[inner[1:], inner[:-1]] = h / 6.0
    return Discretization(eigenvalue_closed_form(elements), uniform_grid(elements),
                          norm * sines, (2.0 / (elements * norm))[:, None] * sines.T, gram)


def _evaluate(source, points):
    if isinstance(source, SpectralField):
        return sine_values(points, source.modes) @ source.coeffs
    return np.asarray(source(points), dtype=np.float64)


def _load(ops, source):
    """Loads of `source` against the interior hat functions, 3-point Gauss per element."""
    h = 1.0 / (ops.modes + 1)
    points = (ops.x[:-1, None] + h * _GAUSS_T[None, :]).ravel()
    scaled = _evaluate(source, points).reshape(-1, 3) * (h * _GAUSS_W)
    return (scaled @ _GAUSS_T)[:-1] + (scaled @ (1.0 - _GAUSS_T))[1:]


def l2_project(ops, source):
    """L2 projection onto the element space: solve mass @ x = load.

    `source` is a SpectralField or a callable of x, its loads integrated by
    3-point Gauss quadrature per element; the result is interior nodal values.
    The solve is phi @ (phi.T @ load), as phi.T @ mass @ phi = I.
    """
    phi = ops.synth[1:-1]
    return phi @ (phi.T @ _load(ops, source))


def ritz_project(ops, source):
    """Energy projection of `source` (as in l2_project): solve stiffness @ x = gradient load.

    The gradient load against a hat function telescopes to nodal values,
    (2u_i - u_{i-1} - u_{i+1})/h, so on a 1-d mesh the result coincides with
    nodal interpolation.  The solve is phi @ ((phi.T @ load) / mu).
    """
    h = 1.0 / (ops.modes + 1)
    vals = _evaluate(source, ops.x)
    load = (2.0 * vals[1:-1] - vals[:-2] - vals[2:]) / h
    phi = ops.synth[1:-1]
    return phi @ ((phi.T @ load) / ops.lam)


def initial_coefficients(ops, problem):
    """Eigen-coefficients (u0, v0) of the fully discrete initial state.

    u0 is the Ritz projection of the problem's initial displacement, which on
    this mesh is its nodal interpolant; v0 the L2 projection of its initial
    velocity, whose coefficients are phi.T @ load.
    """
    return ops.project(_evaluate(problem.u0, ops.x)), ops.synth[1:-1].T @ _load(ops, problem.v0)


def noise_projection_matrix(ops, noise_modes):
    """(dim, noise_modes) map from sine noise coefficients to eigen-coefficients.

    Realizes: evaluate the increment at the mesh nodes, read the resulting
    interior nodal vector as an element-space function, express it in the
    mass-orthonormal eigenbasis.
    """
    return ops.analysis @ _synthesis_matrix(noise_modes, ops.modes + 1)


def linear_interp(x_nodes, values, x_eval):
    """Piecewise-linear interpolant of nodal `values` (..., nodes) at `x_eval`: (..., points)."""
    x_nodes = np.asarray(x_nodes)
    x_eval = np.asarray(x_eval)
    idx = np.clip(np.searchsorted(x_nodes, x_eval, side="right") - 1, 0, x_nodes.size - 2)
    t = (x_eval - x_nodes[idx]) / (x_nodes[idx + 1] - x_nodes[idx])
    return values[..., idx] * (1.0 - t) + values[..., idx + 1] * t
