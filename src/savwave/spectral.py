"""Sine-eigenbasis fields on (0,1) with homogeneous Dirichlet boundary.

Fields are stored as coefficient vectors in the orthonormal basis
e_k(x) = sqrt(2)*sin(k*pi*x), k = 1..K, in which the negative Laplacian is
diagonal with eigenvalues (k*pi)^2.  This module provides the eigenvalues,
the synthesis matrix onto uniform grids that `model.spectral_discretization`
wraps, the basis values at any points, and the per-mode propagator tables
of the linear wave system: the exact cosine/sine operator pair and its
Cayley (Crank-Nicolson) approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpectralField",
    "WaveGroupTable",
    "eigenvalues",
    "wave_group_table",
    "cayley_group_table",
    "spectral_group_table",
    "sine_values",
]


def eigenvalues(modes):
    """Array of the first `modes` Dirichlet eigenvalues."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    return (np.arange(1, modes + 1) * np.pi) ** 2


@dataclass(frozen=True)
class SpectralField:
    """Real coefficients of a field in the basis e_k(x) = sqrt(2)*sin(k*pi*x)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self):
        return self.coeffs.size

    @classmethod
    def zeros(cls, modes):
        return cls(np.zeros(modes))


# Round-off bound on cos^2 + sin^2 - 1 for both table builders, to first
# order in u = eps/2.  Rounding the two squares and their sum adds at most
# 2u.  Wave group: np.cos and np.sin of the computed angle are within 1 ulp
# (relative 2u each), so the defect is at most 2*2u + 2u = 3 eps.  Cayley:
# against the computed lam_term x, cos = (1 - x)/m carries 3u (difference,
# m, division) and sin = tau*sqrt(lam)/m carries 5u (sqrt, product, half of
# the 2u in x, m, division), so the defect is at most 2*5u + 2u = 6 eps.
_PYTH_BOUND = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class WaveGroupTable:
    """Per-mode values of a wave propagator over one step of size tau.

    cos/sin are cos(tau*sqrt(lam_k)) and sin(tau*sqrt(lam_k)), or their
    Cayley approximation; a1 is the nonnegative filter (1 - cos)/lam_k and
    a2 = sin/sqrt(lam_k).  Each array has shape (K,), or (S, 1, K) for a
    stack of S schemes that steps an (S, B, K) state (schemes.Integrator).
    Immutable after construction and safe to share across threads.
    """

    tau: float
    lam: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    sqrt_lam: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"step size must be >= 0, got {self.tau}")
        # cos^2 + sin^2 = 1 within _PYTH_BOUND, and a1 >= 0: both are
        # load-bearing for solvability of the eliminated step equations.
        pyth = self.cos**2 + self.sin**2 - 1.0
        if np.max(np.abs(pyth)) > _PYTH_BOUND:
            raise ValueError("cos/sin table violates the trigonometric identity")
        if np.any(self.a1 < 0.0):
            raise ValueError("a1 filter must be nonnegative")

    @property
    def modes(self):
        return self.lam.shape[-1]

    @cached_property
    def quarter_a1(self):
        """0.25 * a1, the rank-one coupling coefficient of the exponential step."""
        return 0.25 * self.a1

    @cached_property
    def neg_sqrt_lam_sin(self):
        """-sqrt(lam) * sin, the u-to-v entry of the wave group."""
        return -self.sqrt_lam * self.sin


def wave_group_table(lam, tau):
    """Build the propagator table for eigenvalue array `lam` and step `tau`."""
    lam = np.asarray(lam, dtype=np.float64)
    sqrt_lam = np.sqrt(lam)
    theta = tau * sqrt_lam
    cos = np.cos(theta)
    sin = np.sin(theta)
    inv_sqrt_lam = 1.0 / sqrt_lam
    a1 = (1.0 - cos) / lam
    a2 = inv_sqrt_lam * sin
    return WaveGroupTable(float(tau), lam, cos, sin, sqrt_lam, a1, a2)


def cayley_group_table(lam, tau):
    """Crank-Nicolson (Cayley) propagator table for eigenvalue array `lam` and step `tau`.

    With m = 1 + tau^2 lam/4: cos = (1 - tau^2 lam/4)/m, sin = tau sqrt(lam)/m,
    a1 = tau^2/(2m) and a2 = tau/m, the rational approximation of the wave
    group (Hochbruck & Ostermann, Acta Numerica 2010).  The exponential SAV
    step on this table is the midpoint scheme.
    """
    lam = np.asarray(lam, dtype=np.float64)
    sqrt_lam = np.sqrt(lam)
    lam_term = 0.25 * tau * tau * lam
    m = 1.0 + lam_term
    cos = (1.0 - lam_term) / m
    sin = tau * sqrt_lam / m
    a1 = 0.5 * tau * tau / m
    a2 = tau / m
    return WaveGroupTable(float(tau), lam, cos, sin, sqrt_lam, a1, a2)


def spectral_group_table(modes, tau):
    """Propagator table on the first `modes` Dirichlet sine eigenvalues.

    Equal to wave_group_table(eigenvalues(modes), tau); kept as the
    mode-count entry point that bench/microgrid.py and the tests call.
    """
    return wave_group_table(eigenvalues(modes), tau)


def sine_values(x, modes):
    """(len(x), modes) values e_k(x_i) = sqrt(2)*sin(k*pi*x_i), k = 1..modes, at the points x.

    Evaluated in place in one array, with the bits of that expression.
    """
    vals = np.outer(x, np.arange(1.0, modes + 1))
    vals *= np.pi
    np.sin(vals, out=vals)
    vals *= np.sqrt(2.0)
    return vals


def _synthesis_matrix(modes, grid_points):
    """(modes, grid_points+1) matrix sqrt(2)*sin(k*pi*j/M): synthesis onto x_j = j/M, transposed.

    Built in place in this C-ordered layout, with the bits of that
    expression.  Endpoint columns are exactly zero (Dirichlet), not floating
    sin(k*pi).
    """
    mat = np.multiply.outer(np.arange(1.0, modes + 1), np.arange(grid_points + 1.0))
    mat *= np.pi
    mat /= grid_points
    np.sin(mat, out=mat)
    mat *= np.sqrt(2.0)
    mat[:, [0, -1]] = 0.0
    return mat
