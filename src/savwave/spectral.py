"""Sine-eigenbasis fields on (0,1) with homogeneous Dirichlet boundary.

Fields are stored as coefficient vectors in the orthonormal basis
e_k(x) = sqrt(2)*sin(k*pi*x), k = 1..K, in which the negative Laplacian is
diagonal with eigenvalues (k*pi)^2.  This module provides Sobolev norms,
nodal transforms on uniform grids, and the exact propagator of the linear
wave system built from the cosine/sine operator pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralField",
    "PairState",
    "WaveGroupTable",
    "eigenvalue",
    "eigenvalues",
    "sobolev_norm_sq",
    "wave_group_table",
    "spectral_group_table",
    "group_step",
    "to_nodal",
    "to_spectral",
]


def eigenvalue(k):
    """Dirichlet eigenvalue (k*pi)^2 of -d2/dx2 on (0,1) for mode k >= 1."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    return (k * np.pi) ** 2


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

    @classmethod
    def basis(cls, k, modes):
        """The k-th basis element e_k as a field with `modes` coefficients."""
        c = np.zeros(modes)
        c[k - 1] = 1.0
        return cls(c)


def _check_same_modes(a, b):
    if a.modes != b.modes:
        raise ValueError(f"mode counts differ: {a.modes} vs {b.modes}")


@dataclass(frozen=True)
class PairState:
    """Displacement/velocity pair (u, v) sharing one truncation level.

    With group_step, an independent oracle of the linear propagator that the
    exponential stepper must reduce to when f = g = 0.
    """

    u: SpectralField
    v: SpectralField

    def __post_init__(self):
        _check_same_modes(self.u, self.v)

    @property
    def modes(self):
        return self.u.modes


@dataclass(frozen=True)
class WaveGroupTable:
    """Per-mode values of the wave propagator over one step of size tau.

    cos/sin hold cos(tau*sqrt(lam_k)) and sin(tau*sqrt(lam_k)); a1 is the
    nonnegative filter (1 - cos)/lam_k and a2 = sin/sqrt(lam_k).  Immutable
    after construction and safe to share across threads.
    """

    tau: float
    lam: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    sqrt_lam: np.ndarray
    inv_sqrt_lam: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        # cos^2 + sin^2 = 1 within 4 ulp, and a1 >= 0: both are load-bearing
        # for solvability of the eliminated step equations.
        pyth = self.cos**2 + self.sin**2 - 1.0
        if np.max(np.abs(pyth)) > 4 * np.finfo(float).eps:
            raise ValueError("cos/sin table violates the trigonometric identity")
        if np.any(self.a1 < 0.0):
            raise ValueError("a1 filter must be nonnegative")

    @property
    def modes(self):
        return self.lam.size


def wave_group_table(lam, tau):
    """Build the propagator table for eigenvalue array `lam` and step `tau`."""
    if tau < 0:
        raise ValueError(f"step size must be >= 0, got {tau}")
    lam = np.asarray(lam, dtype=np.float64)
    sqrt_lam = np.sqrt(lam)
    theta = tau * sqrt_lam
    cos = np.cos(theta)
    sin = np.sin(theta)
    inv_sqrt_lam = 1.0 / sqrt_lam
    a1 = (1.0 - cos) / lam
    a2 = inv_sqrt_lam * sin
    return WaveGroupTable(float(tau), lam, cos, sin, sqrt_lam, inv_sqrt_lam, a1, a2)


def spectral_group_table(modes, tau):
    """Propagator table on the first `modes` Dirichlet sine eigenvalues.

    Equal to wave_group_table(eigenvalues(modes), tau); kept as the
    mode-count entry point that the invariant checks and bench/microgrid.py
    call.
    """
    return wave_group_table(eigenvalues(modes), tau)


def group_step(x, table):
    """Advance a pair state by one application of the wave group (oracle, see PairState).

    Per mode: u' = cos*u + (sin/sqrt(lam))*v, v' = -sqrt(lam)*sin*u + cos*v;
    preserves the energy 1/2|u|_{H1}^2 + 1/2|v|_{L2}^2 exactly.
    """
    if x.modes != table.modes:
        raise ValueError(f"mode counts differ: state {x.modes} vs table {table.modes}")
    u = x.u.coeffs
    v = x.v.coeffs
    u_new = table.cos * u + table.a2 * v
    v_new = -table.sqrt_lam * table.sin * u + table.cos * v
    return PairState(SpectralField(u_new), SpectralField(v_new))


def sobolev_norm_sq(f, r=0.0):
    """Squared H^r norm, sum_k lam_k^r * coeff_k^2; r = 0 is Parseval."""
    if r == 0:
        return float(np.sum(f.coeffs**2))
    lam = eigenvalues(f.modes)
    return float(np.sum(lam**r * f.coeffs**2))


@lru_cache(maxsize=32)
def _synthesis_matrix(modes, grid_points):
    """(grid_points+1, modes) map from coefficients to nodal values on x_j = j/M.

    Endpoint rows are exactly zero (Dirichlet), not floating sin(k*pi).
    """
    j = np.arange(grid_points + 1)
    k = np.arange(1, modes + 1)
    mat = np.sqrt(2.0) * np.sin(np.pi * np.outer(j, k) / grid_points)
    mat[0, :] = 0.0
    mat[-1, :] = 0.0
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=32)
def _derivative_matrix(modes, grid_points):
    """(grid_points+1, modes) map from coefficients to nodal d/dx values."""
    j = np.arange(grid_points + 1)
    k = np.arange(1, modes + 1)
    mat = np.sqrt(2.0) * (k * np.pi) * np.cos(np.pi * np.outer(j, k) / grid_points)
    mat.setflags(write=False)
    return mat


def to_nodal(f, grid_points):
    """Evaluate a field at the uniform nodes x_j = j/M, j = 0..M.

    Warns if M < modes: the grid cannot separate all retained modes.
    """
    if grid_points < f.modes:
        warnings.warn(
            f"grid with {grid_points} intervals aliases a {f.modes}-mode field",
            stacklevel=2,
        )
    return _synthesis_matrix(f.modes, grid_points) @ f.coeffs


def to_spectral(values, modes=None):
    """Sine coefficients of uniform-grid nodal values by the transform quadrature.

    Exact for band-limited input with mode index <= M-1.  Endpoints must be
    zero within 1e-12: the basis cannot represent anything else.
    """
    values = np.asarray(values, dtype=np.float64)
    grid_points = values.size - 1
    if abs(values[0]) > 1e-12 or abs(values[-1]) > 1e-12:
        raise ValueError("nodal values must vanish at both endpoints")
    if modes is None:
        modes = grid_points - 1
    if modes > grid_points - 1:
        raise ValueError(f"cannot resolve {modes} modes on {grid_points} intervals")
    mat = _synthesis_matrix(modes, grid_points)
    return SpectralField((values @ mat) / grid_points)
