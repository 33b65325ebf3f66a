"""Sampling of Q-Wiener increments in the shared sine basis.

The covariance is diagonal in the Dirichlet sine basis, so an increment over
a step tau is a vector of independent Gaussians with per-mode variance
q_k * tau.  Streams are keyed by (master seed, realization index) so that
Monte Carlo results never depend on scheduling.

Every trajectory draws through `increments`, which streams a batch of
paths window by window: a Monte Carlo chunk holds one window of
`_NORMALS_PER_DRAW` (1024) normals per path whatever its step count, and
row b of step n is the n-th K-draw of stream b scaled by sqrt(q * tau),
whatever the window.  Convergence studies draw through
`coupled_increments`, whose coarse increments are in-order sums of the
fine increments of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import sine_values

__all__ = [
    "CovarianceSpec",
    "RngStream",
    "power_covariance",
    "trace",
    "covariance_tail",
    "increments",
    "coupled_increments",
    "trace_operator",
]


@dataclass(frozen=True)
class CovarianceSpec:
    """Eigenvalues q_k > 0 of the noise covariance in the sine basis.

    `decay` records the exponent when q_k = k^(-decay); None for custom q.
    """

    q: np.ndarray
    decay: float | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("covariance weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(q)) or np.any(q <= 0):
            raise ValueError("covariance weights must be positive and finite")
        object.__setattr__(self, "q", q)

    @property
    def modes(self):
        return self.q.size


def power_covariance(modes, decay=2.0):
    """Covariance with q_k = k^(-decay) on the first `modes` sine modes."""
    k = np.arange(1, modes + 1, dtype=np.float64)
    return CovarianceSpec(k**-decay, decay=decay)


def trace(cov):
    """Truncated trace sum_k q_k over the retained modes."""
    return float(np.sum(cov.q))


def covariance_tail(cov):
    """Neglected tail sum_{k>K} q_k for a power-decay covariance, else None.

    Summed directly, not as zeta(s) - sum(q), which cancels: the 32 terms
    after K, then Euler-Maclaurin from N = K + 33, whose first dropped term
    is below 1e-17 of the tail for decays s in (1, 6].
    """
    s = cov.decay
    if s is None or s <= 1.0:
        return None
    n = cov.modes + 33.0
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n**-s
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600), 1):  # B_2j / (2j)!
        tail += b * rising * n ** (1.0 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return float(np.sum(np.arange(cov.modes + 1, n) ** -s) + tail)


class RngStream:
    """Counter-based Gaussian stream for one realization.

    Identical (seed, index) pairs replay identical sequences regardless of
    thread count or draw granularity: an (n, K) block equals n successive
    K-draws.  A single stream must not be shared between consumers.
    """

    def __init__(self, seed, index=0):
        self.seed = int(seed)
        self.index = int(index)
        self.counter = 0
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
        self._gen = np.random.Generator(np.random.Philox(key))

    def normals(self, shape):
        out = self._gen.standard_normal(shape)
        self.counter += out.size
        return out

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index}, counter={self.counter})"


# Normals per stream per window in `increments`: Philox `standard_normal`
# costs 17.3 ns per normal at 1024 normals per call, 17.0 at 2048 and 18.4 at
# 512 (best of 15 interleaved rounds, 2-core AVX-512 Xeon, numpy 2.4), and a
# window of the B = 125, K = 256 energy benchmark takes 1 MiB where 2048 took
# 2 MiB.
_NORMALS_PER_DRAW = 1024


def increments(cov, tau, n_steps, streams):
    """Yield each step's (batch, K) increments, row b drawn from streams[b].

    Row b of step n is the n-th K-draw of streams[b] times sqrt(q * tau),
    bit for bit: each stream is drawn ceil(_NORMALS_PER_DRAW / K) steps at a
    time into one reused (window, batch, K) buffer.  The yielded array is a
    view of that buffer and is overwritten by the next window, so callers
    must not keep it.  Streams advance a whole window ahead of the step
    being yielded.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    scale = np.sqrt(cov.q * tau)
    window = max(1, min(-(-_NORMALS_PER_DRAW // cov.modes), n_steps))
    buf = np.empty((window, len(streams), cov.modes))
    for w0 in range(0, n_steps, window):
        nw = min(window, n_steps - w0)
        for b, stream in enumerate(streams):
            np.multiply(stream.normals((nw, cov.modes)), scale, out=buf[:nw, b])
        yield from buf[:nw]


def coupled_increments(cov, tau, n_steps, streams, multiples):
    """Yield each fine step's `increments` with the coarse increments it completes.

    Yields (dw, done): dw is the fine (batch, K) increment and done lists
    (level, coarse) for each multiples[level] that divides the steps taken
    so far, coarse being the left-to-right sum from zero of that many fine
    increments.  Each coarse array is a per-level accumulator, zeroed when
    the generator resumes, so callers must not keep it (nor dw).
    """
    for m in multiples:
        if n_steps % m:
            raise ValueError(f"multiple {m} does not divide {n_steps} fine steps")
    accums = [np.zeros((len(streams), cov.modes)) for _ in multiples]
    for k, dw in enumerate(increments(cov, tau, n_steps, streams), 1):
        done = []
        for level, (acc, m) in enumerate(zip(accums, multiples)):
            acc += dw
            if k % m == 0:
                done.append((level, acc))
        yield dw, done
        for _, acc in done:
            acc[:] = 0.0


def trace_operator(cov, ops):
    """Callable mapping nodal g-values to the Hilbert-Schmidt trace term.

    For quadrature-diagonal spaces the trace is a weighted sum of g^2; for
    spaces with a nodal Gram matrix (finite elements) the full bilinear form
    with the noise correlation at the nodes is used.
    """
    basis = sine_values(ops.x, cov.modes)
    if ops.l2_gram is None:
        density = np.square(basis, out=basis) @ cov.q
        weights = ops.weights * density

        def apply(g_vals):
            return np.einsum("...m,m->...", g_vals**2, weights)

    else:
        corr = (basis * cov.q) @ basis.T
        form = ops.l2_gram * corr

        def apply(g_vals):
            return np.einsum("...i,ij,...j->...", g_vals, form, g_vals)

    return apply
