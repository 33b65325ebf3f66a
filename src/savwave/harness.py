"""Monte Carlo experiment drivers: convergence, energy growth, structure checks.

Realizations are the unit of parallelism.  Work is split into fixed-size
chunks of consecutive realization indices; each chunk's partial result is a
pure function of (study config, chunk index), and partial results are
combined in chunk order, so the output is bit-identical no matter how many
workers run the study.  A pool task steps a group of consecutive chunks as
one (rows, modes) array, as many as keep its nodal arrays within
`_GROUP_VALUES` values.  The groups depend on the study alone, never on the
worker count, and sums stay per chunk, so grouping changes no summation
order.  A study sends every group, of every scheme or step size it compares,
through one process pool.  Each task streams its noise through
`noise.increments`, so it holds O(rows * modes) memory whatever its step
count.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import fem as fem_mod
from .model import make_problem, spectral_discretization
from .noise import RngStream, increments, trace as cov_trace, trace_operator
from .schemes import (
    SCHEMES,
    BlowUpError,
    Integrator,
    SavState,
    initial_state,
    state_norm,
    substitution_residual,
)

__all__ = [
    "ConvergenceStudy",
    "EnergyStudy",
    "AuxGapStudy",
    "SpatialStudy",
    "WeakEnergyStudy",
    "CheckResult",
    "strong_convergence",
    "energy_evolution",
    "aux_gap_scaling",
    "spatial_refinement",
    "weak_energy_error",
    "invariant_suite",
    "fit_loglog",
]


def fit_loglog(x, y):
    """Least-squares slope and intercept of log2(y) against log2(x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log2(x), np.log2(y), 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Study configurations.  Plain data only: instances cross process boundaries.


@dataclass(frozen=True)
class ConvergenceStudy:
    """Temporal refinement against a small-step reference on coupled paths."""

    f: str = "linear"
    g: str = "sine"
    sigma: float = 1.0
    delta0: float = 1.0
    modes: int = 64
    noise_decay: float = 2.0
    T: float = 1.0
    tau_exps: tuple = (8, 9, 10, 11, 12)
    ref_exp: int = 13
    schemes: tuple = tuple(SCHEMES)
    predictor: str = "identity"
    reference_scheme: str | None = None
    norm: str = "l2"
    realizations: int = 200
    seed: int = 12345
    chunk: int = 25

    def __post_init__(self):
        if any(e > self.ref_exp for e in self.tau_exps):
            raise ValueError("reference step must divide every ladder step")
        if self.norm not in ("l2", "h"):
            raise ValueError(f"unknown error norm '{self.norm}'")


@dataclass(frozen=True)
class EnergyStudy:
    """Mean modified energy per step against the predicted evolution line."""

    f: str = "linear"
    g: str = "constant"
    sigma: float = 1.0
    delta0: float = 1.0
    modes: int = 64
    noise_decay: float = 2.0
    T: float = 1.0
    tau: float = 2.0**-7
    scheme: str = "exponential"
    predictor: str = "identity"
    realizations: int = 1000
    seed: int = 12345
    chunk: int = 250


@dataclass(frozen=True)
class AuxGapStudy:
    """Per-step-size mean of the worst auxiliary-variable gap along a path."""

    f: str = "sine"
    g: str = "sine"
    sigma: float = 1.0
    delta0: float = 1.0
    modes: int = 64
    noise_decay: float = 2.0
    T: float = 1.0
    tau_exps: tuple = (6, 7, 8, 9, 10)
    scheme: str = "exponential"
    predictor: str = "identity"
    realizations: int = 100
    seed: int = 12345
    chunk: int = 50


@dataclass(frozen=True)
class SpatialStudy:
    """Element-space refinement against a high-resolution sine reference."""

    f: str = "sine"
    g: str = "sine"
    sigma: float = 1.0
    delta0: float = 1.0
    ref_modes: int = 256
    noise_decay: float = 2.0
    h_exps: tuple = (3, 4, 5, 6)
    T: float = 1.0
    tau: float = 2.0**-9
    scheme: str = "exponential"
    realizations: int = 100
    seed: int = 12345
    chunk: int = 50
    fine_grid: int = 2048


@dataclass(frozen=True)
class WeakEnergyStudy:
    """Gap between the element-space modified energy and the reference energy."""

    f: str = "sine"
    g: str = "sine"
    sigma: float = 1.0
    delta0: float = 1.0
    elements: int = 16
    ref_modes: int = 128
    noise_decay: float = 2.0
    T: float = 0.5
    tau: float = 2.0**-7
    scheme: str = "exponential"
    realizations: int = 200
    seed: int = 12345
    chunk: int = 100


# ---------------------------------------------------------------------------
# Batched integration helpers.


def _problem(study, modes):
    return make_problem(
        f=study.f, g=study.g, sigma=study.sigma, delta0=study.delta0,
        modes=modes, noise_decay=study.noise_decay,
    )


def _batched_initial(problem, ops, batch, initial=None):
    """`batch` copies of the initial state: (u0, v0) coefficients, default the problem's."""
    u0, v0 = (problem.u0.coeffs, problem.v0.coeffs) if initial is None else initial
    return initial_state(np.tile(u0, (batch, 1)), np.tile(v0, (batch, 1)), problem, ops)


# Values in one (rows, nodes) nodal array of a pool task: consecutive chunks
# are stepped as one array while rows x nodes stays within 2^15 float64
# values (256 KiB).  Small batches cost mostly per-call overhead (at K = 64 a
# path-step took 11.9 us at 25 rows and 7.5 us at 200, one BLAS thread);
# at K = 256 the cost was flat from 25 rows on.
_GROUP_VALUES = 2**15


def _group(study, first, stop=None):
    """Streams of chunks first..stop-1 (default: chunk `first` alone) and each chunk's rows."""
    stop = first + 1 if stop is None else stop
    lo = first * study.chunk
    hi = min(study.realizations, stop * study.chunk)
    streams = [RngStream(study.seed, i) for i in range(lo, hi)]
    spans = [slice(a, min(a + study.chunk, hi - lo)) for a in range(0, hi - lo, study.chunk)]
    return streams, spans


def _chunk_sums(values, spans):
    return [np.sum(values[s]) for s in spans]


def _one_blas_thread():
    """Pool-worker initializer: one BLAS thread per worker.

    A group's transforms are big enough for OpenBLAS to thread them, and
    workers that each do so outnumber the cores and spin.  Acts on every
    OpenBLAS the process has loaded at pool start; other BLAS builds keep
    their setting.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _map_chunks(fn, study, modes, workers, keys=(None,)):
    """Every chunk of `study`, per key, as one list of chunk results in chunk order.

    Each task calls fn(first, stop) or fn(key, first, stop) on a group of
    consecutive chunks, which it steps as one array on the dealiased grid of
    `modes` sine modes, and returns one result per chunk.  A group holds as
    many chunks as keep rows x (2 * modes + 1) within `_GROUP_VALUES`, at
    least one; the worker count plays no part.  All tasks share one pool,
    whose workers run one BLAS thread each.
    """
    n_chunks = (study.realizations + study.chunk - 1) // study.chunk
    per_task = max(1, _GROUP_VALUES // (study.chunk * (2 * modes + 1)))
    groups = [(c, min(c + per_task, n_chunks)) for c in range(0, n_chunks, per_task)]
    tasks = [g if key is None else (key, *g) for key in keys for g in groups]
    if workers <= 1 or len(tasks) <= 1:
        parts = [fn(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=_one_blas_thread) as pool:
            parts = list(pool.map(fn, *zip(*tasks)))
    flat = [chunk for part in parts for chunk in part]
    return [flat[j:j + n_chunks] for j in range(0, len(flat), n_chunks)]


# ---------------------------------------------------------------------------
# Strong temporal convergence.


def _convergence_chunk(study, scheme, first, stop=None):
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    tau_ref = 2.0**-study.ref_exp
    n_fine = round(study.T / tau_ref)
    multiples = [2 ** (study.ref_exp - e) for e in study.tau_exps]

    ref = Integrator(
        study.reference_scheme or scheme, tau_ref, problem, ops,
        _batched_initial(problem, ops, batch), study.predictor,
    )
    levels = [
        Integrator(scheme, 2.0**-e, problem, ops,
                   _batched_initial(problem, ops, batch), study.predictor)
        for e in study.tau_exps
    ]
    accums = [np.zeros((batch, study.modes)) for _ in levels]
    excluded = np.zeros(batch, dtype=bool)

    for k, dw in enumerate(increments(problem.noise, tau_ref, n_fine, streams)):
        ref.step(dw)
        excluded = ref.sanitize(excluded)
        for lvl, acc, m in zip(levels, accums, multiples):
            acc += dw
            if (k + 1) % m == 0:
                lvl.step(acc)
                excluded = lvl.sanitize(excluded)
                acc[:] = 0.0

    sq_errors = np.empty((len(levels), batch))
    for i, lvl in enumerate(levels):
        du = ref.state.u - lvl.state.u
        if study.norm == "h":
            dv = ref.state.v - lvl.state.v
            err2 = np.einsum("bk,bk->b", ops.lam * du, du) + np.einsum("bk,bk->b", dv, dv)
        else:
            err2 = np.einsum("bk,bk->b", du, du)
        sq_errors[i] = err2
    return [(sq_errors[:, s], excluded[s]) for s in spans]


@dataclass(frozen=True)
class SchemeErrors:
    scheme: str
    taus: np.ndarray
    rms_error: np.ndarray
    stderr: np.ndarray
    excluded: int
    slope: float
    intercept: float


@dataclass(frozen=True)
class ConvergenceResult:
    study: ConvergenceStudy
    per_scheme: tuple


def strong_convergence(study, workers=1):
    """RMS terminal error per ladder step size, per scheme, on coupled paths."""
    results = []
    taus = np.array([2.0**-e for e in study.tau_exps])
    per_scheme = _map_chunks(partial(_convergence_chunk, study), study, study.modes, workers,
                             study.schemes)
    for scheme, parts in zip(study.schemes, per_scheme):
        sq = np.concatenate([p[0] for p in parts], axis=1)
        excluded = np.concatenate([p[1] for p in parts])
        keep = ~excluded
        kept = sq[:, keep]
        n = kept.shape[1]
        mean_sq = kept.mean(axis=1)
        rms = np.sqrt(mean_sq)
        se_sq = kept.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean_sq)
        stderr = np.where(rms > 0, se_sq / np.maximum(2 * rms, 1e-300), 0.0)
        slope, intercept = fit_loglog(taus, rms)
        results.append(
            SchemeErrors(scheme, taus, rms, stderr, int(np.sum(excluded)), slope, intercept)
        )
    return ConvergenceResult(study, tuple(results))


# ---------------------------------------------------------------------------
# Energy evolution.


def _energy_chunk(study, first, stop=None):
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    n_steps = round(study.T / study.tau)
    trace_fn = trace_operator(problem.noise, ops)
    integ = Integrator(
        study.scheme, study.tau, problem, ops,
        _batched_initial(problem, ops, batch), study.predictor, trace_fn=trace_fn,
    )
    sum_v = np.zeros((len(spans), n_steps + 1))
    sum_v2 = np.zeros((len(spans), n_steps + 1))
    sum_trace = np.zeros((len(spans), n_steps))
    v = integ.energy()
    sum_v[:, 0] = _chunk_sums(v, spans)
    sum_v2[:, 0] = _chunk_sums(v**2, spans)
    for n, dw in enumerate(increments(problem.noise, study.tau, n_steps, streams)):
        diag = integ.step(dw, diagnostics=True)
        sum_v[:, n + 1] = _chunk_sums(diag.V, spans)
        sum_v2[:, n + 1] = _chunk_sums(diag.V**2, spans)
        sum_trace[:, n] = _chunk_sums(diag.trace_term, spans)
    return list(zip(sum_v, sum_v2, sum_trace))


@dataclass(frozen=True)
class EnergyResult:
    study: EnergyStudy
    times: np.ndarray
    mean_V: np.ndarray
    stderr_V: np.ndarray
    predicted_V: np.ndarray


def energy_evolution(study, workers=1):
    """Mean modified energy per step with its predicted evolution line.

    For constant (or zero) diffusion the prediction is exact with no
    sampling: V_0 + n*(tau/2)*sigma^2*trace(Q).  Otherwise the per-step trace
    term is averaged over the same realizations.
    """
    n_steps = round(study.T / study.tau)
    parts, = _map_chunks(partial(_energy_chunk, study), study, study.modes, workers)
    sum_v = np.zeros(n_steps + 1)
    sum_v2 = np.zeros(n_steps + 1)
    sum_trace = np.zeros(n_steps)
    for pv, pv2, ptr in parts:
        sum_v += pv
        sum_v2 += pv2
        sum_trace += ptr
    r = study.realizations
    mean_v = sum_v / r
    var = np.maximum(sum_v2 / r - mean_v**2, 0.0) * (r / max(r - 1, 1))
    stderr = np.sqrt(var / r)
    problem = _problem(study, study.modes)
    v0 = mean_v[0]
    steps = np.arange(n_steps + 1)
    if study.g == "zero":
        predicted = np.full(n_steps + 1, v0)
    elif study.g == "constant":
        rate = 0.5 * study.tau * study.sigma**2 * cov_trace(problem.noise)
        predicted = v0 + steps * rate
    else:
        mean_trace = sum_trace / r
        predicted = v0 + 0.5 * study.tau * np.concatenate([[0.0], np.cumsum(mean_trace)])
    return EnergyResult(study, steps * study.tau, mean_v, stderr, predicted)


# ---------------------------------------------------------------------------
# Auxiliary-variable gap scaling.


def _aux_gap_chunk(study, tau_exp, first, stop=None):
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    tau = 2.0**-tau_exp
    n_steps = round(study.T / tau)
    integ = Integrator(
        study.scheme, tau, problem, ops,
        _batched_initial(problem, ops, batch), study.predictor,
    )
    max_gap = np.zeros(batch)
    for dw in increments(problem.noise, tau, n_steps, streams):
        diag = integ.step(dw, diagnostics=True)
        max_gap = np.maximum(max_gap, diag.aux_gap)
    return _chunk_sums(max_gap, spans)


@dataclass(frozen=True)
class AuxGapResult:
    study: AuxGapStudy
    taus: np.ndarray
    mean_max_gap: np.ndarray
    ratios: np.ndarray


def aux_gap_scaling(study, workers=1):
    """Mean over paths of the worst |sqrt(F(u)+delta0) - q| per step size.

    q_0 starts with zero gap, so the reported gap is pure scheme drift; the
    halving ratio between consecutive dyadic step sizes measures its order.
    """
    per_tau = _map_chunks(partial(_aux_gap_chunk, study), study, study.modes, workers,
                          study.tau_exps)
    means = np.array([sum(parts) / study.realizations for parts in per_tau])
    if means.size > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = means[:-1] / means[1:]
    else:
        ratios = np.array([])
    taus = np.array([2.0**-e for e in study.tau_exps])
    return AuxGapResult(study, taus, means, ratios)


# ---------------------------------------------------------------------------
# Element-space refinement against the sine reference.


def _spatial_chunk(study, first, stop=None):
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    kref = study.ref_modes
    problem = _problem(study, kref)
    ops_ref = spectral_discretization(kref)
    ref = Integrator(
        study.scheme, study.tau, problem, ops_ref,
        _batched_initial(problem, ops_ref, batch),
    )

    systems = [fem_mod.assemble(2**e) for e in study.h_exps]
    fem_runs = [
        Integrator(study.scheme, study.tau, problem, system.discretization,
                   _batched_initial(problem, system.discretization, batch,
                                    fem_mod.initial_coefficients(system, problem)))
        for system in systems
    ]
    noise_maps = [fem_mod.noise_projection_matrix(system, kref) for system in systems]

    n_steps = round(study.T / study.tau)
    for dw in increments(problem.noise, study.tau, n_steps, streams):
        ref.step(dw)
        for run, cmap in zip(fem_runs, noise_maps):
            run.step(dw @ cmap.T)

    xf = np.linspace(0.0, 1.0, study.fine_grid + 1)
    wf = np.full(xf.size, 1.0 / study.fine_grid)
    wf[0] *= 0.5
    wf[-1] *= 0.5
    k = np.arange(1, kref + 1)
    synth_fine = np.sqrt(2.0) * np.sin(np.pi * np.outer(xf, k))
    ref_vals = ref.state.u @ synth_fine.T
    sq_errors = np.empty((len(systems), batch))
    for i, (system, run) in enumerate(zip(systems, fem_runs)):
        interp = fem_mod.linear_interp_matrix(system.x, xf)
        vals = run.state.u @ system.discretization.synth.T @ interp.T
        sq_errors[i] = np.einsum("bm,m->b", (ref_vals - vals) ** 2, wf)
    return [sq_errors[:, s] for s in spans]


@dataclass(frozen=True)
class SpatialResult:
    study: SpatialStudy
    widths: np.ndarray
    rms_error: np.ndarray
    slope: float


def spatial_refinement(study, workers=1):
    """Terminal L2 error of element solutions against the sine reference.

    All spatial resolutions consume the same noise realizations (the sine
    increments evaluated on each mesh), so the refinement trend is not
    clouded by independent sampling noise.
    """
    parts, = _map_chunks(partial(_spatial_chunk, study), study, study.ref_modes, workers)
    sq = np.concatenate(parts, axis=1)
    rms = np.sqrt(sq.mean(axis=1))
    widths = np.array([2.0**-e for e in study.h_exps])
    slope, _ = fit_loglog(widths, rms)
    return SpatialResult(study, widths, rms, slope)


# ---------------------------------------------------------------------------
# Weak energy gap between the element space and the sine reference.


def _weak_energy_chunk(study, first, stop=None):
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    kref = study.ref_modes
    problem = _problem(study, kref)
    ops_ref = spectral_discretization(kref)
    ref = Integrator(study.scheme, study.tau, problem, ops_ref,
                     _batched_initial(problem, ops_ref, batch))

    system = fem_mod.assemble(study.elements)
    femi = Integrator(study.scheme, study.tau, problem, system.discretization,
                      _batched_initial(problem, system.discretization, batch,
                                       fem_mod.initial_coefficients(system, problem)))
    cmap = fem_mod.noise_projection_matrix(system, kref)

    n_steps = round(study.T / study.tau)
    sum_h = np.zeros((len(spans), n_steps + 1))
    sum_v1 = np.zeros((len(spans), n_steps + 1))
    sum_h[:, 0] = _chunk_sums(femi.energy(), spans)
    v1_0 = (0.5 * np.einsum("bk,bk->b", ops_ref.lam * ref.state.u, ref.state.u)
            + 0.5 * np.einsum("bk,bk->b", ref.state.v, ref.state.v)
            + ref.state.rad - problem.delta0)
    sum_v1[:, 0] = _chunk_sums(v1_0, spans)
    for n, dw in enumerate(increments(problem.noise, study.tau, n_steps, streams)):
        diag_ref = ref.step(dw, diagnostics=True)
        femi.step(dw @ cmap.T)
        sum_h[:, n + 1] = _chunk_sums(femi.energy(), spans)
        sum_v1[:, n + 1] = _chunk_sums(diag_ref.V1, spans)
    return list(zip(sum_h, sum_v1))


@dataclass(frozen=True)
class WeakEnergyResult:
    study: WeakEnergyStudy
    times: np.ndarray
    gap: np.ndarray
    err0: float

    @property
    def drift(self):
        """Accumulated deviation of the gap from the initialization defect.

        The raw gap tends upward to the constant delta0 carried by q^2, so
        refinement shows up in this drift, not in the gap itself.
        """
        return np.abs(self.gap - self.err0)


def weak_energy_error(study, workers=1):
    """|E[modified element energy] - E[reference energy]| per step.

    Shared noise keeps the two expectations strongly correlated, so the gap
    isolates the discretization bias; gap[0] is the initialization defect
    err0 (it contains the constant delta0 carried by q^2).
    """
    n_steps = round(study.T / study.tau)
    parts, = _map_chunks(partial(_weak_energy_chunk, study), study, study.ref_modes, workers)
    sum_h = np.zeros(n_steps + 1)
    sum_v1 = np.zeros(n_steps + 1)
    for ph, pv in parts:
        sum_h += ph
        sum_v1 += pv
    gap = np.abs(sum_h - sum_v1) / study.realizations
    times = np.arange(n_steps + 1) * study.tau
    return WeakEnergyResult(study, times, gap, float(gap[0]))


# ---------------------------------------------------------------------------
# Invariant suite: every module's structural properties as named checks.


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: str
    passed: bool
    detail: str = ""


def _result(name, value, limit, detail=""):
    return CheckResult(name, float(value), f"<= {limit:g}", bool(value <= limit), detail)


def _result_range(name, value, lo, hi, detail=""):
    ok = bool(lo <= value <= hi) and np.isfinite(value)
    return CheckResult(name, float(value), f"in [{lo:g}, {hi:g}]", ok, detail)


def _smooth_field(rng, modes, decay=2.0):
    k = np.arange(1, modes + 1, dtype=np.float64)
    return rng.standard_normal(modes) / k**decay


def _check_spectral_trig(rng, _):
    from .spectral import spectral_group_table

    worst = 0.0
    for tau in (0.05, 0.3, 1.7):
        table = spectral_group_table(48, tau)
        for _ in range(4):
            x = rng.standard_normal(48)
            lhs = np.sum((table.sin * x) ** 2) + np.sum((table.cos * x) ** 2)
            worst = max(worst, abs(lhs - np.sum(x**2)) / np.sum(x**2))
    return _result("spectral.trig_identity", worst, 1e-12)


def _free_wave(tau, ops, u, v):
    """Integrator of the exponential scheme with f = g = 0: the bare wave group."""
    problem = make_problem(f="zero", g="zero", modes=ops.modes)
    return Integrator("exponential", tau, problem, ops, initial_state(u, v, problem, ops))


def _wave_energy_drift(tau, ops, u, v, lam):
    """Relative change of 1/2|u|_H1^2 + 1/2|v|^2 over 10^4 steps of the free wave."""
    integ = _free_wave(tau, ops, u, v)
    e0 = 0.5 * np.sum(lam * u**2) + 0.5 * np.sum(v**2)
    try:
        for _ in range(10_000):
            integ.step(np.zeros_like(u))
    except BlowUpError:
        return np.inf
    u, v = integ.state.u, integ.state.v
    return abs(0.5 * np.sum(lam * u**2) + 0.5 * np.sum(v**2) - e0) / e0


def _check_spectral_unitarity(rng, _):
    modes = 64
    lam = np.pi**2 * np.arange(1, modes + 1) ** 2
    u = _smooth_field(rng, modes, 1.0)
    v = rng.standard_normal(modes)
    drift = _wave_energy_drift(2.0**-6, spectral_discretization(modes), u, v, lam)
    return _result("spectral.unitarity_drift", drift, 1e-12, "10^4 composed steps")


def _check_spectral_composition(rng, _):
    tau = 0.137
    ops = spectral_discretization(32)
    u = rng.standard_normal(32)
    v = rng.standard_normal(32)
    one = _free_wave(tau, ops, u, v)
    two = _free_wave(2 * tau, ops, u, v)
    zero = np.zeros(32)
    one.step(zero)
    one.step(zero)
    two.step(zero)
    scale = np.sqrt(np.sum(u**2) + np.sum(v**2))
    worst = max(np.max(np.abs(one.state.u - two.state.u)),
                np.max(np.abs(one.state.v - two.state.v))) / scale
    return _result("spectral.group_composition", worst, 1e-12)


def _check_spectral_hoelder(rng, _):
    modes = 64
    lam = np.pi**2 * np.arange(1, modes + 1) ** 2
    x = rng.standard_normal(modes)
    x /= np.sqrt(np.sum(x**2))
    worst = 0.0
    times = np.linspace(0.0, 2.0, 9)
    for i, t in enumerate(times):
        for s in times[: i + 1]:
            diff = (np.cos(t * np.sqrt(lam)) - np.cos(s * np.sqrt(lam))) / np.sqrt(lam)
            norm = np.sqrt(np.sum((diff * x) ** 2))
            if t > s:
                worst = max(worst, norm / (t - s))
    return _result("spectral.hoelder_cosine", worst, 1.01, "gamma = 1 bound")


def _check_spectral_roundtrip(rng, _):
    from .spectral import SpectralField, to_nodal, to_spectral

    modes = 48
    f = SpectralField(rng.standard_normal(modes))
    back = to_spectral(to_nodal(f, 2 * modes), modes=modes)
    worst = np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    return _result("spectral.transform_roundtrip", worst, 1e-12)


def _check_spectral_parseval(rng, _):
    from .model import uniform_grid
    from .spectral import SpectralField, sobolev_norm_sq, to_nodal

    modes = 8
    m = 256
    f = SpectralField(_smooth_field(rng, modes, 2.0))
    grid = uniform_grid(m)
    quad = float(np.sum(grid.weights * to_nodal(f, m) ** 2))
    err = abs(quad - sobolev_norm_sq(f, 0.0))
    return _result("spectral.parseval_quadrature", err, 5.0 / m**2)


def _check_noise_variance(_, seed):
    from .noise import CovarianceSpec, sample_block

    cov = CovarianceSpec(np.array([1.0, 0.5]))
    n = 100_000
    tau = 0.01
    block = sample_block(cov, tau, n, RngStream(seed, 77))
    var = np.var(block[:, 0], ddof=1)
    se = tau * np.sqrt(2.0 / (n - 1))
    return _result("noise.increment_variance", abs(var - tau), 5 * se, f"n = {n}")


def _check_noise_coupling(_, seed):
    from .noise import coupled_path, power_covariance

    cov = power_covariance(8)
    paths = coupled_path(cov, 2.0**-8, 64, [1, 2, 8], RngStream(seed, 3))
    worst = 0.0
    fine = paths[1]
    for m in (2, 8):
        manual = np.zeros_like(paths[m])
        for i in range(m):
            manual += fine[i::m]
        worst = max(worst, float(np.max(np.abs(manual - paths[m]))))
    return _result("noise.coupling_exact", worst, 0.0, "bitwise aggregation")


def _check_noise_replay(_, seed):
    from .noise import power_covariance, sample_block

    cov = power_covariance(16)
    a = sample_block(cov, 0.1, 100, RngStream(seed, 5))
    b = sample_block(cov, 0.1, 100, RngStream(seed, 5))
    return _result("noise.replay_determinism", float(np.max(np.abs(a - b))), 0.0)


def _check_noise_autocorr(_, seed):
    from .noise import CovarianceSpec, sample_block

    cov = CovarianceSpec(np.array([1.0]))
    n = 100_000
    draws = sample_block(cov, 1.0, n, RngStream(seed, 11))[:, 0]
    x = draws - np.mean(draws)
    r = float(np.sum(x[1:] * x[:-1]) / np.sum(x**2))
    return _result("noise.lag1_autocorrelation", abs(r), 5.0 / np.sqrt(n))


def _check_model_gradient(rng, _):
    from .model import make_problem, potential, spectral_discretization

    modes = 32
    ops = spectral_discretization(modes)
    worst = 0.0
    eps = 1e-5
    for name in ("linear", "sine", "cubic"):
        problem = make_problem(f=name, g="zero", modes=modes)
        u = _smooth_field(rng, modes, 2.0)
        phi = _smooth_field(rng, modes, 2.0)
        plus = potential(u + eps * phi, problem, ops)
        minus = potential(u - eps * phi, problem, ops)
        fd = (plus - minus) / (2 * eps)
        inner = float(np.dot(ops.project(problem.f(ops.nodal(u))), phi))
        worst = max(worst, abs(fd - inner) / max(abs(inner), 1e-12))
    return _result("model.gradient_consistency", worst, 1e-6, "eps = 1e-5")


def _check_model_dealiasing(rng, _):
    from .model import drift_core, make_problem, spectral_discretization

    modes = 32
    coarse = spectral_discretization(modes)
    fine = spectral_discretization(modes, grid_factor=4)
    u = np.zeros(modes)
    u[: modes // 4] = _smooth_field(rng, modes // 4, 2.0)
    worst = 0.0
    for name in ("sine", "cubic"):
        problem = make_problem(f=name, g="sine", modes=modes)
        b1, _ = drift_core(u, problem, coarse)
        b2, _ = drift_core(u, problem, fine)
        worst = max(worst, float(np.max(np.abs(b1 - b2))))
    return _result("model.dealiasing", worst, 1e-10, "M = 2K vs 4K")


def _check_model_floor(_, seed):
    from .model import RADICAND_FLOOR, make_problem, sav_radicand, spectral_discretization

    problem = make_problem(f="sine", g="sine", modes=32)
    ops = spectral_discretization(32)
    integ = Integrator("exponential", 2.0**-6, problem, ops,
                       _batched_initial(problem, ops, 4))
    stream = RngStream(seed, 21)
    scale = np.sqrt(problem.noise.q * 2.0**-6)
    lowest = np.inf
    for _ in range(64):
        integ.step(stream.normals((4, 32)) * scale)
        rad = sav_radicand(integ.state.u, problem, ops)
        lowest = min(lowest, float(np.min(rad)))
    value = RADICAND_FLOOR / lowest  # passes iff lowest >= floor
    return _result("model.radicand_floor", value, 1.0, f"min radicand {lowest:.3e}")


def _pathwise_energy_worst(mutations, seed, fem=False):
    worst = 0.0
    batch = 4
    steps = 60
    tau = 2.0**-7
    if fem:
        system = fem_mod.assemble(32)
        ops = system.discretization
    else:
        ops = spectral_discretization(32)
    configs = [(s, p, f, g)
               for s in SCHEMES
               for p in ("identity", "extrapolation")
               for f in ("linear", "sine", "cubic")
               for g in ("constant", "sine")]
    for i, (scheme, predictor, fname, gname) in enumerate(configs):
        problem = make_problem(f=fname, g=gname, modes=32 if not fem else 31)
        initial, cmap = None, None
        if fem:
            initial = fem_mod.initial_coefficients(system, problem)
            cmap = fem_mod.noise_projection_matrix(system, problem.noise.modes)
        integ = Integrator(scheme, tau, problem, ops,
                           _batched_initial(problem, ops, batch, initial), predictor)
        if "unbalanced_table" in mutations:
            # a2 = tau in place of sin/sqrt(lam): the energy law needs a2 = sin/sqrt(lam)
            integ.table = replace(integ.table, a2=np.full_like(integ.table.a2, tau))
        stream = RngStream(seed, 100 + i)
        scale = np.sqrt(problem.noise.q * tau)
        for _ in range(steps):
            dw = stream.normals((batch, problem.noise.modes)) * scale
            if cmap is not None:
                dw = dw @ cmap.T
            diag = integ.step(dw, diagnostics=True)
            g_inc_res = np.max(np.abs(diag.energy_residual) / (1.0 + diag.V))
            worst = max(worst, float(g_inc_res))
    return worst


def _check_schemes_pathwise(_, seed, mutations=frozenset()):
    worst = _pathwise_energy_worst(mutations, seed, fem=False)
    return _result("schemes.pathwise_energy", worst, 1e-9,
                   "all schemes/predictors/nonlinearities")


def _check_schemes_conservation(_, seed):
    worst = 0.0
    problem = make_problem(f="sine", g="zero", modes=64)
    ops = spectral_discretization(64)
    for scheme in SCHEMES:
        integ = Integrator(scheme, 2.0**-8, problem, ops, _batched_initial(problem, ops, 1))
        v0 = float(integ.energy()[0])
        dw = np.zeros((1, 64))
        for _ in range(10_000):
            integ.step(dw)
        worst = max(worst, abs(float(integ.energy()[0]) - v0) / v0)
    return _result("schemes.deterministic_conservation", worst, 1e-10, "10^4 steps, g = 0")


def _random_states(rng, modes, batch):
    k = np.arange(1, modes + 1, dtype=np.float64)
    u = rng.standard_normal((batch, modes)) / k
    v = rng.standard_normal((batch, modes))
    q = 0.5 + rng.random(batch) * 1.5
    return SavState(u, v, q)


def _substitution_worst(seed, fem=False):
    rng = np.random.default_rng(seed)
    tau = 2.0**-6
    worst = 0.0
    if fem:
        system = fem_mod.assemble(24)
        ops = system.discretization
        modes = system.dim
    else:
        modes = 48
        ops = spectral_discretization(modes)
    problem = make_problem(f="cubic", g="sine", modes=modes)
    state = _random_states(rng, modes, 1000)
    dw = rng.standard_normal((1000, modes)) * np.sqrt(tau)
    scale = 1.0 + state_norm(state, ops.lam)
    for scheme in SCHEMES:
        integ = Integrator(scheme, tau, problem, ops, state)
        integ.step(dw)
        res = substitution_residual(scheme, state, integ.state, dw, problem, ops,
                                    table=integ.table, tau=tau)
        worst = max(worst, float(np.max(res / scale)))
    return worst


def _check_schemes_substitution(_, seed):
    return _result("schemes.substitution_residual", _substitution_worst(seed), 1e-10,
                   "10^3 random states per scheme")


def _check_schemes_solvability(_, seed):
    problem = make_problem(f="cubic", g="sine", modes=32)
    ops = spectral_discretization(32)
    smallest = np.inf
    for scheme in SCHEMES:
        integ = Integrator(scheme, 2.0**-6, problem, ops, _batched_initial(problem, ops, 8))
        stream = RngStream(seed, 31)
        scale = np.sqrt(problem.noise.q * 2.0**-6)
        for _ in range(64):
            diag = integ.step(stream.normals((8, 32)) * scale, diagnostics=True)
            smallest = min(smallest, float(np.min(diag.denominator)))
    # passes iff the smallest denominator stays >= 1
    return _result("schemes.solvability", 1.0 - smallest, 0.0,
                   f"min denominator {smallest:.12f}")


def _check_schemes_onestep(_, seed):
    taus = [2.0**-e for e in (6, 7, 8, 9, 10)]
    problem = make_problem(f="sine", g="sine", modes=32)
    ops = spectral_discretization(32)
    batch = 32
    means = []
    for i, tau in enumerate(taus):
        integ = Integrator("exponential", tau, problem, ops,
                           _batched_initial(problem, ops, batch))
        stream = RngStream(seed, 50 + i)
        scale = np.sqrt(problem.noise.q * tau)
        n_steps = round(0.25 / tau)
        total = 0.0
        for _ in range(n_steps):
            prev_u = integ.state.u
            integ.step(stream.normals((batch, 32)) * scale)
            du = integ.state.u - prev_u
            total += float(np.mean(np.sqrt(np.einsum("bk,bk->b", du, du))))
        means.append(total / n_steps)
    slope, _ = fit_loglog(taus, means)
    return _result_range("schemes.onestep_increment_slope", slope, 0.8, 1.2)


def _check_schemes_moments(_, seed):
    ops = spectral_discretization(64)
    batch = 64
    worst_ratio = 0.0
    for i, fname in enumerate(("linear", "sine")):
        problem = make_problem(f=fname, g="sine", modes=64)
        integ = Integrator("exponential", 2.0**-6, problem, ops,
                           _batched_initial(problem, ops, batch))
        stream = RngStream(seed, 61 + i)
        scale = np.sqrt(problem.noise.q * 2.0**-6)
        v2_0 = float(np.mean(integ.energy() ** 2))
        worst = v2_0
        for _ in range(64):
            integ.step(stream.normals((batch, 64)) * scale)
            worst = max(worst, float(np.mean(integ.energy() ** 2)))
        worst_ratio = max(worst_ratio, worst / v2_0)
    return _result("schemes.moment_bound", worst_ratio, 10.0,
                   "mean V^2 vs initial, both standard drifts on [0, 1]")


def _check_fem_pencil(_, __):
    system = fem_mod.assemble(64)
    resid = system.stiffness @ system.phi - (system.mass @ system.phi) * system.mu
    worst = float(np.max(np.max(np.abs(resid), axis=0) / system.mu))
    return _result("fem.pencil_residual", worst, 1e-13, "max_k |K phi_k - mu_k M phi_k|_inf / mu_k")


def _check_fem_orthonormal(_, __):
    system = fem_mod.assemble(48)
    gram = system.phi.T @ system.mass @ system.phi
    worst = float(np.max(np.abs(gram - np.eye(system.dim))))
    return _result("fem.mass_orthonormal", worst, 1e-12)


def _check_fem_trig(rng, _):
    from .spectral import wave_group_table

    system = fem_mod.assemble(48)
    worst = 0.0
    for tau in (0.02, 0.4):
        table = wave_group_table(system.mu, tau)
        x = rng.standard_normal(system.dim)
        lhs = np.sum((table.sin * x) ** 2) + np.sum((table.cos * x) ** 2)
        worst = max(worst, abs(lhs - np.sum(x**2)) / np.sum(x**2))
    return _result("fem.trig_identity", worst, 1e-11)


def _check_fem_conservation(rng, _):
    system = fem_mod.assemble(32)
    u = rng.standard_normal(system.dim) / np.arange(1, system.dim + 1)
    v = rng.standard_normal(system.dim)
    drift = _wave_energy_drift(2.0**-6, system.discretization, u, v, system.mu)
    return _result("fem.energy_conservation", drift, 1e-10, "10^4 steps")


def _check_fem_pathwise(_, seed, mutations=frozenset()):
    worst = _pathwise_energy_worst(mutations, seed, fem=True)
    return _result("fem.pathwise_energy", worst, 1e-9)


def _check_fem_substitution(_, seed):
    return _result("fem.substitution_residual", _substitution_worst(seed, fem=True), 1e-10)


def _check_fem_ritz(_, __):
    from .spectral import SpectralField

    system = fem_mod.assemble(8)
    c = np.zeros(8)
    c[0] = 1.0 / np.sqrt(2.0)
    r = fem_mod.ritz_project(system, SpectralField(c))
    worst = float(np.max(np.abs(r - np.sin(np.pi * system.x[1:-1]))))
    return _result("fem.ritz_is_interpolation", worst, 1e-12)


def _check_fem_consistency(_, __):
    # mu_k/(k*pi)^2 - 1 ~ (k*pi*h)^2/12, so the 2% band holds up to
    # k ~ d/8 (theta = pi/8) at every mesh width; d/4 would sit near 5%.
    system = fem_mod.assemble(32)
    count = system.dim // 8
    k = np.arange(1, count + 1)
    exact = (k * np.pi) ** 2
    worst = float(np.max(np.abs(system.mu[:count] - exact) / exact))
    return _result("fem.spectral_consistency", worst, 0.02, "first d/8 eigenvalues")


def _mini_convergence(seed):
    return ConvergenceStudy(
        f="sine", g="sine", modes=16, T=0.5, tau_exps=(4, 5, 6), ref_exp=9,
        schemes=("exponential",), realizations=24, seed=seed, chunk=12,
    )


def _check_harness_monotonic(_, seed):
    res = strong_convergence(_mini_convergence(seed)).per_scheme[0]
    increments = np.diff(res.rms_error[::-1])  # coarse taus last
    worst = float(np.min(increments))
    return CheckResult("harness.error_monotonic", worst, ">= 0", bool(worst >= 0),
                       "rms error nonincreasing in tau")


def _slope_se(taus, rms, stderr):
    x = np.log2(taus)
    y_se = stderr / np.maximum(rms, 1e-300) / np.log(2.0)
    xbar = np.mean(x)
    w = (x - xbar) / np.sum((x - xbar) ** 2)
    return float(np.sqrt(np.sum((w * y_se) ** 2)))


def _check_harness_ci(_, seed):
    a = strong_convergence(_mini_convergence(seed)).per_scheme[0]
    b = strong_convergence(_mini_convergence(seed + 999)).per_scheme[0]
    gap = abs(a.slope - b.slope)
    band = 3.0 * (_slope_se(a.taus, a.rms_error, a.stderr)
                  + _slope_se(b.taus, b.rms_error, b.stderr))
    return _result("harness.ci_honesty", gap, max(band, 1e-12),
                   f"slopes {a.slope:.3f} vs {b.slope:.3f}")


def _check_harness_determinism(_, seed):
    study = _mini_convergence(seed)
    a = strong_convergence(study).per_scheme[0].rms_error
    b = strong_convergence(study).per_scheme[0].rms_error
    return _result("harness.determinism", float(np.max(np.abs(a - b))), 0.0)


_CHECKS = [
    ("spectral.trig_identity", _check_spectral_trig),
    ("spectral.unitarity_drift", _check_spectral_unitarity),
    ("spectral.group_composition", _check_spectral_composition),
    ("spectral.hoelder_cosine", _check_spectral_hoelder),
    ("spectral.transform_roundtrip", _check_spectral_roundtrip),
    ("spectral.parseval_quadrature", _check_spectral_parseval),
    ("noise.increment_variance", _check_noise_variance),
    ("noise.coupling_exact", _check_noise_coupling),
    ("noise.replay_determinism", _check_noise_replay),
    ("noise.lag1_autocorrelation", _check_noise_autocorr),
    ("model.gradient_consistency", _check_model_gradient),
    ("model.dealiasing", _check_model_dealiasing),
    ("model.radicand_floor", _check_model_floor),
    ("schemes.pathwise_energy", _check_schemes_pathwise),
    ("schemes.deterministic_conservation", _check_schemes_conservation),
    ("schemes.substitution_residual", _check_schemes_substitution),
    ("schemes.solvability", _check_schemes_solvability),
    ("schemes.onestep_increment_slope", _check_schemes_onestep),
    ("schemes.moment_bound", _check_schemes_moments),
    ("fem.pencil_residual", _check_fem_pencil),
    ("fem.mass_orthonormal", _check_fem_orthonormal),
    ("fem.trig_identity", _check_fem_trig),
    ("fem.energy_conservation", _check_fem_conservation),
    ("fem.pathwise_energy", _check_fem_pathwise),
    ("fem.substitution_residual", _check_fem_substitution),
    ("fem.ritz_is_interpolation", _check_fem_ritz),
    ("fem.spectral_consistency", _check_fem_consistency),
    ("harness.error_monotonic", _check_harness_monotonic),
    ("harness.ci_honesty", _check_harness_ci),
    ("harness.determinism", _check_harness_determinism),
]


def invariant_suite(name_filter=None, seed=20260810, mutations=frozenset()):
    """Run every structural check, optionally restricted to one module prefix.

    `mutations` deliberately breaks the named pieces (currently
    'unbalanced_table') so the corresponding checks must fail; this guards the
    suite itself against vacuous passes.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in _CHECKS:
        if name_filter and not name.startswith(name_filter):
            continue
        if name in ("schemes.pathwise_energy", "fem.pathwise_energy"):
            res = fn(rng, seed, mutations=frozenset(mutations))
        else:
            res = fn(rng, seed)
        if not res.passed:
            res = replace(res, detail=(res.detail + f" [seed {seed}]").strip())
        results.append(res)
    return results
