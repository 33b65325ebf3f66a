"""Monte Carlo experiment drivers: convergence, energy growth, aux gap, spatial error.

Realizations are the unit of parallelism.  Work is split into fixed-size
chunks of consecutive realization indices; each chunk's partial result is a
pure function of (study config, chunk index), and partial results are
combined in chunk order, so the output is bit-identical no matter how many
workers run the study, at any BLAS thread count.  A pool task steps a group
of consecutive chunks as one (rows, modes) array, as many as keep its nodal
arrays within `_GROUP_VALUES` values, in groups of equal size (`_groups`).
The groups depend on the study alone, never on the worker count, and sums
stay per chunk, so grouping changes no summation order.  A convergence task
steps all the schemes it compares on one (schemes, rows, modes) state, so
each fine increment is drawn, synthesized and summed into the coarse ones
once; its tasks are split by rows only.  A study deals every group, of every
step size it compares, round-robin to W worker processes that it forks
itself (`_forked_map`); each worker steps its groups in order and hands its
results back through its own pipe.  Every study runs numpy's OpenBLAS at one
thread, which the workers inherit across the fork; a study run in-process
takes that OpenBLAS's thread count as its budget: at the mode counts where
a row's GEMM bits do not depend on the rows around it, each sine-spectral
task cuts its rows into up to that many contiguous slices (`_slices`), as
many as hold enough values to pay for a thread, and each slice steps its
own rows and streams on its own Python thread, so every row takes the bits
it takes in a worker process.  The energy and aux-gap
studies share one diagnostics task (`_energy_chunk`), which steps its slices
a block of steps at a time and folds their per-step values into its chunk
sums between blocks, on the calling thread.  Every study rejects a horizon T
that is not a whole number of its steps (`step_count`).
Each task streams its noise through `noise.increments` (a convergence task
through `noise.coupled_increments`, which also sums the coarse increments),
so it holds O(rows * modes) memory whatever its step count; a spatial task's
terminal error arrays are O(rows * `_FINE_BLOCK`), its reference and its
element solutions evaluated on the fine grid one block of points at a time.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import threading
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice

import numpy as np

from . import fem as fem_mod
from .model import make_problem, spectral_discretization, uniform_grid
from .noise import RngStream, coupled_increments, increments, trace as cov_trace, trace_operator
from .schemes import SCHEMES, Integrator, initial_state
from .spectral import sine_values

__all__ = [
    "ConvergenceStudy",
    "EnergyStudy",
    "AuxGapStudy",
    "SpatialStudy",
    "strong_convergence",
    "energy_evolution",
    "aux_gap_scaling",
    "spatial_refinement",
    "fit_loglog",
]


def fit_loglog(x, y):
    """Least-squares slope and intercept of log2(y) on log2(x); NaN for < 2 points or a y <= 0.

    The normal equations in closed form on centred abscissae, not np.polyfit:
    its `lstsq` maps LAPACK into a process that otherwise never touches it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.any(y <= 0):
        return float("nan"), float("nan")
    lx, ly = np.log2(x), np.log2(y)
    mx, my = lx.mean(), ly.mean()
    dx = lx - mx
    slope = np.dot(dx, ly - my) / np.dot(dx, dx)
    return float(slope), float(my - slope * mx)


def step_count(T, tau):
    """round(T / tau), the steps of size `tau` that end at T; ValueError unless they do."""
    n = round(T / tau)
    if n < 0 or abs(n * tau - T) > 2 * np.finfo(float).eps * max(T, 1.0):
        raise ValueError(f"T = {T} is not a whole number of steps {tau}")
    return n


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
        for e in (*self.tau_exps, self.ref_exp):
            step_count(self.T, 2.0**-e)
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

    def __post_init__(self):
        step_count(self.T, self.tau)


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

    def __post_init__(self):
        for e in self.tau_exps:
            step_count(self.T, 2.0**-e)


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

    def __post_init__(self):
        step_count(self.T, self.tau)


# ---------------------------------------------------------------------------
# Batched integration helpers.


def _problem(study, modes):
    return make_problem(
        f=study.f, g=study.g, sigma=study.sigma, delta0=study.delta0,
        modes=modes, noise_decay=study.noise_decay,
    )


def _batched_initial(problem, ops, batch, initial=None):
    """`batch` copies of the initial state: (u0, v0) coefficients, default the problem's.

    `batch` is a row count or a tuple of leading axes, (S, B) for a stack of S schemes.
    """
    u0, v0 = (problem.u0.coeffs, problem.v0.coeffs) if initial is None else initial
    reps = (*np.atleast_1d(batch), 1)
    return initial_state(np.tile(u0, reps), np.tile(v0, reps), problem, ops)


# Values in the nodal arrays of one pool task: consecutive chunks are stepped
# as one array while stack x rows x nodes stays within 2^15 float64 values
# (256 KiB), with a convergence task's S schemes stacked on its rows.  Small
# batches cost mostly per-call overhead (at K = 64 a path-step took 11.9 us at
# 25 rows and 7.5 us at 200, one BLAS thread); at K = 256 the cost was flat
# from 25 rows on.  Stacking keeps that true: a linear/sine study of
# criterion 4 (K = 64, 8 chunks of 25, 2 schemes, 2 workers on 2 cores) took
# 18.3-21.0 s in 2 groups of 4 chunks against 26.0-26.4 s in 8 groups of 1.
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


@cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy links, or None.

    Looked up in numpy's own linear-algebra extension, since dlsym also
    searches the libraries it links.  None under another BLAS, which keeps
    its own setting; in-process studies then step on one thread.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"), ("scipy_openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# Fewest rows of a slice, and the sine mode counts K at which slices are made
# (`_slices`): there, at one BLAS thread, a slice's `nodal` and `project` rows
# take the bits of the same rows of the whole task.  Measured with
# scipy-openblas 0.3.31 against tasks of 4 to 250 rows: a slice of one row
# differs at every K (numpy's matrix-vector path), and at K = 256 so does a
# `project` of 2 to 7 rows (OpenBLAS's small-matrix kernel, taken at up to
# 10^6 multiply-adds, sums the 513 terms in another order); from 8 rows on
# every row agreed at each K of the set.  Elsewhere a row's bits can depend
# on where it sits in the product: at K = 127, 129, 150, 255, 257 and 300,
# slices of 8 to 125 rows differed even when cut at multiples of 48 rows, and
# at K = 100 a `project` of up to 49 rows did.
_SLICE_ROWS = 8
_SLICE_MODES = frozenset({16, 32, 64, 128, 256, 512, 1024})

# Fewest nodal values (stack x rows x (2K + 1)) per slice: below it a second
# thread costs more in contended numpy calls than it saves.  On 2 cores, two
# slices of 3.1k values took 2.2x as long as one thread, of 12.9k as long,
# and of 32k (energy-diag) 16.5 % less; the README has the measured table.
_SLICE_VALUES = 2**13


def _slices(rows, threads, modes, stack=1):
    """At most `threads` contiguous row slices of a task of `rows` rows on `modes` sine modes.

    One slice unless `modes` is in _SLICE_MODES; none below _SLICE_ROWS rows
    or below _SLICE_VALUES nodal values of a `stack`-deep state.
    """
    n = min(threads, rows // _SLICE_ROWS, stack * rows * (2 * modes + 1) // _SLICE_VALUES)
    n = max(1, n) if modes in _SLICE_MODES else 1
    cuts = [j * rows // n for j in range(n + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _run_slices(body, slices):
    """body(rows) for each slice: the first on this thread, each other on a thread of its own.

    The first error in slice order is raised here, once every slice has ended.
    """
    errors = [None] * len(slices)

    def run(i):
        try:
            body(slices[i])
        except BaseException as exc:
            errors[i] = exc

    others = [threading.Thread(target=run, args=(i,)) for i in range(1, len(slices))]
    for thread in others:
        thread.start()
    run(0)
    for thread in others:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _groups(study, modes, stack=1):
    """(first, stop) chunk ranges of the pool tasks of `study`, from the study alone.

    A task steps `stack` x rows x (2 * modes + 1) nodal values, so a group
    holds as many chunks as keep that within `_GROUP_VALUES`, at least one.
    There are at least `stack` groups when there are that many chunks, so
    stacking S schemes in a task leaves no fewer tasks than one per scheme
    would.  Group sizes differ by at most one chunk, so that no task runs
    long while the others idle, and the larger groups come last, so that a
    short last chunk shares its group whenever groups hold several chunks: a
    batch of one row goes through BLAS matrix-vector kernels, whose bits
    differ from those of its row in a matrix product.
    """
    n_chunks = (study.realizations + study.chunk - 1) // study.chunk
    per_task = max(1, _GROUP_VALUES // (stack * study.chunk * (2 * modes + 1)))
    n_groups = max(-(-n_chunks // per_task), min(stack, n_chunks))
    return [(j * n_chunks // n_groups, (j + 1) * n_chunks // n_groups) for j in range(n_groups)]


def _map_chunks(fn, study, modes, workers, keys=(None,), stack=1):
    """Every chunk of `study`, per key, as one list of chunk results in chunk order.

    Each task calls fn(first, stop, threads) or fn(key, first, stop, threads)
    on a group of consecutive chunks (`_groups`), which it steps as one
    array on the dealiased grid of `modes` sine modes, `stack` schemes deep,
    in up to `threads` row slices, and returns one result per chunk.  The
    worker count plays no part in the groups.  The thread count of numpy's
    OpenBLAS (`_openblas`) is read once as the budget, and OpenBLAS runs one
    thread until the tasks are done, also when one raises.  With several
    workers the tasks go to forked children (`_forked_map`), which inherit
    that setting and call fn without `threads`.  In-process tasks get the
    budget, 1 without an OpenBLAS.
    """
    groups = _groups(study, modes, stack)
    n_chunks = groups[-1][1]
    tasks = [g if key is None else (key, *g) for key in keys for g in groups]
    get, put = _openblas() or (lambda: 1, lambda n: None)
    budget = get()
    put(1)
    try:
        if workers <= 1 or len(tasks) <= 1:
            parts = [fn(*task, budget) for task in tasks]
        else:
            # Forked workers inherit numpy.random (which maps OpenSSL through
            # secrets -> hmac), loaded once here rather than again in each.
            import numpy.random  # noqa: F401

            parts = _forked_map(fn, tasks, min(workers, len(tasks)))
    finally:
        put(budget)
    flat = [chunk for part in parts for chunk in part]
    return [flat[j:j + n_chunks] for j in range(0, len(flat), n_chunks)]


def _forked_map(fn, tasks, n):
    """[fn(*task) for task in tasks], task i run in forked child i % n, in task order.

    Each child sends one pickled message through its own pipe, (None, its
    results) or (i, the exception task i raised), and ends in os._exit, so
    it never returns into the caller's frames.  Once every child is reaped,
    the exception of the lowest failing task is raised, as `map` would.  A
    child that ends without a message fails the map at once; so does this
    process, and then it kills and reaps the children still running.
    """
    pids, pipes, messages = [], [], []
    try:
        for w in range(n):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, tasks, range(w, len(tasks), n), wr)
                pids.append(pid)
            finally:
                os.close(wr)
        for w, pipe in enumerate(pipes):
            data = pipe.read()
            status = os.waitpid(pids[w], 0)[1]
            pids[w] = None
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"worker {w} ended without a result ({how})")
            messages.append(pickle.loads(data))
    except BaseException:
        import signal

        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    failed = [m for m in messages if m[0] is not None]
    if failed:
        raise min(failed, key=lambda m: m[0])[1]
    parts = [None] * len(tasks)
    for w, (_, results) in enumerate(messages):
        parts[w::n] = results
    return parts


def _worker(fn, tasks, indices, fd):
    """A forked child of `_forked_map`: run the tasks, write the message to fd, exit."""
    code = 1
    try:
        results = []
        for i in indices:
            try:
                results.append(fn(*tasks[i]))
            except BaseException as exc:  # raised again in the study's process
                try:
                    data = pickle.dumps((i, exc))
                    pickle.loads(data)
                except Exception:
                    data = pickle.dumps((i, RuntimeError(f"task {i} raised {exc!r}")))
                break
        else:
            data = pickle.dumps((None, results))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# Strong temporal convergence.


def _convergence_chunk(study, first, stop=None, threads=1):
    """Squared terminal errors (schemes, levels, rows) and exclusions (schemes, rows) per chunk.

    Every scheme steps on one stacked state, so each fine increment is drawn,
    synthesized and summed into the coarse ones once for all of them.  A
    `reference_scheme` is one (1, B, K) slab that every scheme's error reads.
    """
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    tau_ref = 2.0**-study.ref_exp
    n_fine = step_count(study.T, tau_ref)
    multiples = [2 ** (study.ref_exp - e) for e in study.tau_exps]
    n_schemes = len(study.schemes)
    sq_errors = np.empty((n_schemes, len(multiples), batch))
    excluded = np.zeros((n_schemes, batch), dtype=bool)

    def step_rows(rows):
        def stacked(schemes, tau):
            return Integrator(schemes, tau, problem, ops,
                              _batched_initial(problem, ops, (len(schemes), rows.stop - rows.start)),
                              study.predictor)

        ref = stacked((study.reference_scheme,) if study.reference_scheme else study.schemes,
                      tau_ref)
        levels = [stacked(study.schemes, 2.0**-e) for e in study.tau_exps]
        flags = excluded[:, rows]  # sanitize marks paths in place
        for dw, done in coupled_increments(problem.noise, tau_ref, n_fine, streams[rows],
                                           multiples):
            ref.step(dw)
            flags = ref.sanitize(flags)
            for i, coarse in done:
                levels[i].step(coarse)
                flags = levels[i].sanitize(flags)
        for i, lvl in enumerate(levels):
            du = ref.state.u - lvl.state.u
            dv = ref.state.v - lvl.state.v
            for s in range(n_schemes):  # 2-D row dots: a 3-D einsum sums in another order
                if study.norm == "h":
                    sq_errors[s, i, rows] = (np.einsum("bk,bk->b", ops.lam * du[s], du[s])
                                             + np.einsum("bk,bk->b", dv[s], dv[s]))
                else:
                    sq_errors[s, i, rows] = np.einsum("bk,bk->b", du[s], du[s])

    _run_slices(step_rows, _slices(batch, threads, study.modes, n_schemes))
    return [(sq_errors[..., s], excluded[:, s]) for s in spans]


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
    parts, = _map_chunks(partial(_convergence_chunk, study), study, study.modes, workers,
                         stack=len(study.schemes))
    all_sq = np.concatenate([p[0] for p in parts], axis=2)
    all_excluded = np.concatenate([p[1] for p in parts], axis=1)
    for scheme, sq, excluded in zip(study.schemes, all_sq, all_excluded):
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
# Energy evolution and auxiliary-variable gap: one diagnostics task.


# Steps per block of a diagnostics task: its slices step this many steps,
# each writing V and the trace term of its rows into a (steps, rows) buffer,
# and the calling thread folds the buffer into the chunk sums between blocks.
_FOLD_STEPS = 64


def _energy_chunk(study, tau, first, stop=None, threads=1, trace=False):
    """Per chunk: sums of V and V^2 and of the trace term per step, and of each path's worst gap.

    The one diagnostics task of the energy and aux-gap studies, at step size
    `tau`.  Without `trace` the stepper gets no trace operator and the trace
    sums are NaN.
    """
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    n_steps = step_count(study.T, tau)
    trace_fn = trace_operator(problem.noise, ops) if trace else None
    v0 = np.empty(batch)
    rows_v = np.empty((min(_FOLD_STEPS, n_steps), batch))  # V after each step of a block
    rows_trace = np.empty_like(rows_v)  # the trace term of each step of a block
    max_gap = np.zeros(batch)  # each path's worst aux gap so far
    sum_v = np.zeros((len(spans), n_steps + 1))
    sum_v2 = np.zeros((len(spans), n_steps + 1))
    sum_trace = np.zeros((len(spans), n_steps))
    slices = _slices(batch, threads, study.modes)
    runs = {}

    def start(rows):
        integ = Integrator(
            study.scheme, tau, problem, ops,
            _batched_initial(problem, ops, rows.stop - rows.start), study.predictor,
            trace_fn=trace_fn,
        )
        v0[rows] = integ.energy()
        runs[rows.start] = integ, increments(problem.noise, tau, n_steps, streams[rows])

    def step_block(rows):
        integ, draws = runs[rows.start]
        gap = max_gap[rows]
        for n, dw in enumerate(islice(draws, hi - lo)):
            diag = integ.step(dw, diagnostics=True)
            rows_v[n, rows] = diag.V
            rows_trace[n, rows] = diag.trace_term
            np.maximum(gap, diag.aux_gap, out=gap)

    _run_slices(start, slices)
    for lo in range(0, n_steps, _FOLD_STEPS):
        hi = min(lo + _FOLD_STEPS, n_steps)
        _run_slices(step_block, slices)
        for c, s in enumerate(spans):
            v = rows_v[:hi - lo, s]
            sum_v[c, lo + 1:hi + 1] = np.sum(v, axis=1)
            sum_v2[c, lo + 1:hi + 1] = np.sum(v**2, axis=1)
            sum_trace[c, lo:hi] = np.sum(rows_trace[:hi - lo, s], axis=1)
    sum_v[:, 0] = _chunk_sums(v0, spans)
    sum_v2[:, 0] = _chunk_sums(v0**2, spans)
    return list(zip(sum_v, sum_v2, sum_trace, _chunk_sums(max_gap, spans)))


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
    n_steps = step_count(study.T, study.tau)
    parts, = _map_chunks(partial(_energy_chunk, study, trace=True), study, study.modes, workers,
                         (study.tau,))
    sum_v = np.zeros(n_steps + 1)
    sum_v2 = np.zeros(n_steps + 1)
    sum_trace = np.zeros(n_steps)
    for pv, pv2, ptr, _ in parts:
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
    taus = tuple(2.0**-e for e in study.tau_exps)
    per_tau = _map_chunks(partial(_energy_chunk, study), study, study.modes, workers, taus)
    means = np.array([sum(gap for *_, gap in parts) / study.realizations for parts in per_tau])
    if means.size > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = means[:-1] / means[1:]
    else:
        ratios = np.array([])
    return AuxGapResult(study, np.array(taus), means, ratios)


# ---------------------------------------------------------------------------
# Element-space refinement against the sine reference.


# Fine-grid points per block of the terminal error: the sine reference and
# the interpolated element solutions are evaluated on the fine grid one
# (rows, block) array at a time, never as a (fine_grid + 1, ref_modes) sine
# matrix or a (rows, fine_grid + 1) array.
_FINE_BLOCK = 256


def _spatial_chunk(study, first, stop=None, threads=1):
    # One slice whatever `threads`: the FEM noise maps (dW @ cmap.T, ref_modes
    # terms into E + 1 columns) give a row other bits in a slice than in the
    # whole task at most row counts (OpenBLAS's small-matrix kernel).
    streams, spans = _group(study, first, stop)
    batch = len(streams)
    kref = study.ref_modes
    problem = _problem(study, kref)
    ops_ref = spectral_discretization(kref)
    ref = Integrator(
        study.scheme, study.tau, problem, ops_ref,
        _batched_initial(problem, ops_ref, batch),
    )

    meshes = [fem_mod.assemble(2**e) for e in study.h_exps]
    fem_runs = [
        Integrator(study.scheme, study.tau, problem, ops,
                   _batched_initial(problem, ops, batch,
                                    fem_mod.initial_coefficients(ops, problem)))
        for ops in meshes
    ]
    noise_maps = [fem_mod.noise_projection_matrix(ops, kref) for ops in meshes]

    n_steps = step_count(study.T, study.tau)
    for dw in increments(problem.noise, study.tau, n_steps, streams):
        ref.step(dw)
        for run, cmap in zip(fem_runs, noise_maps):
            run.step(dw @ cmap.T)

    fine = uniform_grid(study.fine_grid)
    nodal = [ops.nodal(run.state.u) for ops, run in zip(meshes, fem_runs)]
    sq_errors = np.zeros((len(meshes), batch))
    for lo in range(0, fine.x.size, _FINE_BLOCK):
        x = fine.x[lo:lo + _FINE_BLOCK]
        ref_vals = ref.state.u @ sine_values(x, kref).T
        for ops, vals, sq in zip(meshes, nodal, sq_errors):
            err = fem_mod.linear_interp(ops.x, vals, x)
            np.subtract(ref_vals, err, out=err)
            np.square(err, out=err)
            sq += np.einsum("bm,m->b", err, fine.weights[lo:lo + x.size])
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
