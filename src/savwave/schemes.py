"""Semi-implicit auxiliary-variable integrators for the stochastic wave system.

One SAV step advances the triple (u, v, q), where q tracks
sqrt(F(u) + delta0) and the drift enters only through the normalized
direction b = f(u_hat)/sqrt(F(u_hat) + delta0); a per-mode propagator table
carries the linear part: the exact wave group for the exponential scheme,
its Cayley (Crank-Nicolson) approximation for the midpoint scheme.  The
implicit coupling between u_{n+1} and q_{n+1} is a rank-one perturbation of
a diagonal operator, so each step is solved exactly by one scalar division
whose denominator is >= 1 by construction.  Both schemes satisfy, path by
path,

    V_{n+1} - V_n = <v_n, G_n> + 1/2 |G_n|^2,
    V = 1/2 |u|_{H1}^2 + 1/2 |v|_{L2}^2 + q^2,   G_n = g(u_n) dW_n,

which yields the linear-in-time growth of the averaged energy after taking
expectations.  A state is a batch: u and v have shape (..., B, K) and q
(..., B), one row per independent realization, all through identical
arithmetic.

`Integrator` is the one trajectory engine: it alone maps a scheme name to its
propagator table, and it holds the predictor memory and the blow-up guard
(`sanitize`).  Every driver (the `simulate` command, a batch of one on either
backend; the Monte Carlo studies; the invariant checks) steps through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import apply_g_core, drift_core, radicand
from .spectral import WaveGroupTable, cayley_group_table, wave_group_table

__all__ = [
    "BlowUpError",
    "ENERGY_GUARD",
    "SavState",
    "StepDiagnostics",
    "Integrator",
    "PREDICTORS",
    "SCHEMES",
    "initial_state",
    "modified_energy",
    "state_norm",
    "step_exponential_sav",
    "step_midpoint_sav",
    "substitution_residual",
]

PREDICTORS = ("identity", "extrapolation")
# Scheme name -> builder of its propagator table from (lam, tau).
SCHEMES = {"exponential": wave_group_table, "midpoint": cayley_group_table}

# Modified energy beyond which a path counts as blown up (Integrator.sanitize):
# the convergence study parks the path, `simulate` aborts.  The value itself
# is arbitrary plumbing.
ENERGY_GUARD = 1e12
# A batch whose summed modified energy is at most this is healthy (see
# SavState.energy_sum).
_HEALTHY_SUM = 0.5 * ENERGY_GUARD


class BlowUpError(RuntimeError):
    """A trajectory left the finite/bounded-energy regime."""


@dataclass(frozen=True)
class SavState:
    """Displacement/velocity coefficients plus the scalar auxiliary variable.

    The other fields are a cache handed on so that nobody recomputes it; it
    must describe the state exactly, and code that builds a state from
    modified arrays leaves it None.  `vals` (nodal u), `rad` (F(u) + delta0),
    `fvals` (nodal f(u)) and `V` (modified energy per path) come from a step
    with diagnostics, or from initial_state (all but `V`).  A diagnostics
    step leaves `fvals` and `vals` in slots 0 and 1 of one (2, ..., M) array,
    which the next step may take as its analysis buffer and write over, but
    only when its owner hands the state over unread (Integrator.step, whose
    `state` property marks a state it gives out as shared); a state anyone
    else holds keeps its bytes.  Every step sets
    `energy_sum` = 1/2 (|sqrt(lam) u|^2 + |v|^2) + |q|^2 over the batch, the
    summed V up to round-off: as V >= 0 path by path, `energy_sum` <=
    ENERGY_GUARD/2 proves every entry finite and every path's V below the
    guard, with a margin far above round-off.
    """

    u: np.ndarray
    v: np.ndarray
    q: np.ndarray
    n: int = 0
    vals: np.ndarray | None = field(default=None, repr=False, compare=False)
    rad: np.ndarray | None = field(default=None, repr=False, compare=False)
    fvals: np.ndarray | None = field(default=None, repr=False, compare=False)
    V: np.ndarray | None = field(default=None, repr=False, compare=False)
    energy_sum: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        if u.shape != v.shape:
            raise ValueError(f"u/v shapes differ: {u.shape} vs {v.shape}")
        if q.shape != u.shape[:-1]:
            raise ValueError(f"q shape {q.shape} does not match state {u.shape}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class StepDiagnostics:
    """Structure observables of one accepted step.

    energy_residual is the defect of the pathwise energy identity above;
    aux_gap is |sqrt(F(u_{n+1})+delta0) - q_{n+1}|; denominator is the
    rank-one solve denominator (>= 1); trace_term is the Hilbert-Schmidt
    trace of the diffusion at the pre-step state when a trace callable is
    supplied, else NaN.
    """

    V: np.ndarray
    V1: np.ndarray
    q: np.ndarray
    aux_gap: np.ndarray
    energy_residual: np.ndarray
    trace_term: np.ndarray
    denominator: np.ndarray


def _dot(a, b):
    # einsum, not np.vecdot: vecdot is faster per call but sums in another
    # order, and that round-off moves the pinned aux gaps and energy standard
    # errors by up to 2e-11 relative.
    return np.einsum("...k,...k->...", a, b)


def modified_energy(u, v, q, lam):
    """V = 1/2 sum lam*u^2 + 1/2 sum v^2 + q^2."""
    return 0.5 * _dot(lam * u, u) + 0.5 * _dot(v, v) + np.asarray(q) ** 2


def state_norm(state, lam):
    """Graph norm sqrt(|u|_{H1}^2 + |v|_{L2}^2 + q^2) used to scale residuals."""
    return np.sqrt(_dot(lam * state.u, state.u) + _dot(state.v, state.v) + state.q**2)


def initial_state(u, v, problem, ops):
    """State at (u, v) with q = sqrt(F(u) + delta0), i.e. zero aux gap, and its cache seeded."""
    vals = ops.nodal(u)
    fvals, F_vals = problem.drift_values(vals)
    rad = radicand(F_vals, problem, ops)
    return SavState(u, v, np.sqrt(rad), vals=vals, rad=rad, fvals=fvals)


def _check_finite(u, v, q, n):
    if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(q).all()):
        raise BlowUpError(f"non-finite state produced at step {n}")


def _step_inputs(state, dw, problem, ops, u_hat, trace_fn=None, owned=False):
    """Drift direction b, noise increment G = P_K g(u)*dW, trace term and buffer of one step.

    u is synthesized once (or taken from the state's cache) and serves both
    g(u) and, when u_hat is u, the joint drift values f(u_hat), F(u_hat)
    (Problem.drift_values); a diffusion that is the drift (Problem.g_is_f,
    e.g. f = g = sine) takes f's values of u.  Both analyses share one
    `project` call on the buffer [f; g*dW] of shape (2, ..., B, M).  When the
    caller owns the state (`owned`) and its cache holds nodal f(u) and u in
    slots 0 and 1 of such an array (a diagnostics step left it), that array
    is the buffer, with f(u) already in place; otherwise the buffer is fresh.
    A drift pair evaluated here writes f straight into slot 0, also the pair
    at u that an extrapolated predictor with g = f needs only for g(u) =
    f(u).  dW is synthesized into slot 1 and multiplied by g(u) there,
    unless dW broadcasts against the state (stacked schemes) or g(u) is
    that slot (g the identity): then nodal dW is a temporary.  The trace
    term is taken from g(u) before it is written over, None without
    `trace_fn`.  Only then is an extrapolated u_hat synthesized (a
    temporary) and its drift pair written into slot 0.  The buffer is
    returned for the diagnostics to reuse.
    """
    u = state.u
    vals = ops.nodal(u) if state.vals is None else state.vals
    shape = np.broadcast_shapes(vals.shape, dw.shape[:-1] + vals.shape[-1:])
    f_u, rad = state.fvals, state.rad
    buf = vals.base if owned and f_u is not None else None
    carried = buf is not None and f_u.base is buf and buf.shape == (2,) + shape
    if not carried:
        buf = np.empty((2,) + shape)
    f_slot, g_slot = buf
    extrapolated = u_hat is not None and u_hat is not u
    if extrapolated:
        if problem.g_is_f and f_u is None:
            f_u = problem.drift_values(vals, out=f_slot)[0]
    elif f_u is None or rad is None:
        f_u, F_u = problem.drift_values(vals, out=f_slot)
        rad = radicand(F_u, problem, ops)
        del F_u
    elif not carried:
        f_slot[...] = f_u
    g_vals = f_u if problem.g_is_f else problem.g(vals)
    del vals
    trace = None if trace_fn is None else trace_fn(g_vals)
    if dw.shape[:-1] == shape[:-1] and not np.may_share_memory(g_vals, g_slot):
        ops.nodal(dw, out=g_slot)
        g_slot *= g_vals
    else:
        np.multiply(g_vals, ops.nodal(dw), out=g_slot)
    del g_vals
    if extrapolated:
        _, F_hat = problem.drift_values(ops.nodal(u_hat), out=f_slot)
        rad = radicand(F_hat, problem, ops)
        del F_hat
    coeffs = ops.project(buf.reshape(-1, shape[-1]))
    drift, g_inc = coeffs.reshape((2,) + shape[:-1] + coeffs.shape[-1:])
    drift /= np.sqrt(rad)[..., None]
    return drift, g_inc, trace, buf


def _diagnostics(problem, ops, n, v_old, new_u, new_v, new_q, v_dot_g, g_sq, trace, denom,
                 energy_sum, buf):
    """(new state carrying nodal u_{n+1}, F(u_{n+1}) + delta0, f(u_{n+1}) and V, StepDiagnostics).

    n and v_old = V_n are the pre-step index and energy; v_dot_g = <v_n, G_n>
    and g_sq = |G_n|^2 are the energy law's noise terms, taken by the caller
    so that G_n is released before u_{n+1} is synthesized.  u_{n+1} is
    synthesized into slot 1 of the step's buffer `buf` and f(u_{n+1}) lands
    in slot 0, so the new state's `vals` and `fvals` are the two slots of
    one array.
    """
    lam = ops.lam
    # modified_energy's sum order: V = h + q^2 and V1 = h + F share h.
    h = 0.5 * _dot(lam * new_u, new_u) + 0.5 * _dot(new_v, new_v)
    v_new = h + new_q**2
    residual = v_new - v_old - v_dot_g - 0.5 * g_sq
    vals_new = ops.nodal(new_u, out=buf[1])
    f_vals_new, F_new = problem.drift_values(vals_new, out=buf[0])
    rad_new = radicand(F_new, problem, ops)
    f_new = rad_new - problem.delta0
    aux_gap = np.abs(np.sqrt(rad_new) - new_q)
    v1 = h + f_new
    new_state = SavState(new_u, new_v, new_q, n + 1, vals_new, rad_new, f_vals_new,
                         v_new, energy_sum)
    return new_state, StepDiagnostics(
        V=v_new,
        V1=v1,
        q=new_q,
        aux_gap=aux_gap,
        energy_residual=residual,
        trace_term=trace,
        denominator=denom,
    )


def step_exponential_sav(
    state, dw, table, problem, ops, u_hat=None, diagnostics=True, trace_fn=None, owned=False
):
    """One SAV step on the propagator `table`, the only stepper of both schemes.

    The linear part is propagated by the table: the exact wave group gives
    the exponential scheme, the Cayley table the midpoint scheme.  The
    implicit average (q_n + q_{n+1})/2 is eliminated against the q-update,
    leaving a rank-one solve with denominator 1 + 1/4 <b, a1*b> >= 1 since
    a1 >= 0 mode by mode.

    Cost per step: two syntheses (dW, and u or, with `diagnostics`,
    u_{n+1}; an extrapolated u_hat adds a third), one stacked analysis of
    [f(u_hat); g(u) dW], and one joint evaluation of the drift f and its
    antiderivative (Problem.drift_values: one tan and no sin or cos for the
    sine pair), at u or, with `diagnostics`, at u_{n+1}; an extrapolated
    u_hat adds one at u_hat.  One (2, ..., B, M) array is the step's only
    nodal scratch: the analysis buffer, into which the drift pair writes f,
    dW is synthesized and g multiplied (nodal dW is a temporary only where
    it broadcasts over stacked schemes or g(u) is nodal u itself), and with
    `diagnostics` the home of nodal u_{n+1} (slot 1) and f(u_{n+1}) (slot
    0).  Those ride on the returned state with F(u_{n+1}) + delta0 and
    V_{n+1}, so the next step reuses them; when that step may write over
    the state (`owned`), the array itself is its analysis buffer, with f
    already in place, and otherwise the buffer is fresh.  The rank-one
    update is four row dots and elementwise ops written in place into five
    fresh (..., K) arrays: at the batch sizes the studies run, numpy's fixed
    cost per call, not arithmetic, sets its pace.  For the same reason the
    new state is checked as a whole: three dots give its summed energy
    `energy_sum` (carried on the returned state), and only when that
    exceeds ENERGY_GUARD/2, inf and NaN included, are u, v and q scanned
    entry by entry for a non-finite value.

    `owned` says that the caller hands over the state's only reference and
    holds none of its arrays (Integrator.step), so the step may write over
    its cached nodal arrays; by default no array of `state` is written.  The
    step drops `state` once its inputs are taken, which frees what the
    buffer does not reuse.  A diagnostics step takes the trace term from
    g(u_n) before the analysis, and the energy law's pre-step terms
    <v_n, G_n> and |G_n|^2 right after the update; then it drops the
    update's scratch arrays and the [b; G] coefficients: while it
    synthesizes u_{n+1} and evaluates the drift there it holds only u_n,
    v_n, u_{n+1}, v_{n+1}, the buffer and the antiderivative values.
    """
    u, v, q, n = state.u, state.v, state.q, state.n
    if diagnostics:
        v_old = modified_energy(u, v, q, ops.lam) if state.V is None else state.V
    b, g_inc, trace, buf = _step_inputs(state, dw, problem, ops, u_hat,
                                        trace_fn if diagnostics else None, owned)
    del state
    if not diagnostics:
        del buf

    # Every (..., K) array below is fresh, so the in-place ops touch nothing a
    # caller holds.  Each line keeps the evaluation order of the formula in
    # its comment; a sum only swaps its operands, which is exact.
    tmp = np.empty_like(b)
    bu = _dot(b, u)
    vg = v + g_inc
    a1b = np.multiply(table.a1, b)
    denom = _dot(b, a1b)  # 1 + 1/4 <b, a1*b>
    denom *= 0.25
    denom += 1.0
    if (denom < 1.0).any():
        raise AssertionError("rank-one denominator dropped below 1")
    qa1b = np.multiply(table.quarter_a1, b)
    # gamma = cos*u + a2*(v+G) - a1*b*q + (a1/4)*b*<b,u>
    gamma = np.multiply(table.a2, vg)
    gamma += np.multiply(table.cos, u, out=tmp)
    gamma -= np.multiply(a1b, q[..., None], out=a1b)
    gamma += np.multiply(qa1b, bu[..., None], out=tmp)
    sigma = _dot(b, gamma)  # <b, gamma> / denom
    sigma /= denom
    new_u = gamma  # gamma - (a1/4)*b*sigma
    new_u -= np.multiply(qa1b, sigma[..., None], out=qa1b)
    new_q = _dot(b, new_u)  # q + 1/2 (<b, u_{n+1}> - <b, u>)
    new_q -= bu
    new_q *= 0.5
    new_q += q
    q_mid = q + new_q  # 1/2 (q + q_{n+1})
    q_mid *= 0.5
    new_v = np.multiply(table.cos, vg, out=vg)  # -sqrt(lam)*sin*u + cos*(v+G) - a2*b*q_mid
    new_v += np.multiply(table.neg_sqrt_lam_sin, u, out=tmp)
    np.multiply(table.a2, b, out=tmp)
    tmp *= q_mid[..., None]
    new_v -= tmp
    np.multiply(table.sqrt_lam, new_u, out=tmp)
    energy_sum = 0.5 * (np.vdot(tmp, tmp) + np.vdot(new_v, new_v)) + np.vdot(new_q, new_q)
    if not energy_sum <= _HEALTHY_SUM:
        _check_finite(new_u, new_v, new_q, n)
    if not diagnostics:
        return SavState(new_u, new_v, new_q, n + 1, energy_sum=energy_sum), None
    # Release what the diagnostics do not need before they synthesize u_{n+1}.
    del tmp, a1b, qa1b
    v_dot_g = _dot(v, g_inc)
    g_sq = _dot(g_inc, g_inc)
    if trace is None:
        trace = np.full(np.shape(new_q), np.nan)
    del b, g_inc
    return _diagnostics(
        problem, ops, n, v_old, new_u, new_v, new_q, v_dot_g, g_sq, trace, denom, energy_sum, buf
    )


def step_midpoint_sav(state, dw, tau, problem, ops, u_hat=None, diagnostics=True, trace_fn=None):
    """One step of the midpoint scheme: step_exponential_sav on the Cayley table of tau."""
    return step_exponential_sav(
        state, dw, cayley_group_table(ops.lam, tau), problem, ops,
        u_hat=u_hat, diagnostics=diagnostics, trace_fn=trace_fn,
    )


def substitution_residual(
    scheme, state, new_state, dw, problem, ops, table=None, tau=None, u_hat=None
):
    """Max residual norm of the un-eliminated step equations at a solution.

    Recomputes every ingredient from scratch with the unfused cores
    (drift_core, apply_g_core) and substitutes the accepted
    (u_{n+1}, v_{n+1}, q_{n+1}) into the three coupled equations as written;
    returns max over the equations of the L2 residual norm (absolute value
    for the scalar equation).
    """
    u, v, q = state.u, state.v, state.q
    u1, v1, q1 = new_state.u, new_state.v, new_state.q
    g_inc = apply_g_core(u, dw, problem, ops)
    b, _ = drift_core(u if u_hat is None else u_hat, problem, ops)
    q_mid = 0.5 * (q + q1)
    if scheme == "exponential":
        r1 = u1 - (
            table.cos * u
            + table.a2 * v
            - table.a1 * b * q_mid[..., None]
            + table.a2 * g_inc
        )
        r2 = v1 - (
            -table.sqrt_lam * table.sin * u
            + table.cos * v
            - table.a2 * b * q_mid[..., None]
            + table.cos * g_inc
        )
    elif scheme == "midpoint":
        lam = ops.lam
        r1 = u1 - u - 0.5 * tau * (v + v1) - 0.5 * tau * g_inc
        r2 = (
            v1
            - v
            + 0.5 * tau * lam * (u + u1)
            + tau * b * q_mid[..., None]
            - g_inc
        )
    else:
        raise ValueError(f"unknown scheme '{scheme}'; choose from {tuple(SCHEMES)}")
    r3 = q1 - q - 0.5 * (_dot(b, u1) - _dot(b, u))
    norms = np.stack(
        [np.sqrt(_dot(r1, r1)), np.sqrt(_dot(r2, r2)), np.abs(r3)], axis=0
    )
    return np.max(norms, axis=0)


class Integrator:
    """Fixed-step batched integrator of one scheme or a stack of schemes, with predictor memory.

    The only place where a scheme name selects its propagator table
    (`SCHEMES[scheme](ops.lam, tau)`): the exponential scheme steps on the
    wave group, the midpoint scheme on the Cayley table, both through
    step_exponential_sav.  A tuple of S names stacks their tables into one
    whose arrays are (S, 1, K); the state is then (S, B, K) with q of shape
    (S, B), and one step advances every scheme on the same increment, which
    broadcasts from (B, K).  Each slice s takes the bits the unstacked
    scheme s would.  `step` hands the stepper its only reference to the
    state, so an Integrator whose step raised holds none: callers abort.

    Ownership: a state that `step` made is the Integrator's alone until
    someone reads `state`, so the next step may write over its nodal cache,
    taking the array that holds nodal u and f(u) as its analysis buffer
    (step_exponential_sav, `owned`).  Reading `state` shares the state with
    the reader, as does setting it or passing it to the constructor: the
    next step then writes over none of its arrays and analyses a fresh
    buffer.
    """

    def __init__(self, scheme, tau, problem, ops, state, predictor="identity", trace_fn=None):
        names = (scheme,) if isinstance(scheme, str) else tuple(scheme)
        for name in names:
            if name not in SCHEMES:
                raise ValueError(f"unknown scheme '{name}'; choose from {tuple(SCHEMES)}")
        if predictor not in PREDICTORS:
            raise ValueError(f"unknown predictor '{predictor}'; choose from {PREDICTORS}")
        self.problem = problem
        self.ops = ops
        self.state = state  # the caller may hold it: shared
        self.trace_fn = trace_fn
        # The extrapolation predictor's memory u_{n-1}; the identity predictor keeps none.
        self.u_prev = state.u.copy() if predictor == "extrapolation" else None
        tables = [SCHEMES[name](ops.lam, tau) for name in names]
        self.table = tables[0] if isinstance(scheme, str) else WaveGroupTable(tables[0].tau, *(
            np.stack([getattr(t, f) for t in tables])[:, None]
            for f in ("lam", "cos", "sin", "sqrt_lam", "a1", "a2")))

    @property
    def state(self):
        """The current state, shared from here on: no later step writes over its arrays."""
        self._owned = False
        return self._state

    @state.setter
    def state(self, state):
        self._state, self._owned = state, False

    def _take_state(self):
        state, self._state = self._state, None
        return state

    def step(self, dw, diagnostics=False):
        u = u_hat = self._state.u
        if self.u_prev is not None:
            u_hat = 0.5 * (3.0 * u - self.u_prev)
            self.u_prev = u
        owned = self._owned
        self._state, diag = step_exponential_sav(
            self._take_state(), dw, self.table, self.problem, self.ops,
            u_hat=u_hat, diagnostics=diagnostics, trace_fn=self.trace_fn, owned=owned,
        )
        self._owned = True
        return diag

    def energy(self):
        """Modified energy V per path; a state's cached V itself, not a copy, if it has one."""
        s = self._state
        return modified_energy(s.u, s.v, s.q, self.ops.lam) if s.V is None else s.V

    def sanitize(self, excluded):
        """Mark bad paths in `excluded` and park them at a benign state.

        A path is bad when its modified energy V is not <= ENERGY_GUARD: above
        the guard, inf or NaN.  A state whose `energy_sum` is at most
        ENERGY_GUARD/2 has no bad path (SavState), so it returns at once;
        otherwise, a hand-built state included, it compares each path's V
        (`energy`).  The parked state is built from new arrays, so it carries
        no cache: the next step synthesizes it afresh.  `excluded` holds one
        flag per path, (S, B) for a stack of S schemes; a (1, B) stack, such
        as a reference shared by S schemes, marks a bad path in all S.
        """
        state = self._state
        total = state.energy_sum
        if total is not None and total <= _HEALTHY_SUM:
            return excluded
        ok = self.energy() <= ENERGY_GUARD
        if ok.all():
            return excluded
        bad = ~ok
        if (bad & ~excluded).any():
            excluded |= bad
            keep = ~bad[..., None]
            self._state = SavState(
                np.where(keep, state.u, 0.0),
                np.where(keep, state.v, 0.0),
                np.where(bad, np.sqrt(self.problem.delta0), state.q),
                state.n,
            )
            if self.u_prev is not None:
                self.u_prev = np.where(keep, self.u_prev, 0.0)
        return excluded

