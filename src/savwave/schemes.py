"""Semi-implicit auxiliary-variable integrators for the stochastic wave system.

Both steppers advance the triple (u, v, q), where q tracks
sqrt(F(u) + delta0) and the drift enters only through the normalized
direction b = f(u_hat)/sqrt(F(u_hat) + delta0).  The implicit coupling
between u_{n+1} and q_{n+1} is a rank-one perturbation of a diagonal
operator, so each step is solved exactly by one scalar division whose
denominator is >= 1 by construction.  Both steppers satisfy, path by path,

    V_{n+1} - V_n = <v_n, G_n> + 1/2 |G_n|^2,
    V = 1/2 |u|_{H1}^2 + 1/2 |v|_{L2}^2 + q^2,   G_n = g(u_n, du_n) dW_n,

which yields the linear-in-time growth of the averaged energy after taking
expectations.  All state arrays have shape (..., K); leading axes batch
independent realizations through identical arithmetic.

`Integrator` is the one trajectory engine: it alone maps a scheme name to its
stepper and propagator table, and it holds the predictor memory.  Every
driver (`run_trajectory`, the `simulate` command on either backend, the Monte
Carlo studies and the invariant checks) steps through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    apply_g_core,
    diffusion_values,
    drift_core,
    nodal_radicand,
    spectral_discretization,
)
from .noise import sample_increment, trace_operator
from .spectral import wave_group_table

__all__ = [
    "BlowUpError",
    "ENERGY_GUARD",
    "SavState",
    "StepDiagnostics",
    "RunRecord",
    "Integrator",
    "PREDICTORS",
    "SCHEMES",
    "initial_state",
    "modified_energy",
    "state_norm",
    "pathwise_energy_residual",
    "step_exponential_sav",
    "step_midpoint_sav",
    "substitution_residual",
    "run_trajectory",
]

PREDICTORS = ("identity", "extrapolation")
SCHEMES = ("exponential", "midpoint")

# Modified energy beyond which a path counts as blown up: run_trajectory
# aborts, Monte Carlo studies park the path.  The value itself is arbitrary
# plumbing.
ENERGY_GUARD = 1e12


class BlowUpError(RuntimeError):
    """A trajectory left the finite/bounded-energy regime."""


@dataclass(frozen=True)
class SavState:
    """Displacement/velocity coefficients plus the scalar auxiliary variable.

    `vals` (nodal values of u) and `rad` (F(u) + delta0) are a cache that a
    stepper with diagnostics on, or an initializer, hands to the next step so
    it need not recompute them.  They must describe `u` exactly; code that
    builds a state from modified arrays leaves them None.
    """

    u: np.ndarray
    v: np.ndarray
    q: np.ndarray
    n: int = 0
    vals: np.ndarray | None = field(default=None, repr=False, compare=False)
    rad: np.ndarray | None = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class RunRecord:
    """Per-step trajectory record emitted by run_trajectory."""

    step: int
    time: float
    V: float
    V1: float
    q: float
    aux_gap: float
    energy_residual: float
    trace_term: float


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def modified_energy(u, v, q, lam):
    """V = 1/2 sum lam*u^2 + 1/2 sum v^2 + q^2."""
    return 0.5 * _dot(lam * u, u) + 0.5 * _dot(v, v) + np.asarray(q) ** 2


def state_norm(state, lam):
    """Graph norm sqrt(|u|_{H1}^2 + |v|_{L2}^2 + q^2) used to scale residuals."""
    return np.sqrt(_dot(lam * state.u, state.u) + _dot(state.v, state.v) + state.q**2)


def pathwise_energy_residual(state_n, state_next, g_increment, lam):
    """Defect of V_{n+1} - V_n - <v_n, G_n> - 1/2 |G_n|^2 for one step.

    Zero up to round-off for both steppers; with g = 0 it reduces to exact
    conservation of the modified energy.
    """
    v_old = modified_energy(state_n.u, state_n.v, state_n.q, lam)
    v_new = modified_energy(state_next.u, state_next.v, state_next.q, lam)
    return v_new - v_old - _dot(state_n.v, g_increment) - 0.5 * _dot(g_increment, g_increment)


def initial_state(u, v, problem, ops):
    """State at (u, v) with q = sqrt(F(u) + delta0), i.e. zero aux gap, and its cache seeded."""
    vals = ops.nodal(u)
    rad = nodal_radicand(vals, problem, ops)
    return SavState(u, v, np.sqrt(rad), vals=vals, rad=rad)


def _check_finite(u, v, q, n):
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(q))):
        raise BlowUpError(f"non-finite state produced at step {n}")


def _step_inputs(state, dw, problem, ops, u_hat):
    """Drift direction b, noise increment G = P_K g(u)*dW and nodal g(u) of one step.

    u is synthesized once (or taken from the state's cache) and serves both
    g(u) and, when u_hat is u, the drift f(u_hat) and F(u_hat); a diffusion
    that is the drift (Problem.g_is_f, e.g. f = g = sine) is evaluated once.
    Both analyses share one `project` call on the stacked [f; g*dW] values.
    """
    u = state.u
    vals = ops.nodal(u) if state.vals is None else state.vals
    if u_hat is None or u_hat is u:
        u_vals, rad = vals, state.rad
    else:
        u_vals, rad = ops.nodal(u_hat), None
    if rad is None:
        rad = nodal_radicand(u_vals, problem, ops)
    f_vals = problem.f(u_vals)
    if u_vals is vals and problem.g_is_f:
        g_vals = f_vals
    else:
        grad = ops.nodal_deriv(u) if problem.uses_gradient else None
        g_vals = problem.g(vals, grad)
    g_dw = g_vals * ops.nodal(dw)
    if f_vals.shape != g_dw.shape:
        f_vals, g_dw = np.broadcast_arrays(f_vals, g_dw)
    m = g_dw.shape[-1]
    coeffs = ops.project(np.concatenate([f_vals.reshape(-1, m), g_dw.reshape(-1, m)]))
    drift, g_inc = coeffs.reshape((2,) + g_dw.shape[:-1] + coeffs.shape[-1:])
    return drift / np.sqrt(rad)[..., None], g_inc, g_vals


def _diagnostics(problem, ops, state, new_u, new_v, new_q, g_inc, denom, trace_fn, g_vals):
    """(new state carrying nodal u_{n+1} and F(u_{n+1}) + delta0, StepDiagnostics)."""
    lam = ops.lam
    v_old = modified_energy(state.u, state.v, state.q, lam)
    v_new = modified_energy(new_u, new_v, new_q, lam)
    residual = v_new - v_old - _dot(state.v, g_inc) - 0.5 * _dot(g_inc, g_inc)
    vals_new = ops.nodal(new_u)
    rad_new = nodal_radicand(vals_new, problem, ops)
    f_new = rad_new - problem.delta0
    aux_gap = np.abs(np.sqrt(rad_new) - new_q)
    v1 = 0.5 * _dot(lam * new_u, new_u) + 0.5 * _dot(new_v, new_v) + f_new
    if trace_fn is None:
        trace = np.full(np.shape(new_q), np.nan)
    else:
        trace = trace_fn(g_vals)
    new_state = SavState(new_u, new_v, new_q, state.n + 1, vals=vals_new, rad=rad_new)
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
    state, dw, table, problem, ops, u_hat=None, diagnostics=True, trace_fn=None
):
    """One step of the exponential-integrator scheme.

    The linear part is propagated by the exact wave group; the implicit
    average (q_n + q_{n+1})/2 is eliminated against the q-update, leaving a
    rank-one solve with denominator 1 + 1/4 <b, a1*b> >= 1 since a1 >= 0
    mode by mode.

    Cost per step: two syntheses (dW, and u or, with `diagnostics`,
    u_{n+1}; an extrapolated u_hat adds a third), one stacked analysis of
    [f(u_hat); g(u) dW], and one evaluation of a pointwise map that f and g
    share.  With `diagnostics`, the nodal values of u_{n+1} and
    F(u_{n+1}) + delta0 that they compute ride on the returned state, so
    the next step reuses them.
    """
    u, v, q = state.u, state.v, state.q
    b, g_inc, g_vals = _step_inputs(state, dw, problem, ops, u_hat)

    bu = _dot(b, u)
    gamma = (
        table.cos * u
        + table.a2 * (v + g_inc)
        - table.a1 * b * q[..., None]
        + 0.25 * table.a1 * b * bu[..., None]
    )
    denom = 1.0 + 0.25 * _dot(b, table.a1 * b)
    if np.any(denom < 1.0):
        raise AssertionError("rank-one denominator dropped below 1")
    sigma = _dot(b, gamma) / denom
    new_u = gamma - 0.25 * table.a1 * b * sigma[..., None]
    new_q = q + 0.5 * (_dot(b, new_u) - bu)
    q_mid = 0.5 * (q + new_q)
    new_v = (
        -table.sqrt_lam * table.sin * u
        + table.cos * (v + g_inc)
        - table.a2 * b * q_mid[..., None]
    )
    _check_finite(new_u, new_v, new_q, state.n)
    if not diagnostics:
        return SavState(new_u, new_v, new_q, state.n + 1), None
    return _diagnostics(
        problem, ops, state, new_u, new_v, new_q, g_inc, denom, trace_fn, g_vals
    )


def step_midpoint_sav(
    state,
    dw,
    tau,
    problem,
    ops,
    u_hat=None,
    diagnostics=True,
    trace_fn=None,
    balancing=True,
):
    """One step of the midpoint scheme.

    The eliminated displacement equation reads
        (I + tau^2/4 lam) u_{n+1} + tau^2/8 b <b, u_{n+1}> = R_n,
    solved by Sherman-Morrison with denominator >= 1.  The velocity is then
    recovered from the displacement update identity, which makes that
    equation hold exactly; the residual of the eliminated velocity equation
    is what substitution_residual measures.  `balancing=False` drops the
    (tau/2) g dW term from the displacement update (a deliberately broken
    variant: it destroys the energy identity and exists so that the check
    harness can demonstrate the term is load-bearing).

    Per-step transform and pointwise cost as for step_exponential_sav.
    """
    u, v, q = state.u, state.v, state.q
    lam = ops.lam
    b, g_inc, g_vals = _step_inputs(state, dw, problem, ops, u_hat)

    tau2 = tau * tau
    m_inv = 1.0 / (1.0 + 0.25 * tau2 * lam)
    bu = _dot(b, u)
    g_in_u = tau * g_inc if balancing else 0.5 * tau * g_inc
    r_vec = (
        (1.0 - 0.25 * tau2 * lam) * u
        + tau * v
        + g_in_u
        - 0.5 * tau2 * b * q[..., None]
        + 0.125 * tau2 * b * bu[..., None]
    )
    w = m_inv * b
    r = m_inv * r_vec
    denom = 1.0 + 0.125 * tau2 * _dot(b, w)
    if np.any(denom < 1.0):
        raise AssertionError("rank-one denominator dropped below 1")
    sigma = _dot(b, r) / denom
    new_u = r - 0.125 * tau2 * w * sigma[..., None]
    new_v = (2.0 / tau) * (new_u - u) - v - (g_inc if balancing else 0.0)
    new_q = q + 0.5 * (_dot(b, new_u) - bu)
    _check_finite(new_u, new_v, new_q, state.n)
    if not diagnostics:
        return SavState(new_u, new_v, new_q, state.n + 1), None
    return _diagnostics(
        problem, ops, state, new_u, new_v, new_q, g_inc, denom, trace_fn, g_vals
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
        raise ValueError(f"unknown scheme '{scheme}'; choose from {SCHEMES}")
    r3 = q1 - q - 0.5 * (_dot(b, u1) - _dot(b, u))
    norms = np.stack(
        [np.sqrt(_dot(r1, r1)), np.sqrt(_dot(r2, r2)), np.abs(r3)], axis=0
    )
    return np.max(norms, axis=0)


class Integrator:
    """Fixed-step batched integrator of one scheme, with predictor memory.

    The only place where a scheme name selects its stepper and table: the
    exponential scheme steps on the wave-group table of `ops.lam`, the
    midpoint scheme on tau itself.  `balancing=False` is the midpoint
    mutation hook (see step_midpoint_sav).
    """

    def __init__(self, scheme, tau, problem, ops, state, predictor="identity",
                 balancing=True, trace_fn=None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{scheme}'; choose from {SCHEMES}")
        if predictor not in PREDICTORS:
            raise ValueError(f"unknown predictor '{predictor}'; choose from {PREDICTORS}")
        self.scheme = scheme
        self.tau = tau
        self.problem = problem
        self.ops = ops
        self.state = state
        self.predictor = predictor
        self.balancing = balancing
        self.trace_fn = trace_fn
        self.u_prev = state.u.copy()
        self.table = wave_group_table(ops.lam, tau) if scheme == "exponential" else None

    def step(self, dw, diagnostics=False):
        u = self.state.u
        u_hat = u if self.predictor == "identity" else 0.5 * (3.0 * u - self.u_prev)
        self.u_prev = u
        if self.scheme == "exponential":
            self.state, diag = step_exponential_sav(
                self.state, dw, self.table, self.problem, self.ops,
                u_hat=u_hat, diagnostics=diagnostics, trace_fn=self.trace_fn,
            )
        else:
            self.state, diag = step_midpoint_sav(
                self.state, dw, self.tau, self.problem, self.ops,
                u_hat=u_hat, diagnostics=diagnostics, trace_fn=self.trace_fn,
                balancing=self.balancing,
            )
        return diag

    def energy(self):
        return modified_energy(self.state.u, self.state.v, self.state.q, self.ops.lam)

    def sanitize(self, excluded):
        """Mark paths beyond the energy guard and park them at a benign state.

        The parked state is built from new arrays, so it carries no cached
        nodal values or radicand: the next step synthesizes them afresh.
        """
        v = self.energy()
        bad = ~np.isfinite(v) | (v > ENERGY_GUARD)
        if np.any(bad & ~excluded):
            excluded |= bad
            keep = ~bad[..., None]
            self.state = SavState(
                np.where(keep, self.state.u, 0.0),
                np.where(keep, self.state.v, 0.0),
                np.where(bad, np.sqrt(self.problem.delta0), self.state.q),
                self.state.n,
            )
            self.u_prev = np.where(keep, self.u_prev, 0.0)
        return excluded


def run_trajectory(
    problem,
    scheme="exponential",
    predictor="identity",
    tau=2.0**-7,
    n_steps=128,
    rng=None,
    ops=None,
    guard=ENERGY_GUARD,
    initial=None,
    noise_map=None,
):
    """Integrate one path and return a RunRecord per step, initial state included.

    Spectral by default: sine `ops` of u0's modes, initial coefficients
    (u0, v0), sine noise zero-padded to the spatial modes.  A finite element
    run passes its `ops`, `initial` = fem.initial_coefficients and
    `noise_map` = fem.noise_projection_matrix (sine increments to
    eigen-coefficients).  q_0 = sqrt(F(u_0)+delta0) exactly (zero initial
    gap); the run aborts with BlowUpError once V exceeds `guard`.
    """
    if ops is None:
        ops = spectral_discretization(problem.u0.modes)
    if noise_map is None and problem.noise.modes > ops.modes:
        raise ValueError("noise carries more modes than the spatial truncation")
    if initial is None:
        initial = (problem.u0.coeffs.copy(), problem.v0.coeffs.copy())
    trace_fn = trace_operator(problem.noise, ops)
    state = initial_state(*initial, problem, ops)
    integ = Integrator(scheme, tau, problem, ops, state, predictor, trace_fn=trace_fn)

    # Elementwise sums, not modified_energy's einsum: on a finite element u0
    # they differ in the last bit, and the simulate CSVs carry this form.
    v_mod = float(0.5 * np.sum(ops.lam * state.u**2) + 0.5 * np.sum(state.v**2) + state.q**2)
    records = [RunRecord(
        step=0, time=0.0, V=v_mod,
        V1=v_mod - float(state.q**2) + float(state.rad - problem.delta0),
        q=float(state.q), aux_gap=0.0, energy_residual=0.0,
        trace_term=float(trace_fn(diffusion_values(state.u, problem, ops))),
    )]
    for n in range(n_steps):
        dw = sample_increment(problem.noise, tau, rng).coeffs
        if noise_map is not None:
            dw = noise_map @ dw
        elif problem.noise.modes < ops.modes:
            dw = np.concatenate([dw, np.zeros(ops.modes - problem.noise.modes)])
        diag = integ.step(dw, diagnostics=True)
        if diag.V > guard:
            raise BlowUpError(f"modified energy {diag.V:.3e} exceeded {guard:.1e} at step {n + 1}")
        records.append(RunRecord(
            step=n + 1, time=(n + 1) * tau, V=float(diag.V), V1=float(diag.V1),
            q=float(diag.q), aux_gap=float(diag.aux_gap),
            energy_residual=float(diag.energy_residual), trace_term=float(diag.trace_term),
        ))
    return records
