"""The fused SAV step: shared synthesis, one stacked analysis, carried cache.

A step synthesizes u once, evaluates a pointwise map shared by f and g once,
analyses [f(u); g(u)*dW] in one `project` call, and hands nodal u_{n+1} and
F(u_{n+1}) + delta0 from its diagnostics to the next step.  These tests pin
that the cache changes no bit of any result, that code building states
outside a stepper drops it, and how many transforms a step costs.
"""

from dataclasses import replace

import numpy as np
import pytest

from savwave import cli, fem
from savwave.harness import _batched_initial
from savwave.model import (
    Discretization,
    _of_u,
    make_problem,
    spectral_discretization,
)
from savwave.noise import RngStream, trace_operator
from savwave.schemes import (
    Integrator,
    SavState,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from savwave.spectral import wave_group_table

TAU = 2.0**-7
BATCH = 5


def setup(backend, f="sine", g="sine"):
    """(problem, ops, initial state, noise map) for a small batch on one backend."""
    if backend == "spectral":
        ops = spectral_discretization(24)
        problem = make_problem(f=f, g=g, modes=24)
        return problem, ops, _batched_initial(problem, ops, BATCH), None
    system = fem.assemble(16)
    ops = system.discretization
    problem = make_problem(f=f, g=g, modes=system.dim)
    state = _batched_initial(problem, ops, BATCH, fem.initial_coefficients(system, problem))
    return problem, ops, state, fem.noise_projection_matrix(system, system.dim)


def increments(problem, cmap, steps, seed=4):
    stream = RngStream(seed, 0)
    scale = np.sqrt(problem.noise.q * TAU)
    out = []
    for _ in range(steps):
        dw = stream.normals((BATCH, problem.noise.modes)) * scale
        out.append(dw if cmap is None else dw @ cmap.T)
    return out


def step(scheme, state, dw, problem, ops, u_hat=None, diagnostics=True):
    trace_fn = trace_operator(problem.noise, ops)
    if scheme == "exponential":
        return step_exponential_sav(state, dw, wave_group_table(ops.lam, TAU), problem, ops,
                                    u_hat=u_hat, diagnostics=diagnostics, trace_fn=trace_fn)
    return step_midpoint_sav(state, dw, TAU, problem, ops, u_hat=u_hat,
                             diagnostics=diagnostics, trace_fn=trace_fn)


def uncached(state):
    return SavState(state.u, state.v, state.q, state.n)


def assert_same_step(a, b):
    (sa, da), (sb, db) = a, b
    for name in ("u", "v", "q", "vals", "rad"):
        assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
    for name in ("V", "V1", "aux_gap", "energy_residual", "trace_term", "denominator"):
        assert np.array_equal(getattr(da, name), getattr(db, name)), name


BACKENDS = ["spectral", "fem"]
SCHEMES = ["exponential", "midpoint"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_carried_cache_is_bit_exact(scheme, backend):
    problem, ops, state, cmap = setup(backend)
    dws = increments(problem, cmap, 3)
    state, _ = step(scheme, state, dws[0], problem, ops)
    state, _ = step(scheme, state, dws[1], problem, ops)
    assert state.vals is not None and state.rad is not None
    carried = step(scheme, state, dws[2], problem, ops, u_hat=state.u)
    fresh_state = uncached(state)
    fresh = step(scheme, fresh_state, dws[2], problem, ops, u_hat=fresh_state.u)
    assert_same_step(carried, fresh)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_without_diagnostics_carries_nothing(scheme, backend):
    problem, ops, state, cmap = setup(backend)
    new, diag = step(scheme, state, increments(problem, cmap, 1)[0], problem, ops,
                     diagnostics=False)
    assert diag is None and new.vals is None and new.rad is None


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sanitize_drops_the_cache_of_a_parked_path(scheme):
    problem, ops, state, cmap = setup("spectral")
    dws = increments(problem, cmap, 2)
    integ = Integrator(scheme, TAU, problem, ops, state)
    integ.step(dws[0], diagnostics=True)
    s = integ.state
    v = s.v.copy()
    v[1] = 1e7  # energy far above the guard; u, hence the cache, unchanged
    integ.state = SavState(s.u, v, s.q, s.n, vals=s.vals, rad=s.rad)
    excluded = integ.sanitize(np.zeros(BATCH, dtype=bool))
    assert excluded.tolist() == [False, True, False, False, False]
    parked = integ.state
    assert parked.vals is None and parked.rad is None
    assert np.all(parked.u[1] == 0.0)
    integ.step(dws[1], diagnostics=True)
    fresh = SavState(parked.u.copy(), parked.v.copy(), parked.q.copy(), parked.n)
    expect, _ = step(scheme, fresh, dws[1], problem, ops, u_hat=fresh.u)
    assert np.array_equal(integ.state.u, expect.u)
    assert np.array_equal(integ.state.v, expect.v)
    assert np.array_equal(integ.state.q, expect.q)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_extrapolated_drift_is_synthesized_from_u_hat(scheme):
    problem, ops, state, cmap = setup("spectral")
    dws = increments(problem, cmap, 2)
    prev = state
    state, _ = step(scheme, state, dws[0], problem, ops)
    u_hat = 0.5 * (3.0 * state.u - prev.u)
    new, _ = step(scheme, state, dws[1], problem, ops, u_hat=u_hat)
    ref, _ = step(scheme, uncached(state), dws[1], problem, ops, u_hat=u_hat)
    assert np.array_equal(new.u, ref.u) and np.array_equal(new.q, ref.q)
    table = wave_group_table(ops.lam, TAU)
    res = substitution_residual(scheme, state, new, dws[1], problem, ops,
                                table=table, tau=TAU, u_hat=u_hat)
    assert np.max(res) <= 1e-10
    # the same step read as if it had used u_n for the drift does not solve
    wrong = substitution_residual(scheme, state, new, dws[1], problem, ops,
                                  table=table, tau=TAU, u_hat=state.u)
    assert np.max(wrong) > 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_state_broadcasts_against_a_batch_of_increments(scheme):
    problem, ops, batched, cmap = setup("spectral")
    dws = increments(problem, cmap, 1)[0]
    single = SavState(batched.u[0], batched.v[0], batched.q[0])
    new, diag = step(scheme, single, dws, problem, ops)
    ref, ref_diag = step(scheme, uncached(batched), dws, problem, ops)
    assert new.u.shape == ref.u.shape == (BATCH, ops.modes)
    assert np.allclose(new.u, ref.u, rtol=0, atol=1e-14)
    assert np.allclose(diag.V, ref_diag.V, rtol=1e-14, atol=0)


def count_transforms(monkeypatch, backend, predictor, diagnostics, steps=4):
    """Per-step nodal/project calls of a production integrator after its first step."""
    problem, ops, state, cmap = setup(backend)
    counts = {"nodal": 0, "project": 0}
    for name in counts:
        original = getattr(Discretization, name)

        def counted(self, x, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(Discretization, name, counted)
    trace_fn = trace_operator(problem.noise, ops) if diagnostics else None
    integ = Integrator("exponential", TAU, problem, ops, state, predictor, trace_fn=trace_fn)
    dws = increments(problem, cmap, steps + 1)
    integ.step(dws[0], diagnostics=diagnostics)
    for name in counts:
        counts[name] = 0
    for dw in dws[1:]:
        integ.step(dw, diagnostics=diagnostics)
    return {name: n / steps for name, n in counts.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("diagnostics", [False, True])
def test_identity_step_costs_two_syntheses_and_one_analysis(monkeypatch, backend, diagnostics):
    counts = count_transforms(monkeypatch, backend, "identity", diagnostics)
    assert counts == {"nodal": 2.0, "project": 1.0}


@pytest.mark.parametrize("diagnostics", [False, True])
def test_extrapolation_step_synthesizes_u_hat_too(monkeypatch, diagnostics):
    counts = count_transforms(monkeypatch, "spectral", "extrapolation", diagnostics)
    assert counts == {"nodal": 3.0, "project": 1.0}


def counting(fn, calls):
    def wrapped(u):
        calls.append(1)
        return fn(u)

    return wrapped


@pytest.mark.parametrize("shared", [True, False])
def test_pointwise_map_shared_by_f_and_g_is_evaluated_once(shared):
    base = make_problem(f="sine", g="sine", modes=24)
    assert base.g_is_f
    f_calls, g_calls, F_calls = [], [], []
    f = counting(np.sin, f_calls)
    g = _of_u(f if shared else counting(np.sin, g_calls))
    problem = replace(base, f=f, g=g, Ftilde=counting(base.Ftilde, F_calls))
    assert problem.g_is_f is shared
    ops = spectral_discretization(24)
    integ = Integrator("exponential", TAU, problem, ops, _batched_initial(problem, ops, BATCH))
    for dw in increments(problem, None, 3):
        integ.step(dw, diagnostics=True)
    assert len(f_calls) == 3 and len(g_calls) == (0 if shared else 3)
    assert len(F_calls) == 1 + 3  # q_0, then the diagnostics of each step


def test_registry_pairs_share_only_identical_maps():
    pairs = {(f, g): make_problem(f=f, g=g, modes=8).g_is_f
             for f in ("zero", "linear", "sine", "cubic")
             for g in ("zero", "constant", "sine", "linear")}
    assert {k for k, v in pairs.items() if v} == {
        ("zero", "zero"), ("linear", "linear"), ("sine", "sine")}


def test_fem_simulate_step_zero_trace_term_is_finite():
    config = cli.RunConfig(backend="fem", elements=16, T=2.0**-5, tau=2.0**-7)
    _, records = cli._trajectory(config)
    assert np.isfinite(records[0].trace_term) and records[0].trace_term > 0.0
    system = fem.assemble(16)
    ops = system.discretization
    problem = make_problem(modes=16)
    u0c, _ = fem.initial_coefficients(system, problem)
    expect = trace_operator(problem.noise, ops)(problem.g(ops.nodal(u0c), None))
    assert records[0].trace_term == pytest.approx(float(expect), rel=1e-14)
