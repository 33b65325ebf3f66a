"""The fused SAV step: shared synthesis, one stacked analysis, carried cache.

A step synthesizes u once, evaluates the drift pair (f, Ftilde) jointly once
(Problem.drift_values; g takes f's values when g is f), analyses
[f(u); g(u)*dW] in one `project` call, and hands nodal u_{n+1}, f(u_{n+1}),
F(u_{n+1}) + delta0 and V_{n+1} from its diagnostics to the next step.  Every
step also carries the batch's summed energy, which spares a healthy batch the
finiteness scan and `Integrator.sanitize` its per-path energies.  These tests
pin that the cache changes no bit of any result, that code building states
outside a stepper drops it, and how many transforms and pointwise maps a step
costs.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from savwave import cli, fem, model, schemes
from savwave.harness import _batched_initial
from savwave.model import (
    Discretization,
    ModelViolationError,
    Problem,
    make_problem,
    spectral_discretization,
)
from savwave.noise import RngStream, trace_operator
from savwave.schemes import (
    ENERGY_GUARD,
    PREDICTORS,
    BlowUpError,
    Integrator,
    SavState,
    initial_state,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from savwave.spectral import SpectralField, wave_group_table

TAU = 2.0**-7
BATCH = 5


def setup(backend, f="sine", g="sine"):
    """(problem, ops, initial state, noise map) for a small batch on one backend."""
    if backend == "spectral":
        ops = spectral_discretization(24)
        problem = make_problem(f=f, g=g, modes=24)
        return problem, ops, _batched_initial(problem, ops, BATCH), None
    ops = fem.assemble(16)
    problem = make_problem(f=f, g=g, modes=ops.modes)
    state = _batched_initial(problem, ops, BATCH, fem.initial_coefficients(ops, problem))
    return problem, ops, state, fem.noise_projection_matrix(ops, ops.modes)


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
    for name in ("u", "v", "q", "vals", "rad", "fvals", "V", "energy_sum"):
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
    assert all(x is not None for x in (state.vals, state.rad, state.fvals, state.V))
    assert np.array_equal(state.V, schemes.modified_energy(state.u, state.v, state.q, ops.lam))
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
    assert diag is None and new.vals is None and new.rad is None and new.fvals is None
    assert new.V is None and new.energy_sum is not None


# A path's v set to 1e7 puts V far above the guard; 1e200 makes V = inf from
# a finite state.  Either way u, hence the cache, is unchanged.
@pytest.mark.parametrize("scheme, speed", [
    *(pytest.param(scheme, 1e7, id=scheme) for scheme in SCHEMES),
    *(pytest.param(scheme, 1e200, id=f"{scheme}-inf") for scheme in SCHEMES),
])
def test_sanitize_drops_the_cache_of_a_parked_path(scheme, speed):
    problem, ops, state, cmap = setup("spectral")
    dws = increments(problem, cmap, 2)
    integ = Integrator(scheme, TAU, problem, ops, state)
    integ.step(dws[0], diagnostics=True)
    s = integ.state
    v = s.v.copy()
    v[1] = speed
    integ.state = SavState(s.u, v, s.q, s.n, vals=s.vals, rad=s.rad, fvals=s.fvals)
    assert np.isfinite(integ.state.v).all()
    assert (integ.energy()[1] == np.inf) == (speed == 1e200)
    excluded = integ.sanitize(np.zeros(BATCH, dtype=bool))
    assert excluded.tolist() == [False, True, False, False, False]
    parked = integ.state
    assert parked.vals is None and parked.rad is None and parked.fvals is None
    assert parked.V is None and parked.energy_sum is None
    assert np.all(parked.u[1] == 0.0)
    integ.step(dws[1], diagnostics=True)
    fresh = SavState(parked.u.copy(), parked.v.copy(), parked.q.copy(), parked.n)
    expect, _ = step(scheme, fresh, dws[1], problem, ops, u_hat=fresh.u)
    assert np.array_equal(integ.state.u, expect.u)
    assert np.array_equal(integ.state.v, expect.v)
    assert np.array_equal(integ.state.q, expect.q)


def test_stacked_sanitize_parks_per_scheme_and_path():
    # Scheme 1's path 2 is non-finite in a hand-built (2, B, K) stack: only
    # that (scheme, path) is excluded and parked, and the next stacked step
    # gives each scheme the bits of its own unstacked integrator.
    problem, ops, state, cmap = setup("spectral")
    v = np.stack([state.v, state.v])
    v[1, 2] = np.nan
    stacked = Integrator(("exponential", "midpoint"), TAU, problem, ops,
                         SavState(np.stack([state.u, state.u]), v, np.stack([state.q, state.q])))
    excluded = stacked.sanitize(np.zeros((2, BATCH), dtype=bool))
    assert np.argwhere(excluded).tolist() == [[1, 2]]
    assert np.all(stacked.state.u[1, 2] == 0.0) and np.all(stacked.state.u[0] == state.u)
    dw = increments(problem, cmap, 1)[0]
    stacked.step(dw)
    for s, (scheme, row_v) in enumerate(zip(("exponential", "midpoint"), v)):
        single = Integrator(scheme, TAU, problem, ops, SavState(state.u, row_v, state.q))
        assert single.sanitize(np.zeros(BATCH, dtype=bool)).tolist() == excluded[s].tolist()
        single.step(dw)
        for name in ("u", "v", "q"):
            assert getattr(stacked.state, name)[s].tobytes() == \
                getattr(single.state, name).tobytes(), (scheme, name)


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


def count_drift_pairs(monkeypatch):
    """Calls of Problem.drift_values, the joint (f, Ftilde) map, from here on."""
    calls = []
    original = Problem.drift_values

    def counted(self, u, out=None):
        calls.append(1)
        return original(self, u, out)

    monkeypatch.setattr(Problem, "drift_values", counted)
    return calls


@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("shared", [True, False])
def test_drift_pair_is_evaluated_once_per_step_and_serves_g(monkeypatch, shared, diagnostics):
    base = make_problem(f="sine", g="sine", modes=24)
    assert base.g_is_f
    f_calls, g_calls, F_calls = [], [], []
    f = counting(np.sin, f_calls)
    g = f if shared else counting(np.sin, g_calls)
    problem = replace(base, f=f, g=g, Ftilde=counting(base.Ftilde, F_calls))
    assert problem.g_is_f is shared
    pairs = count_drift_pairs(monkeypatch)
    ops = spectral_discretization(24)
    integ = Integrator("exponential", TAU, problem, ops, _batched_initial(problem, ops, BATCH))
    assert len(pairs) == 1  # q_0 and the seeded cache
    for dw in increments(problem, None, 3):
        integ.step(dw, diagnostics=diagnostics)
    # One pair per step: at u_{n+1} in the diagnostics, else at u (the first
    # step then reads the pair initial_state cached).  f runs only inside the
    # pair, so a diffusion that is f is never evaluated on its own.
    assert len(pairs) == len(f_calls) == len(F_calls) == (1 + 3 if diagnostics else 3)
    assert len(g_calls) == (0 if shared else 3)


def test_extrapolated_step_adds_one_pair_at_u_hat(monkeypatch):
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator("exponential", TAU, problem, ops, state, "extrapolation")
    pairs = count_drift_pairs(monkeypatch)
    for dw in increments(problem, cmap, 3):
        integ.step(dw, diagnostics=True)
    assert len(pairs) == 2 * 3


def counting_ufunc(ufunc, calls, name):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return ufunc(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("replaced", [False, True])
def test_sine_pair_is_one_tan_unless_a_map_was_replaced(monkeypatch, replaced):
    problem, ops, _, cmap = setup("spectral")
    f_calls = []
    if replaced:
        problem = replace(problem, f=counting(np.sin, f_calls))
    dws = increments(problem, cmap, 3)
    state = _batched_initial(problem, ops, BATCH)
    integ = Integrator("exponential", TAU, problem, ops, state)  # its table uses sin and cos
    f_calls.clear()
    calls = {"tan": 0, "sin": 0, "cos": 0}
    for name in calls:
        monkeypatch.setattr(np, name, counting_ufunc(getattr(np, name), calls, name))
    integ.state = _batched_initial(problem, ops, BATCH)
    for dw in dws:
        integ.step(dw, diagnostics=True)
    if replaced:
        # the generic pair: the replaced f, and Ftilde = 1 - cos as written
        assert calls == {"tan": 0, "sin": 0, "cos": 1 + 3} and len(f_calls) == 1 + 3
    else:
        assert calls == {"tan": 1 + 3, "sin": 0, "cos": 0}


def count_energy_checks(monkeypatch):
    """Calls of the per-path energy and the entrywise finiteness scan from here on."""
    calls = {"modified_energy": 0, "isfinite": 0}
    monkeypatch.setattr(schemes, "modified_energy",
                        counting_ufunc(schemes.modified_energy, calls, "modified_energy"))
    monkeypatch.setattr(np, "isfinite", counting_ufunc(np.isfinite, calls, "isfinite"))
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_healthy_batch_skips_the_finite_scan_and_the_energies(monkeypatch, scheme, backend):
    problem, ops, state, cmap = setup(backend)
    integ = Integrator(scheme, TAU, problem, ops, state)
    calls = count_energy_checks(monkeypatch)
    excluded = np.zeros(BATCH, dtype=bool)
    for dw in increments(problem, cmap, 3):
        integ.step(dw)
        excluded = integ.sanitize(excluded)
    assert calls == {"modified_energy": 0, "isfinite": 0} and not excluded.any()


def test_step_with_diagnostics_computes_the_energy_at_most_once(monkeypatch):
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator("exponential", TAU, problem, ops, state)
    calls = count_energy_checks(monkeypatch)
    per_step = []
    excluded = np.zeros(BATCH, dtype=bool)
    for dw in increments(problem, cmap, 3):
        before = calls["modified_energy"]
        integ.step(dw, diagnostics=True)
        excluded = integ.sanitize(excluded)
        integ.energy()
        per_step.append(calls["modified_energy"] - before)
    # V_0 of the first step; afterwards V_n rides on the state
    assert per_step == [1, 0, 0]


def with_row_energies(state, share):
    """`state` with each first velocity mode set so that its V is about share * ENERGY_GUARD."""
    v = state.v.copy()
    v[:, 0] = np.sqrt(2.0 * share * ENERGY_GUARD)
    return SavState(state.u, v, state.q, state.n)


# The bound is a sum over the batch: paths that are each healthy but sum above
# ENERGY_GUARD/2 must still be compared one by one, and nothing is parked.
@pytest.mark.parametrize("scheme", SCHEMES)
def test_healthy_paths_summing_above_half_the_guard_take_the_exact_path(monkeypatch, scheme):
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator(scheme, TAU, problem, ops, with_row_energies(state, 0.15))
    calls = count_energy_checks(monkeypatch)
    integ.step(increments(problem, cmap, 1)[0])
    stepped = integ.state
    assert 0.5 * ENERGY_GUARD < stepped.energy_sum < ENERGY_GUARD
    assert calls["isfinite"] > 0
    excluded = integ.sanitize(np.zeros(BATCH, dtype=bool))
    assert calls["modified_energy"] == 1
    assert not excluded.any() and integ.state is stepped
    assert np.all(integ.energy() < ENERGY_GUARD)


# One path's increment scaled up: the step itself drives that path's V above
# the guard (1e8) or to inf from finite entries (1e160).
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kick", [1e8, 1e160])
def test_path_a_step_drives_above_the_guard_is_parked(scheme, kick):
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator(scheme, TAU, problem, ops, state)
    dw = increments(problem, cmap, 1)[0]
    dw[1] *= kick
    with np.errstate(over="ignore"):
        integ.step(dw)
        assert np.isfinite(integ.state.v).all()
        v = integ.energy()
        excluded = integ.sanitize(np.zeros(BATCH, dtype=bool))
    assert v[1] > ENERGY_GUARD and (v[1] == np.inf) == (kick == 1e160)
    assert excluded.tolist() == [False, True, False, False, False]
    assert np.all(integ.state.u[1] == 0.0)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_sanitize_parks_a_bad_path_for_either_predictor(predictor):
    # Only the extrapolation predictor keeps u_{n-1}; sanitize parks its row
    # too, and the next step runs on the parked state.
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator("exponential", TAU, problem, ops, state, predictor)
    assert (integ.u_prev is None) == (predictor == "identity")
    dws = increments(problem, cmap, 2)
    dws[0][1] *= 1e8
    with np.errstate(over="ignore"):
        integ.step(dws[0])
        excluded = integ.sanitize(np.zeros(BATCH, dtype=bool))
    assert excluded.tolist() == [False, True, False, False, False]
    assert np.all(integ.state.u[1] == 0.0)
    if predictor == "identity":
        assert integ.u_prev is None
    else:
        assert np.all(integ.u_prev[1] == 0.0) and np.all(integ.u_prev[0] == state.u[0])
    integ.step(dws[1])
    assert np.isfinite(integ.energy()).all()


def test_diagnostics_step_releases_its_inputs_before_the_new_synthesis():
    # From a cached state (f = g = sine, the trace term on), one diagnostics
    # step's traced peak above its starting live set: the new state and the
    # drift pair at u_{n+1} come to about 4.5 arrays of shape (B, 2K + 1).
    # Holding the update's scratch arrays, the [b; G] coefficients and g(u_n)
    # across the synthesis of u_{n+1} reads 7.7.
    batch, modes = 32, 64
    problem = make_problem(f="sine", g="sine", modes=modes)
    ops = spectral_discretization(modes)
    integ = Integrator("exponential", TAU, problem, ops, _batched_initial(problem, ops, batch),
                       trace_fn=trace_operator(problem.noise, ops))
    stream = RngStream(8, 0)
    scale = np.sqrt(problem.noise.q * TAU)
    dws = [stream.normals((batch, modes)) * scale for _ in range(3)]
    integ.step(dws[0], diagnostics=True)
    integ.step(dws[1], diagnostics=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        integ.step(dws[2], diagnostics=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 5 * batch * ops.x.size * 8


@pytest.mark.parametrize("predictor, bound", [("identity", 4.0), ("extrapolation", 5.0)])
def test_step_inputs_release_nodal_dw_before_the_analysis(predictor, bound):
    # From a cached state (f = g = sine), the traced peak of a step's inputs
    # in arrays of shape (B, 2K + 1): the [f; g dW] buffer and the projected
    # coefficients, with nodal u_hat and F(u_hat) before them for the
    # extrapolation predictor; about 3.55 and 4.55.  Holding nodal dW through
    # the analysis, and nodal u_hat with it, reads 4.55 and 5.55.
    batch, modes = 32, 64
    problem = make_problem(f="sine", g="sine", modes=modes)
    ops = spectral_discretization(modes)
    integ = Integrator("exponential", TAU, problem, ops, _batched_initial(problem, ops, batch),
                       predictor)
    stream = RngStream(9, 0)
    scale = np.sqrt(problem.noise.q * TAU)
    dws = [stream.normals((batch, modes)) * scale for _ in range(3)]
    integ.step(dws[0], diagnostics=True)
    integ.step(dws[1], diagnostics=True)
    state = integ.state
    u_hat = None if integ.u_prev is None else 0.5 * (3.0 * state.u - integ.u_prev)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        schemes._step_inputs(state, dws[2], problem, ops, u_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < bound * batch * ops.x.size * 8


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_step_still_raises(bad, diagnostics):
    problem, ops, state, cmap = setup("spectral")
    integ = Integrator("exponential", TAU, problem, ops, state)
    integ.step(increments(problem, cmap, 1)[0])
    dw = increments(problem, cmap, 1, seed=5)[0]
    dw[2, 3] = bad
    with np.errstate(all="ignore"), pytest.raises(
            BlowUpError, match="non-finite state produced at step 1"):
        integ.step(dw, diagnostics=diagnostics)


@pytest.mark.parametrize("diagnostics", [True, False])
def test_radicand_floor_raises_from_the_step_at_zero(diagnostics):
    problem = make_problem(f="sine", g="sine", modes=8, delta0=1e-9)
    ops = spectral_discretization(8)
    zeros = np.zeros((BATCH, 8))
    with pytest.raises(ModelViolationError):
        initial_state(zeros, zeros, problem, ops)
    state = SavState(zeros, zeros, np.full(BATCH, np.sqrt(1e-9)))
    integ = Integrator("exponential", TAU, problem, ops, state)
    with pytest.raises(ModelViolationError):
        integ.step(increments(problem, None, 1)[0], diagnostics=diagnostics)


@pytest.mark.parametrize("diagnostics", [True, False])
def test_radicand_floor_raises_where_a_step_lands_near_zero(diagnostics):
    # g = 0 and v_0 chosen so that the wave group of tau = 1/4 takes u_0 to 0:
    # F(u_0) + delta0 is about 5e-7, F(u_1) + delta0 about 1.1e-9 (the drift
    # leaves |u_1| about 1.5e-5), below the floor.
    tau = 0.25
    problem = make_problem(f="sine", g="zero", modes=8, delta0=1e-9)
    ops = spectral_discretization(8)
    u, v = np.zeros(8), np.zeros(8)
    w = np.sqrt(ops.lam[0])
    u[0] = 1e-3
    v[0] = -u[0] * w * np.cos(w * tau) / np.sin(w * tau)
    state = initial_state(u, v, problem, ops)
    assert state.rad > 1e-7
    integ = Integrator("exponential", tau, problem, ops, state)
    dw = np.zeros(8)
    if diagnostics:
        # the diagnostics evaluate F(u_1) + delta0 and raise at once
        with pytest.raises(ModelViolationError):
            integ.step(dw, diagnostics=True)
    else:
        # no diagnostics: the next step meets u_1 and raises
        integ.step(dw, diagnostics=False)
        with pytest.raises(ModelViolationError):
            integ.step(dw, diagnostics=False)


def test_simulate_exits_3_on_a_sine_run_starting_at_zero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(model, "default_initial_displacement", SpectralField.zeros)
    config = tmp_path / "c.txt"
    config.write_text("problem.f = sine\nproblem.g = sine\nproblem.delta0 = 1e-9\n"
                      "time.T = 0.125\ntime.tau = 2^-5\nspace.modes = 8\n"
                      f"output.dir = {tmp_path / 'out'}\n")
    assert cli.main(["simulate", "--config", str(config)]) == 3
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_held_state_and_diagnostics_keep_their_bytes(predictor):
    problem, ops, state, cmap = setup("spectral")
    dws = increments(problem, cmap, 3)
    integ = Integrator("exponential", TAU, problem, ops, state, predictor,
                       trace_fn=trace_operator(problem.noise, ops))
    diag = integ.step(dws[0], diagnostics=True)
    held = integ.state
    names = ("u", "v", "q", "vals", "rad", "fvals", "V")
    before = [getattr(held, n).tobytes() for n in names]
    before_diag = [np.asarray(getattr(diag, n)).tobytes() for n in vars(diag)]
    integ.step(dws[1], diagnostics=True)
    integ.step(dws[2], diagnostics=False)
    assert [getattr(held, n).tobytes() for n in names] == before
    assert [np.asarray(getattr(diag, n)).tobytes() for n in vars(diag)] == before_diag


def test_registry_pairs_share_only_identical_maps():
    pairs = {(f, g): make_problem(f=f, g=g, modes=8).g_is_f
             for f in ("zero", "linear", "sine", "cubic")
             for g in ("zero", "constant", "sine", "linear")}
    assert {k for k, v in pairs.items() if v} == {
        ("zero", "zero"), ("linear", "linear"), ("sine", "sine")}


def test_fem_simulate_step_zero_trace_term_is_finite():
    config = cli.RunConfig(backend="fem", elements=16, T=2.0**-5, tau=2.0**-7)
    trace0 = cli._trajectory(config)[1]["trace_term"][0]
    assert np.isfinite(trace0) and trace0 > 0.0
    ops = fem.assemble(16)
    problem = make_problem(modes=16)
    u0c, _ = fem.initial_coefficients(ops, problem)
    expect = trace_operator(problem.noise, ops)(problem.g(ops.nodal(u0c)))
    assert trace0 == pytest.approx(float(expect), rel=1e-14)
