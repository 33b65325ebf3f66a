"""Small-config study outputs pinned to a committed fixture.

A change that reorders floating-point work may move results at round-off,
but no further: every pinned value must be met within relative tolerance
1e-12.  To regenerate the fixture from a given source tree (only after a
deliberate change of results):

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from savwave import cli
from savwave.harness import (
    AuxGapStudy,
    ConvergenceStudy,
    EnergyStudy,
    SpatialStudy,
    _batched_initial,
    _problem,
    aux_gap_scaling,
    energy_evolution,
    spatial_refinement,
    strong_convergence,
)
from savwave.model import spectral_discretization
from savwave.schemes import Integrator

FIXTURE = Path(__file__).with_name("pinned_outputs.json")
RTOL = 1e-12


def _converge():
    res = strong_convergence(ConvergenceStudy(
        f="sine", g="sine", modes=32, T=0.5, tau_exps=(4, 5, 6), ref_exp=8,
        schemes=("exponential", "midpoint"), realizations=30, seed=2024, chunk=8,
    ))
    out = {}
    for sch in res.per_scheme:
        out[f"{sch.scheme}.rms_error"] = sch.rms_error
        out[f"{sch.scheme}.stderr"] = sch.stderr
        out[f"{sch.scheme}.slope"] = [sch.slope]
    return out


def _energy():
    res = energy_evolution(EnergyStudy(
        f="linear", g="sine", modes=32, T=0.5, tau=2.0**-5, realizations=30, seed=2024, chunk=8,
    ))
    # Step 0 is the same state on every path, so its standard error is the
    # round-off of a vanishing variance, not a pinned value.
    return {"mean_V": res.mean_V, "stderr_V[1:]": res.stderr_V[1:],
            "predicted_V": res.predicted_V}


def _aux_gap():
    res = aux_gap_scaling(AuxGapStudy(
        f="sine", g="sine", modes=32, T=0.5, tau_exps=(4, 5, 6), realizations=30, seed=2024,
        chunk=8,
    ))
    return {"mean_max_gap": res.mean_max_gap}


def _spatial():
    res = spatial_refinement(SpatialStudy(
        f="sine", g="sine", ref_modes=64, h_exps=(3, 4, 5), T=0.5, tau=2.0**-6,
        realizations=16, seed=2024, chunk=8,
    ))
    return {"rms_error": res.rms_error}


def _simulate():
    # The single path of the `simulate` command, values at every step.
    out = {}
    for backend in ("spectral", "fem"):
        for scheme in ("exponential", "midpoint"):
            config = cli.RunConfig(backend=backend, variant=scheme, predictor="extrapolation",
                                   modes=24, elements=16, T=0.25, tau=2.0**-6, seed=2024)
            _, columns = cli._trajectory(config)
            for field in ("V", "V1", "q", "aux_gap", "trace_term"):
                out[f"{backend}.{scheme}.{field}"] = columns[field]
    return out


STUDIES = {"converge": _converge, "energy": _energy, "aux_gap": _aux_gap, "spatial": _spatial,
           "simulate": _simulate}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_outputs_match_pinned_fixture(name):
    pinned = json.loads(FIXTURE.read_text())[name]
    got = STUDIES[name]()
    assert sorted(got) == sorted(pinned)
    for key, values in got.items():
        np.testing.assert_allclose(values, pinned[key], rtol=RTOL, atol=0, err_msg=key)


def test_energy_study_initial_state_keeps_its_bits():
    # The initial state of `savwave energy` at K = 256, f = g = sine, delta0 = 1
    # (one group of 125 identical rows).  Every row has the same V_0, so the
    # step-0 standard error of that study is the round-off of a zero variance
    # and moves with any bit of V_0 or of the initial radicand: both must stay
    # exactly these values.  So must the potential F(u_0) they are built from:
    # a quadrature that sums in another order moves it by 2 ulp, which the
    # + delta0 happens to round away here but not at every delta0.
    study = EnergyStudy(f="sine", g="sine", modes=256, T=1.0, tau=2.0**-8, realizations=250,
                        chunk=125)
    problem = _problem(study, study.modes)
    ops = spectral_discretization(study.modes)
    integ = Integrator(study.scheme, study.tau, problem, ops,
                       _batched_initial(problem, ops, study.chunk))
    state = integ.state
    potential = ops.quad(problem.drift_values(state.vals)[1])
    assert {float.hex(float(x)) for x in integ.energy()} == {"0x1.d9e1cd2c857a2p+1"}
    assert {float.hex(float(x)) for x in state.rad} == {"0x1.3c1c012142388p+0"}
    assert {float.hex(float(x)) for x in potential} == {"0x1.e0e0090a11c44p-3"}


if __name__ == "__main__":
    data = {name: {key: [float(x) for x in np.atleast_1d(v)] for key, v in fn().items()}
            for name, fn in STUDIES.items()}
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
