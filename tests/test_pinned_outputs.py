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
    WeakEnergyStudy,
    aux_gap_scaling,
    energy_evolution,
    spatial_refinement,
    strong_convergence,
    weak_energy_error,
)

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


def _weak_energy():
    res = weak_energy_error(WeakEnergyStudy(
        f="sine", g="sine", elements=16, ref_modes=64, T=0.25, tau=2.0**-6, realizations=16,
        seed=2024, chunk=8,
    ))
    return {"gap": res.gap}


def _simulate():
    # The single path of the `simulate` command, records of every step.
    out = {}
    for backend in ("spectral", "fem"):
        for scheme in ("exponential", "midpoint"):
            config = cli.RunConfig(backend=backend, variant=scheme, predictor="extrapolation",
                                   modes=24, elements=16, T=0.25, tau=2.0**-6, seed=2024)
            _, records = cli._trajectory(config)
            for field in ("V", "V1", "q", "aux_gap", "trace_term"):
                out[f"{backend}.{scheme}.{field}"] = [getattr(r, field) for r in records]
    return out


STUDIES = {"converge": _converge, "energy": _energy, "aux_gap": _aux_gap, "spatial": _spatial,
           "weak_energy": _weak_energy, "simulate": _simulate}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_outputs_match_pinned_fixture(name):
    pinned = json.loads(FIXTURE.read_text())[name]
    got = STUDIES[name]()
    assert sorted(got) == sorted(pinned)
    for key, values in got.items():
        np.testing.assert_allclose(values, pinned[key], rtol=RTOL, atol=0, err_msg=key)


if __name__ == "__main__":
    data = {name: {key: [float(x) for x in np.atleast_1d(v)] for key, v in fn().items()}
            for name, fn in STUDIES.items()}
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
