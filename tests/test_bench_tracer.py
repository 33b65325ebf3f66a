"""Every callable bench/tracer.py wraps still exists in this package.

The tracer times layers by replacing the attributes named in its `TARGETS`;
a target that no longer resolves is skipped silently and its span reads 0.
So a renamed study, chunk body or layer function fails here, in the change
that renames it, rather than as a quiet zero in a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Targets that already fail to resolve, each deleted or moved out of the
# module the tracer looks it up in.  The benchmark's next revision re-points
# them; this list then shrinks with it.
OWED = [
    "savwave.harness.sav_radicand",
    "savwave.harness.wave_group_table",
    "savwave.harness.step_exponential_sav",
    "savwave.harness.step_midpoint_sav",
    "savwave.schemes.diffusion_values",
    "savwave.schemes.sav_radicand",
    "savwave.model.Discretization.nodal_deriv",
    "savwave.fem.linear_interp_matrix",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    missing = []
    for module, attr, _, _ in tracer.TARGETS:
        try:
            owner, key = tracer._resolve(module, attr)
            vars(owner)[key]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}.{attr}")
    assert missing == OWED
