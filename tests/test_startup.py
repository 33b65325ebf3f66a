"""Import hygiene: no scipy module ever loads.

Every command pays for what `import savwave` loads, and savwave depends on
numpy alone: the finite element backend's eigenpairs are in closed form and
the noise-tail footer of `simulate` sums the tail itself, so neither may
load scipy.  Checked in a fresh interpreter, since this test process has
loaded scipy already.

The CLI and the harness load neither the invariant checks, the process
pool nor numpy.random until a command uses them, and a pool forks its
workers with numpy.random (and the OpenSSL it maps) already loaded, so no
worker loads it again.

Every name a module lists in `__all__` must resolve, so deleting a function
leaves no stale export.  The package itself exports only `__version__`;
callers import the submodules.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import savwave

PROBE = """
import json, sys
import numpy as np
import savwave, savwave.checks, savwave.cli, savwave.harness
from savwave import fem, noise
from savwave.model import make_problem

ops = fem.assemble(8)
fem.l2_project(ops, np.cos)
fem.ritz_project(ops, lambda x: x * (1.0 - x))
fem.initial_coefficients(ops, make_problem(modes=8))
pencil = savwave.checks._check_fem_pencil(None, None).value
tail = noise.covariance_tail(noise.power_covariance(8))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"loaded": loaded, "pencil": pencil, "tail": tail}))
"""


LAZY_PROBE = """
import json, os, sys
import savwave.cli, savwave.harness
from savwave.harness import EnergyStudy, _map_chunks

LAZY = ("savwave.checks", "concurrent.futures.process", "numpy.random")
at_import = [m for m in LAZY if m in sys.modules]
parent = os.getpid()


def task(key, first, stop):
    found = [m for m in ("numpy.random", "_hashlib") if m in sys.modules]
    return [(os.getpid() != parent, found)] * (stop - first)


parts = _map_chunks(task, EnergyStudy(realizations=2, chunk=1), 4, 2, keys=("a", "b"))
print(json.dumps({"at_import": at_import, "tasks": [c for part in parts for c in part]}))
"""


def run_probe(code=PROBE):
    env = dict(os.environ)
    src = str(Path(savwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_and_harness_defer_checks_pool_and_rng_and_workers_fork_with_rng_loaded():
    probe = run_probe(LAZY_PROBE)
    assert probe["at_import"] == []
    assert probe["tasks"] == [[True, ["numpy.random", "_hashlib"]]] * 4


def test_import_loads_no_scipy_and_deferred_imports_work():
    probe = run_probe()
    assert probe["loaded"] == []
    assert probe["pencil"] <= 1e-13
    assert probe["tail"] is not None and 0.0 < probe["tail"] < float("inf")


MODULES = sorted(m.name for m in pkgutil.iter_modules(savwave.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"savwave.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

