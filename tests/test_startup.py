"""Import hygiene: scipy's linalg and special modules load only when used.

Every command pays for what `import savwave` loads, so the import graph
must not pull in scipy.linalg (FEM assembly and projection) or
scipy.special (the noise-tail footer of `simulate`).  Checked in a fresh
interpreter, since this test process has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import savwave

PROBE = """
import json, sys
import numpy as np
import savwave, savwave.cli, savwave.harness
from savwave import fem, noise

loaded = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.special")))
mu_err = float(np.max(np.abs(fem.assemble(8).mu / fem.eigenvalue_closed_form(8) - 1.0)))
tail = noise.covariance_tail(noise.power_covariance(8))
print(json.dumps({"loaded": loaded, "mu_err": mu_err, "tail": tail}))
"""


def run_probe():
    env = dict(os.environ)
    src = str(Path(savwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_linalg_or_special_and_deferred_imports_work():
    probe = run_probe()
    assert probe["loaded"] == []
    assert probe["mu_err"] <= 1e-10
    assert probe["tail"] is not None and 0.0 < probe["tail"] < float("inf")
