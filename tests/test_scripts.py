"""The experiment scripts reject bad arguments before they create any output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import savwave

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_negative_seed_exits_2_without_a_results_directory(script, tmp_path):
    env = dict(os.environ)
    src = str(Path(savwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "results"
    run = subprocess.run([sys.executable, str(script), "--seed", "-1", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert "--seed" in run.stderr and "Traceback" not in run.stderr
    assert not out.exists()
