"""The layer micro-grid of bench/microgrid.py still runs against this package.

The grid calls savwave's array-level API directly (steppers, tables, cores,
assembly), so a renamed or re-signed function fails here rather than in a
benchmark run.  The grid is shrunk to a few tiny cells.
"""

import importlib.util
import math
from pathlib import Path

MICROGRID = Path(__file__).resolve().parents[1] / "bench" / "microgrid.py"


def load_microgrid():
    spec = importlib.util.spec_from_file_location("bench_microgrid", MICROGRID)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_microgrid_runs_every_cell(monkeypatch):
    grid = load_microgrid()
    monkeypatch.setattr(grid, "KS", (8,))
    monkeypatch.setattr(grid, "BS", (1, 3))
    monkeypatch.setattr(grid, "ELEMENTS", (4,))
    monkeypatch.setattr(grid, "MIN_SECONDS", 0.0)
    out = grid.grid()
    assert sorted(out) == sorted(grid.metric_names())
    assert all(math.isfinite(v) for v in out.values())
