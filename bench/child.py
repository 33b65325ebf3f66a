"""One repetition of a workload in a fresh process; prints one JSON line.

The parent (run.py) sets the BLAS thread count and PYTHONPATH in the
environment before this interpreter starts, and takes ``setup_s`` as the time
from spawning this process to the ``ready`` stamp below, which is taken once
numpy, scipy and savwave are imported and the workload's inputs are built.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def run_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def peak_rss_mib(workers):
    """Peak RSS of this process plus `workers` times the largest pool worker peak.

    Forked workers share pages with this process, so the sum is an upper
    bound of the resident memory the workload held at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * worker) / 1024.0


def excluded_share(workload, outputs):
    """Paths parked by the blow-up guard over paths attempted (convergence only)."""
    schemes = outputs.get("schemes")
    if not schemes:
        return 0.0
    return sum(s["excluded"] for s in schemes.values()) / (workload.realizations * len(schemes))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import savwave.cli  # noqa: F401
    import savwave.harness  # noqa: F401

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.build(args.seed, args.run_dir, args.workers)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_dir / "spool")
        tracer.install()
    failures, outputs, result = [], None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                result = workload.call(inputs)
            else:
                result = tracer.run(workload.call, inputs)
    except Exception:  # a failed run is reported and counted, not fatal
        failures.append(traceback.format_exc(limit=3))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    if not failures:
        try:
            outputs = workload.outputs(inputs, result)
            failures += checks.check(workload.name, outputs, args.seed)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            failures.append(f"outputs unreadable: {exc!r}")

    report = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib(args.workers),
        "failures": failures,
        "outputs": outputs,
        "facts": run_facts(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["harness.excluded_share"] = excluded_share(workload, outputs or {})
        report["trace"] = {"layers": layers, "spans": tracer.spans(),
                           "missing_targets": tracer.missing}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
