#!/usr/bin/env python3
"""savwave benchmark runner.

    python3 bench/run.py --workload converge-ladder --seed 12345 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seconds 38      # every workload, one table each

With ``--trace 0`` the workload is repeated in fresh processes for
``--seconds`` and the end-to-end metrics are medians over the repetitions.
With ``--trace 1`` a discarded warm-up, then one untraced and one traced
repetition give the per-layer metrics and the tracing overhead, followed by
the layer micro-grid.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything above it is for people,
and the full record (run facts, every repetition, every span) is written to
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from microgrid import metric_names as grid_metric_names
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (("wall_s", "s"), ("path_steps_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
TRACE_LAYERS = (
    ("model.transform_self_s", "s"), ("model.nodal_calls_per_step", "count"),
    ("model.project_calls_per_step", "count"), ("model.nonlinearity_self_s", "s"),
    ("schemes.step_self_s", "s"), ("schemes.step_calls", "count"),
    ("schemes.diagnostics_s", "s"), ("noise.draw_s", "s"), ("noise.normals_calls", "count"),
    ("fem.setup_s", "s"), ("harness.other_self_s", "s"), ("harness.excluded_share", "share"),
    ("harness.worker_speedup", "ratio"), ("cli.write_s", "s"), ("trace.overhead_share", "share"),
)


def steal_seconds():
    """CPU time the hypervisor took from this machine's CPUs since boot (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reference_loop_ms():
    """Median of three timings of a fixed pure-Python loop: how fast the machine is now.

    The shared host changes speed by tens of percent over minutes, with no
    steal to show for it; this records that next to every repetition.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def wait_for_group(pgid, timeout=5.0):
    """Wait until no process of the killed group (the child and its pool) is left."""
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def grid_unit(name):
    return "ms" if "_ms." in name else "us"


class Runner:
    """Spawns the child processes of one benchmark run and keeps its deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.run_dir = RUN_DIR / f"{workload.name}-{os.getpid()}"

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, script, args, threads):
        """Run one child to completion; returns (spawn time, exit code, last JSON line)."""
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(self.remaining(), 1.0))
        except BaseException as exc:  # timeout or termination: take the pool down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            wait_for_group(proc.pid)
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return t0, "timeout", None
        lines = out.decode().strip().splitlines()
        try:
            return t0, proc.returncode, json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return t0, proc.returncode, None

    def rep(self, workers, trace=0, setup_only=False):
        """One fresh-process repetition of the workload."""
        args = ["--workload", self.workload.name, "--seed", str(self.seed),
                "--workers", str(workers), "--run-dir", str(self.run_dir), "--trace", str(trace)]
        if setup_only:
            args.append("--setup-only")
        steal = steal_seconds()
        t0, code, report = self.spawn("child.py", args, self.workload.blas_threads)
        steal = steal_seconds() - steal
        if report is None or code != 0:
            return {"ok": False, "failures": [f"child exited with {code}"]}
        report["setup_s"] = report.pop("ready") - t0
        report["ok"] = not report.get("failures")
        report["workers"] = workers
        report["steal_s"] = steal
        report["reference_loop_ms"] = reference_loop_ms()
        return report

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


def measure(runner, seconds):
    """Untraced repetitions for `seconds`; the end-to-end metrics are their medians."""
    w = runner.workload
    runner.rep(w.workers, setup_only=True)  # warm the file cache and bytecode
    reps, t0, longest = [], time.monotonic(), 0.0
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        if reps and runner.remaining() < 1.5 * longest:
            break
        t = time.monotonic()
        reps.append(runner.rep(w.workers))
        longest = max(longest, time.monotonic() - t)
    timed = [r for r in reps if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "path_steps_per_s": [w.path_steps() / r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mib": [r["peak_rss_mib"] for r in timed],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END} if timed else {}
    return reps, metrics, samples


def trace(runner):
    """Untraced and traced repetition, the 1-worker baseline, then the micro-grid."""
    w = runner.workload
    runner.rep(w.workers)  # discarded: the first repetition of a run tends to be slow
    plain = runner.rep(w.workers)
    traced = runner.rep(w.workers, trace=1)
    reps = [plain, traced]
    layers = dict(traced.get("trace", {}).get("layers", {}))
    if "wall_s" in plain and "wall_s" in traced:
        layers["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    if w.workers > 1:
        single = runner.rep(1)
        reps.append(single)
        if "wall_s" in single and "wall_s" in plain:
            layers["harness.worker_speedup"] = single["wall_s"] / plain["wall_s"]
    else:
        layers["harness.worker_speedup"] = 1.0  # one process: nothing to speed up
    _, code, grid = runner.spawn("microgrid.py", [], threads=1)
    if grid is None or code != 0:
        reps.append({"ok": False, "failures": [f"micro-grid exited with {code}"]})
        grid = {}
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in TRACE_LAYERS if name in layers}
    metrics.update({name: {"value": grid[name], "unit": grid_unit(name)}
                    for name in grid_metric_names() if name in grid})
    return reps, metrics, traced.get("trace")


def repo_facts(workload):
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "workers": workload.workers, "blas_threads": workload.blas_threads,
             "micro_grid_blas_threads": 1,
             "src_lines": sum(len(p.read_text().splitlines())
                              for p in sorted((ROOT / "src").rglob("*.py")))}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        in_repo = top.returncode == 0 and Path(lines[0]).resolve() == ROOT
        facts["git_commit"] = lines[1] if in_repo else None
    except (OSError, subprocess.TimeoutExpired):
        facts["git_commit"] = None
    return facts


def run_one(name, seed, seconds, traced):
    workload = WORKLOADS[name]
    runner = Runner(workload, seed)
    try:
        if traced:
            reps, metrics, trace_record = trace(runner)
            samples = {}
        else:
            reps, metrics, samples = measure(runner, seconds)
            trace_record = None
    finally:
        runner.close()
    failed = sum(1 for r in reps if not r["ok"])
    facts = repo_facts(workload)
    facts.update(next((r["facts"] for r in reps if "facts" in r), {}))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "why": workload.why, "facts": facts, "metrics": metrics,
              "samples": samples, "attempted": len(reps), "failed": failed,
              "failures": [f for r in reps for f in r.get("failures", [])],
              "repetitions": [{k: v for k, v in r.items() if k not in ("trace", "facts")}
                              for r in reps],
              "tracer": trace_record}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1))
    print_table(record)
    return record


def print_table(record):
    f = record["facts"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={int(record['trace'])}  "
          f"why: {record['why']}")
    print(f"   facts: nproc={f.get('nproc')} blas={f.get('blas')} "
          f"blas_threads={f.get('blas_threads')} workers={f.get('workers')} "
          f"python={f.get('python')} numpy={f.get('numpy')} scipy={f.get('scipy')} "
          f"git={f.get('git_commit')} src_lines={f.get('src_lines')}")
    reps = record["repetitions"]
    steal = sum(r.get("steal_s", 0.0) for r in reps)
    loop = statistics.median([r["reference_loop_ms"] for r in reps if "reference_loop_ms" in r]
                             or [float("nan")])
    print(f"   machine: {steal:.2f} CPU-s stolen by the host during the repetitions; "
          f"reference loop {loop:.1f} ms (median after each repetition; higher is slower)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"   error_rate = {failed}/{attempted} = {failed / max(attempted, 1):.3g} "
          "(a run fails if it raises, exits non-zero or fails its output check)")
    for failure in record["failures"]:
        print("   FAILED: " + failure.strip().replace("\n", "\n           "))
    for name, m in record["metrics"].items():
        vals = record["samples"].get(name)
        if vals:
            spread = f"median of n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}"
        elif "_us." in name or "_ms." in name:
            spread = "micro-grid median per call"
        else:
            spread = "n=1 traced repetition"
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']:<6} {spread}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "savwave" / "__init__.py").is_file():
        print(f"savwave sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if any(not r["metrics"] for r in records):
        print("no repetition produced a measurement", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
