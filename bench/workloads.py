"""The benchmark's three Monte Carlo workloads.

Each workload builds its inputs from a seed, makes one call into savwave's
public API (the CLI entry point or a harness study), and turns what that call
wrote or returned into a plain ``outputs`` dict for the checks in checks.py.
This module imports nothing heavy at import time, so the parent runner can
read the workload table without importing numpy.
"""

from __future__ import annotations

DEFAULT_SEED = 12345


def _parse_csv(path):
    rows, footer = [], []
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        if line.startswith("# "):
            footer.append(line[2:])
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return rows, footer


class _CliWorkload:
    """A workload that writes a config file and runs one ``savwave`` command."""

    command = ""

    def config_lines(self):
        raise NotImplementedError

    def build(self, seed, run_dir, workers):
        cfg = run_dir / f"{self.command}.cfg"
        cfg.write_text("\n".join(["problem.f = sine", "problem.g = sine",
                                   "scheme.predictor = identity", *self.config_lines()]) + "\n")
        return [self.command, "--config", str(cfg), "--seed", str(seed), "--out", str(run_dir),
                "--workers", str(workers)]

    def call(self, argv):
        from savwave import cli

        return cli.main(argv)

    def read_csv(self, argv):
        from pathlib import Path

        return _parse_csv(Path(argv[argv.index("--out") + 1]) / f"{self.command}.csv")


class ConvergeLadder(_CliWorkload):
    """``savwave converge``: coupled-path error ladder, both schemes, small batches."""

    name = "converge-ladder"
    command = "converge"
    workers = 2
    blas_threads = 1
    why = ("small-batch (B=25) strong-order ladder across 2 worker processes: "
           "per-call overhead, duplicated nodal(u), rank-one solve, sanitize, chunk orchestration")
    realizations = 50
    modes = 64
    T = 0.5
    tau_exps = (6, 7, 8, 9, 10)
    ref_exp = 12
    schemes = ("exponential", "midpoint")
    chunk = 25

    def config_lines(self):
        return [f"space.modes = {self.modes}", f"time.T = {self.T}",
                f"converge.tau_exps = {' '.join(map(str, self.tau_exps))}",
                f"converge.ref_exp = {self.ref_exp}",
                f"converge.schemes = {' '.join(self.schemes)}",
                f"mc.realizations = {self.realizations}", f"mc.chunk = {self.chunk}"]

    def outputs(self, argv, exit_code):
        rows, footer = self.read_csv(argv)
        out = {"exit_code": exit_code, "schemes": {}}
        for scheme in self.schemes:
            mine = [r for r in rows if r["scheme"] == scheme]
            slope = next(float(f.split()[1].split("=")[1]) for f in footer
                         if f.startswith(f"scheme={scheme} "))
            out["schemes"][scheme] = {
                "taus": [float(r["tau"]) for r in mine],
                "rms": [float(r["rms_error"]) for r in mine],
                "excluded": max(int(r["excluded_paths"]) for r in mine),
                "slope": slope,
            }
        return out

    def path_steps(self):
        per_path = 2**self.ref_exp * self.T + sum(2**e * self.T for e in self.tau_exps)
        return int(self.realizations * len(self.schemes) * per_path)


class EnergyDiag(_CliWorkload):
    """``savwave energy``: mean modified energy per step, diagnostics on every step."""

    name = "energy-diag"
    command = "energy"
    workers = 1
    blas_threads = 2
    why = ("wide-batch (B=125) K=256 energy curve: GEMM-bound, diagnostics and trace "
           "term on every step, whole noise block drawn up front")
    realizations = 250
    modes = 256
    T = 1.0
    tau_exp = 8
    chunk = 125

    def config_lines(self):
        return [f"space.modes = {self.modes}", f"time.T = {self.T}",
                f"time.tau = 2^-{self.tau_exp}", "scheme.variant = exponential",
                f"mc.realizations = {self.realizations}", f"mc.chunk = {self.chunk}"]

    def outputs(self, argv, exit_code):
        rows, _ = self.read_csv(argv)
        return {
            "exit_code": exit_code,
            "mean_V": [float(r["mean_V"]) for r in rows],
            "stderr_V": [float(r["stderr_V"]) for r in rows],
            "predicted_V": [float(r["predicted_V"]) for r in rows],
        }

    def path_steps(self):
        return int(self.realizations * 2**self.tau_exp * self.T)


class SpatialFem:
    """``harness.spatial_refinement`` as scripts/spatial_refinement.py calls it."""

    name = "spatial-fem"
    workers = 1
    blas_threads = 1
    why = ("the only FEM-backend workload: four meshes against a 256-mode sine reference at "
           "B=25, one tiny normals call per stream per step, single-threaded baseline")
    realizations = 50
    ref_modes = 256
    h_exps = (3, 4, 5, 6)
    T = 1.0
    tau_exp = 9
    chunk = 25

    def build(self, seed, run_dir, workers):
        from savwave.harness import SpatialStudy

        study = SpatialStudy(f="sine", g="sine", ref_modes=self.ref_modes, h_exps=self.h_exps,
                             T=self.T, tau=2.0**-self.tau_exp, realizations=self.realizations,
                             seed=seed, chunk=self.chunk)
        return study, workers, run_dir / "spatial_refinement.csv"

    def call(self, inputs):
        # The study and the CSV write of scripts/spatial_refinement.py, looked up
        # on their modules at call time so that traced runs see the wrappers.
        from savwave import cli, harness

        study, workers, path = inputs
        res = harness.spatial_refinement(study, workers=workers)
        cli.write_csv(path, ["h", "rms_error"], list(zip(res.widths, res.rms_error)),
                      [f"slope={res.slope:.6f} seed={study.seed}"])
        return res

    def outputs(self, inputs, res):
        return {
            "exit_code": 0,
            "widths": [float(h) for h in res.widths],
            "rms": [float(e) for e in res.rms_error],
            "slope": float(res.slope),
        }

    def path_steps(self):
        return int(self.realizations * 2**self.tau_exp * self.T * (1 + len(self.h_exps)))


WORKLOADS = {w.name: w for w in (ConvergeLadder(), EnergyDiag(), SpatialFem())}
