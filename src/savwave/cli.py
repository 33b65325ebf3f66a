"""Command-line front end: simulate | converge | energy | check.

Configuration is a flat key = value text file with dotted section keys
(the schema is _KEYMAP, defaults live on RunConfig); command-line flags
override seed, output directory, worker count, and scale.  CSV cells carry 17 significant digits
and runs are byte-reproducible for a fixed (config, seed) regardless of
--workers and of the BLAS thread count.  Exit codes: 0 success, 1 check
failure, 2 config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fem as fem_mod
from .harness import (
    ConvergenceStudy,
    EnergyStudy,
    _batched_initial,
    energy_evolution,
    step_count,
    strong_convergence,
)
from .model import DIFFUSIONS, DRIFTS, ModelViolationError, make_problem, spectral_discretization
from .noise import RngStream, covariance_tail, increments, power_covariance, trace_operator
from .schemes import ENERGY_GUARD, PREDICTORS, SCHEMES, BlowUpError, Integrator

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _parse_float(text):
    # dyadic shorthand "2^-7" keeps config files exact and diff-friendly
    text = text.strip()
    if "^" in text:
        base, exp = text.split("^", 1)
        return float(base) ** float(exp)
    return float(text)


def _parse_int(text):
    return int(text.strip())


def _parse_str(text):
    return text.strip()


def seed_arg(text):
    """argparse type of a master seed: a non-negative integer, as numpy's SeedSequence needs."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"invalid value: {seed} (must be >= 0)")
    return seed


def _parse_int_tuple(text):
    return tuple(int(p) for p in text.replace(",", " ").split())


def _parse_str_tuple(text):
    return tuple(p for p in text.replace(",", " ").split() if p)


@dataclass(frozen=True)
class RunConfig:
    """One run described by plain data; field names mirror the dotted keys."""

    f: str = "sine"
    g: str = "sine"
    sigma: float = 1.0
    delta0: float = 1.0
    backend: str = "spectral"
    modes: int = 64
    elements: int = 64
    T: float = 1.0
    tau: float = 2.0**-7
    variant: str = "exponential"
    predictor: str = "identity"
    noise_decay: float = 2.0
    noise_modes: int = 0  # 0: match the spatial resolution
    realizations: int = 200
    seed: int = 12345
    chunk: int = 25
    tau_exps: tuple = (8, 9, 10, 11, 12)
    ref_exp: int = 13
    schemes: tuple = tuple(SCHEMES)
    norm: str = "l2"
    reference_scheme: str = ""
    out_dir: str = "out"

    def steps(self):
        try:
            return step_count(self.T, self.tau)
        except ValueError as exc:
            raise ConfigError(f"invalid value for time.tau: {exc}") from exc

    def validate(self):
        for key, value in (("time.T", self.T), ("problem.sigma", self.sigma),
                           ("noise.decay", self.noise_decay)):
            if not np.isfinite(value):
                raise ConfigError(f"invalid value for {key}: {value}")
        if not self.T > 0:
            raise ConfigError(f"invalid value for time.T: {self.T}")
        if self.f not in DRIFTS:
            raise ConfigError(f"invalid value for problem.f: {self.f}")
        if self.g not in DIFFUSIONS:
            raise ConfigError(f"invalid value for problem.g: {self.g}")
        if not self.delta0 > 0:
            raise ConfigError(f"invalid value for problem.delta0: {self.delta0}")
        if not self.tau > 0:
            raise ConfigError(f"invalid value for time.tau: {self.tau}")
        if self.noise_modes < 0:
            raise ConfigError(f"invalid value for noise.modes: {self.noise_modes}")
        if self.seed < 0:
            raise ConfigError(f"invalid value for mc.seed: {self.seed} (must be >= 0)")
        if not self.tau_exps:
            raise ConfigError("invalid value for converge.tau_exps: empty")
        if any(e > self.ref_exp for e in self.tau_exps):
            raise ConfigError(f"invalid value for converge.tau_exps: {self.tau_exps} "
                              f"(no step may be finer than converge.ref_exp = {self.ref_exp})")
        if self.modes < 1:
            raise ConfigError(f"invalid value for space.modes: {self.modes}")
        if self.backend == "spectral" and self.noise_modes > self.modes:
            raise ConfigError(f"invalid value for noise.modes: {self.noise_modes} "
                              f"(more than space.modes = {self.modes})")
        if self.elements < 2:
            raise ConfigError(f"invalid value for space.elements: {self.elements}")
        if self.backend not in ("spectral", "fem"):
            raise ConfigError(f"invalid value for space.backend: {self.backend}")
        if self.realizations < 1:
            raise ConfigError(f"invalid value for mc.realizations: {self.realizations}")
        if self.chunk < 1:
            raise ConfigError(f"invalid value for mc.chunk: {self.chunk}")
        if self.variant not in SCHEMES:
            raise ConfigError(f"invalid value for scheme.variant: {self.variant}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"invalid value for scheme.predictor: {self.predictor}")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ConfigError(f"invalid value for converge.schemes: {' '.join(self.schemes)}")
        if self.norm not in ("l2", "h"):
            raise ConfigError(f"invalid value for converge.norm: {self.norm}")
        if self.reference_scheme not in ("", *SCHEMES):
            raise ConfigError(f"invalid value for converge.reference: {self.reference_scheme}")
        return self


_KEYMAP = {
    "problem.f": ("f", _parse_str),
    "problem.g": ("g", _parse_str),
    "problem.sigma": ("sigma", _parse_float),
    "problem.delta0": ("delta0", _parse_float),
    "space.backend": ("backend", _parse_str),
    "space.modes": ("modes", _parse_int),
    "space.elements": ("elements", _parse_int),
    "time.T": ("T", _parse_float),
    "time.tau": ("tau", _parse_float),
    "scheme.variant": ("variant", _parse_str),
    "scheme.predictor": ("predictor", _parse_str),
    "noise.decay": ("noise_decay", _parse_float),
    "noise.modes": ("noise_modes", _parse_int),
    "mc.realizations": ("realizations", _parse_int),
    "mc.seed": ("seed", _parse_int),
    "mc.chunk": ("chunk", _parse_int),
    "converge.tau_exps": ("tau_exps", _parse_int_tuple),
    "converge.ref_exp": ("ref_exp", _parse_int),
    "converge.schemes": ("schemes", _parse_str_tuple),
    "converge.norm": ("norm", _parse_str),
    "converge.reference": ("reference_scheme", _parse_str),
    "output.dir": ("out_dir", _parse_str),
}


def load_config(path=None, overrides=None):
    """Read a flat key = value file, apply overrides, and validate."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEYMAP:
                raise ConfigError(f"unknown config key: {key}")
            attr, parse = _KEYMAP[key]
            try:
                values[attr] = parse(val)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {val.strip()}") from exc
    config = RunConfig(**values)
    if overrides:
        config = replace(config, **overrides)
    return config.validate()


# ---------------------------------------------------------------------------
# CSV / SVG emission.


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, header, rows, footer=()):
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    lines += [f"# {line}" for line in footer]
    Path(path).write_text("\n".join(lines) + "\n")


_COLORS = ("#1f6fb2", "#c44e52", "#2e8b57", "#8c564b", "#9467bd", "#e39023")


def svg_plot(series, title="", xlabel="", ylabel="", loglog=False, annotations=()):
    """Minimal SVG 1.1 line plot; a pure function of the data passed in."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 55
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if loglog:
        xs, ys = np.log10(xs), np.log10(np.maximum(ys, 1e-300))
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    # frame and ticks
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>'
    )
    for i in range(6):
        xv = x_lo + i * (x_hi - x_lo) / 5
        yv = y_lo + i * (y_hi - y_lo) / 5
        xl = f"1e{xv:.1f}" if loglog else f"{xv:.3g}"
        yl = f"1e{yv:.1f}" if loglog else f"{yv:.4g}"
        out.append(f'<line x1="{px(xv):.1f}" y1="{height - mb}" x2="{px(xv):.1f}" '
                   f'y2="{height - mb + 5}" stroke="black"/>')
        out.append(f'<text x="{px(xv):.1f}" y="{height - mb + 18}" text-anchor="middle" '
                   f'font-size="11">{xl}</text>')
        out.append(f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" y2="{py(yv):.1f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py(yv) + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{yl}</text>')
    out.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
               f'font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
               f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>')
    for i, (label, sx, sy) in enumerate(series):
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        if loglog:
            sx, sy = np.log10(sx), np.log10(np.maximum(sy, 1e-300))
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(sx, sy))
        color = _COLORS[i % len(_COLORS)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{width - mr - 8}" y="{mt + 18 + 16 * i}" text-anchor="end" '
                   f'font-size="12" fill="{color}">{label}</text>')
    for i, note in enumerate(annotations):
        out.append(f'<text x="{ml + 8}" y="{mt + 18 + 14 * i}" font-size="12">{note}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Commands.


# Per-step values of the `simulate` path; all but trace_term are CSV columns.
_TRAJECTORY_FIELDS = ("V", "V1", "q", "aux_gap", "energy_residual", "trace_term")


def _trajectory(config):
    """(problem, columns) of the one path `simulate` writes, stepped as a batch of one.

    `columns` maps "step", "time" and each of _TRAJECTORY_FIELDS to its values
    at steps 0..n.  Every increment goes through one (noise modes, K) map: the
    sine-to-eigen noise projection on the element mesh, an exact zero pad on
    the sine backend.  The path aborts with BlowUpError once
    Integrator.sanitize excludes it.
    """
    n_steps = config.steps()
    fem = config.backend == "fem"
    noise_modes = config.noise_modes or (config.elements if fem else config.modes)
    problem = make_problem(
        f=config.f, g=config.g, sigma=config.sigma, delta0=config.delta0,
        modes=noise_modes if fem else config.modes,
        noise=power_covariance(noise_modes, config.noise_decay),
    )
    if fem:
        ops = fem_mod.assemble(config.elements)
        initial = fem_mod.initial_coefficients(ops, problem)
        cmap_t = fem_mod.noise_projection_matrix(ops, noise_modes).T
    else:
        ops = spectral_discretization(config.modes)
        initial = None
        cmap_t = np.eye(noise_modes, config.modes)
    trace_fn = trace_operator(problem.noise, ops)
    integ = Integrator(config.variant, config.tau, problem, ops,
                       _batched_initial(problem, ops, 1, initial), config.predictor,
                       trace_fn=trace_fn)
    rows = np.empty((n_steps + 1, len(_TRAJECTORY_FIELDS)))
    s, v0 = integ.state, integ.energy()
    rows[0] = np.concatenate([v0, v0 - s.q**2 + (s.rad - problem.delta0), s.q, [0.0, 0.0],
                              trace_fn(problem.g(s.vals))])
    streams = [RngStream(config.seed, 0)]
    for n, dw in enumerate(increments(problem.noise, config.tau, n_steps, streams), 1):
        diag = integ.step(dw @ cmap_t, diagnostics=True)
        if integ.sanitize(np.zeros(1, dtype=bool))[0]:
            raise BlowUpError(
                f"modified energy {diag.V[0]:.3e} exceeded {ENERGY_GUARD:.1e} at step {n}")
        rows[n] = np.concatenate([getattr(diag, name) for name in _TRAJECTORY_FIELDS])
    steps = np.arange(n_steps + 1)
    return problem, dict(zip(_TRAJECTORY_FIELDS, rows.T), step=steps, time=steps * config.tau)


def cmd_simulate(config, out_dir, svg=False):
    problem, columns = _trajectory(config)
    header = ["step", "time", *_TRAJECTORY_FIELDS[:-1]]
    rows = zip(*(columns[name] for name in header))
    tail = covariance_tail(problem.noise)
    footer = [f"seed={config.seed}", f"scheme={config.variant}", f"backend={config.backend}"]
    if tail is not None:
        footer.append(f"noise_tail={_fmt(tail)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "simulate.csv"
    write_csv(path, header, rows, footer)
    if svg:
        sv = svg_plot(
            [("V", columns["time"], columns["V"]), ("V1", columns["time"], columns["V1"])],
            title="trajectory energies", xlabel="t", ylabel="energy",
        )
        (out_dir / "simulate.svg").write_text(sv)
    print(f"wrote {path}")
    return 0


def _converge_study(config, paper_scale):
    return ConvergenceStudy(
        f=config.f, g=config.g, sigma=config.sigma, delta0=config.delta0,
        modes=config.modes, noise_decay=config.noise_decay, T=config.T,
        tau_exps=tuple(config.tau_exps),
        ref_exp=14 if paper_scale else config.ref_exp,
        schemes=tuple(config.schemes), predictor=config.predictor,
        reference_scheme=config.reference_scheme or None, norm=config.norm,
        realizations=1000 if paper_scale else config.realizations,
        seed=config.seed, chunk=config.chunk,
    )


def cmd_converge(config, out_dir, svg=False, workers=1, paper_scale=False):
    try:
        study = _converge_study(config, paper_scale)
    except ValueError as exc:  # the only study check RunConfig.validate leaves: T
        raise ConfigError(f"invalid value for time.T: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    result = strong_convergence(study, workers=workers)
    rows = []
    footer = []
    for sch in result.per_scheme:
        for tau, rms, se in zip(sch.taus, sch.rms_error, sch.stderr):
            rows.append((sch.scheme, tau, rms, se, sch.excluded))
        footer.append(
            f"scheme={sch.scheme} slope={_fmt(sch.slope)} intercept={_fmt(sch.intercept)} "
            f"seed={study.seed}"
        )
    path = out_dir / "converge.csv"
    write_csv(path, ["scheme", "tau", "rms_error", "stderr", "excluded_paths"], rows, footer)
    if svg:
        series = [(s.scheme, s.taus, s.rms_error) for s in result.per_scheme]
        notes = [f"{s.scheme}: slope {s.slope:.3f}" for s in result.per_scheme]
        sv = svg_plot(series, title="terminal error vs step size", xlabel="tau",
                      ylabel="rms error", loglog=True, annotations=notes)
        (out_dir / "converge.svg").write_text(sv)
    for s in result.per_scheme:
        print(f"{s.scheme}: slope = {s.slope:.4f} (excluded {s.excluded})")
    print(f"wrote {path}")
    return 0


def cmd_energy(config, out_dir, svg=False, workers=1, paper_scale=False):
    try:
        study = EnergyStudy(
            f=config.f, g=config.g, sigma=config.sigma, delta0=config.delta0,
            modes=config.modes, noise_decay=config.noise_decay, T=config.T, tau=config.tau,
            scheme=config.variant, predictor=config.predictor,
            realizations=5000 if paper_scale else config.realizations,
            seed=config.seed, chunk=config.chunk,
        )
    except ValueError as exc:  # the only study check RunConfig.validate leaves: tau divides T
        raise ConfigError(f"invalid value for time.tau: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    result = energy_evolution(study, workers=workers)
    rows = [
        (n, t, m, se, p)
        for n, (t, m, se, p) in enumerate(
            zip(result.times, result.mean_V, result.stderr_V, result.predicted_V)
        )
    ]
    path = out_dir / "energy.csv"
    write_csv(path, ["step", "time", "mean_V", "stderr_V", "predicted_V"], rows,
              [f"seed={study.seed} scheme={study.scheme} realizations={study.realizations}"])
    if svg:
        sv = svg_plot(
            [("mean V", result.times, result.mean_V),
             ("predicted", result.times, result.predicted_V)],
            title="averaged energy evolution", xlabel="t", ylabel="E[V]",
        )
        (out_dir / "energy.svg").write_text(sv)
    print(f"wrote {path}")
    return 0


def cmd_check(name_filter=None, seed=20260810, mutations=()):
    from .checks import invariant_suite

    results = invariant_suite(name_filter=name_filter, seed=seed,
                              mutations=frozenset(mutations))
    if not results:
        print(f"no checks match filter '{name_filter}'", file=sys.stderr)
        return 1
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{mark}] {r.name}: measured {r.value:.6g}, bound {r.bound}{detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="savwave",
        description="Auxiliary-variable integrators for the 1-d stochastic wave equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "converge", "energy"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--svg", action="store_true", help="also emit an SVG plot")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (affects speed only, never results)")
        p.add_argument("--paper-scale", action="store_true",
                       help="restore publication-scale realization counts")
    pc = sub.add_parser("check")
    pc.add_argument("--filter", type=str, default=None, help="run only checks with this prefix")
    pc.add_argument("--seed", type=int, default=20260810)
    pc.add_argument("--mutate", type=str, default=None, choices=["unbalanced-table"],
                    help="deliberately break the named piece; the check run must fail")
    args = parser.parse_args(argv)

    if args.command == "check":
        if args.seed < 0:
            print(f"config error: invalid value for --seed: {args.seed} (must be >= 0)",
                  file=sys.stderr)
            return 2
        mutations = {"unbalanced_table"} if args.mutate == "unbalanced-table" else set()
        return cmd_check(args.filter, seed=args.seed, mutations=mutations)

    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        config = load_config(args.config, overrides)
        out_dir = Path(config.out_dir)
        if args.command != "simulate" and (config.backend != "spectral" or config.noise_modes):
            key, value = (("space.backend", config.backend) if config.backend != "spectral"
                          else ("noise.modes", config.noise_modes))
            raise ConfigError(f"invalid value for {key}: {value} (simulate only; "
                              f"{args.command} runs the sine backend on space.modes modes)")
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, svg=args.svg)
        if args.command == "converge":
            return cmd_converge(config, out_dir, svg=args.svg, workers=args.workers,
                                paper_scale=args.paper_scale)
        if args.command == "energy":
            return cmd_energy(config, out_dir, svg=args.svg, workers=args.workers,
                              paper_scale=args.paper_scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, ModelViolationError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
