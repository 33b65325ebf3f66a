#!/usr/bin/env python3
"""Temporal order study: terminal error vs step size for both integrators.

Runs the two standard configurations (linear and sine drift, sine diffusion)
on coupled paths against a small-step reference and prints the fitted
slopes.  Desk scale by default; --paper-scale restores the full realization
count and the finer reference.
"""

import argparse
from pathlib import Path

import numpy as np

from savwave.cli import seed_arg, svg_plot, write_csv
from savwave.harness import ConvergenceStudy, strong_convergence


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--seed", type=seed_arg, default=12345)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--svg", action="store_true")
    return p.parse_args()


def main():
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    realizations = 1000 if args.paper_scale else 200
    ref_exp = 14 if args.paper_scale else 13
    rows = []
    footer = []
    series = []
    for f, g in (("linear", "sine"), ("sine", "sine")):
        study = ConvergenceStudy(
            f=f, g=g, modes=64, T=1.0, tau_exps=(8, 9, 10, 11, 12), ref_exp=ref_exp,
            realizations=realizations, seed=args.seed, chunk=25,
        )
        result = strong_convergence(study, workers=args.workers)
        for sch in result.per_scheme:
            label = f"f={f}, {sch.scheme}"
            print(f"{label}: slope = {sch.slope:.4f}")
            for tau, rms, se in zip(sch.taus, sch.rms_error, sch.stderr):
                rows.append((f, g, sch.scheme, tau, rms, se, sch.excluded))
            footer.append(f"f={f} g={g} scheme={sch.scheme} slope={sch.slope:.6f}")
            series.append((label, sch.taus, sch.rms_error))
    path = args.out / "temporal_order.csv"
    write_csv(path, ["f", "g", "scheme", "tau", "rms_error", "stderr", "excluded"],
              rows, footer)
    print(f"wrote {path}")
    if args.svg:
        notes = footer + [f"order-1 guide: error ~ tau"]
        doc = svg_plot(series + [("tau (guide)", series[0][1], 0.3 * np.asarray(series[0][1]))],
                       title="terminal L2 error vs step size", xlabel="tau",
                       ylabel="rms error", loglog=True, annotations=notes[:4])
        (args.out / "temporal_order.svg").write_text(doc)
        print(f"wrote {args.out / 'temporal_order.svg'}")


if __name__ == "__main__":
    main()
