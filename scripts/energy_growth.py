#!/usr/bin/env python3
"""Averaged energy growth under additive noise for linear and sine drift.

The mean modified energy must climb the exact line V0 + n*(tau/2)*Tr(Q);
the script prints the worst z-score of the Monte Carlo mean against that
line and writes both curves.
"""

import argparse
from pathlib import Path

import numpy as np

from savwave.cli import seed_arg, svg_plot, write_csv
from savwave.harness import EnergyStudy, energy_evolution


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
    realizations = 5000 if args.paper_scale else 1000
    rows = []
    series = []
    for f in ("linear", "sine"):
        study = EnergyStudy(f=f, g="constant", sigma=1.0, modes=64, T=1.0, tau=2.0**-7,
                            realizations=realizations, seed=args.seed, chunk=250)
        res = energy_evolution(study, workers=args.workers)
        z = np.max(np.abs(res.mean_V[1:] - res.predicted_V[1:]) / res.stderr_V[1:])
        print(f"f={f}: V0 = {res.mean_V[0]:.4f}, terminal mean {res.mean_V[-1]:.4f}, "
              f"predicted {res.predicted_V[-1]:.4f}, worst z = {z:.2f}")
        for n, (t, m, se, pv) in enumerate(zip(res.times, res.mean_V, res.stderr_V,
                                               res.predicted_V)):
            rows.append((f, n, t, m, se, pv))
        series.append((f"f={f} mean", res.times, res.mean_V))
        series.append((f"f={f} predicted", res.times, res.predicted_V))
    path = args.out / "energy_growth.csv"
    write_csv(path, ["f", "step", "time", "mean_V", "stderr_V", "predicted_V"], rows,
              [f"seed={args.seed} realizations={realizations}"])
    print(f"wrote {path}")
    if args.svg:
        doc = svg_plot(series, title="averaged energy growth, additive noise",
                       xlabel="t", ylabel="E[V]")
        (args.out / "energy_growth.svg").write_text(doc)
        print(f"wrote {args.out / 'energy_growth.svg'}")


if __name__ == "__main__":
    main()
