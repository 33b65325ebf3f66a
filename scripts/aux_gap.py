#!/usr/bin/env python3
"""Auxiliary-variable drift: mean worst gap |sqrt(F(u)+delta0) - q| per step size."""

import argparse
from pathlib import Path

import numpy as np

from savwave.cli import seed_arg, write_csv
from savwave.harness import AuxGapStudy, aux_gap_scaling
from savwave.schemes import SCHEMES


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--seed", type=seed_arg, default=12345)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--scheme", default="exponential", choices=tuple(SCHEMES))
    args = p.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    study = AuxGapStudy(f="sine", g="sine", modes=64, T=1.0, tau_exps=(6, 7, 8, 9, 10),
                        scheme=args.scheme, realizations=100, seed=args.seed, chunk=50)
    res = aux_gap_scaling(study, workers=args.workers)
    for tau, gap in zip(res.taus, res.mean_max_gap):
        print(f"tau = {tau:.6f}: mean max gap {gap:.4e}")
    print(f"halving ratios: {np.round(res.ratios, 3)}")
    path = args.out / "aux_gap.csv"
    write_csv(path, ["tau", "mean_max_gap"], list(zip(res.taus, res.mean_max_gap)),
              [f"ratios={','.join(f'{r:.4f}' for r in res.ratios)} seed={args.seed}"])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
