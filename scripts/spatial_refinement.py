#!/usr/bin/env python3
"""Element-space refinement against a 256-mode sine reference on shared noise."""

import argparse
from pathlib import Path

from savwave.cli import seed_arg, svg_plot, write_csv
from savwave.harness import SpatialStudy, spatial_refinement


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--seed", type=seed_arg, default=12345)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--svg", action="store_true")
    args = p.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    study = SpatialStudy(f="sine", g="sine", ref_modes=256, h_exps=(3, 4, 5, 6),
                         T=1.0, tau=2.0**-9, realizations=100, seed=args.seed, chunk=25)
    res = spatial_refinement(study, workers=args.workers)
    for h, e in zip(res.widths, res.rms_error):
        print(f"h = {h:.5f}: rms error {e:.4e}")
    print(f"fitted slope: {res.slope:.4f}")
    path = args.out / "spatial_refinement.csv"
    write_csv(path, ["h", "rms_error"], list(zip(res.widths, res.rms_error)),
              [f"slope={res.slope:.6f} seed={args.seed}"])
    print(f"wrote {path}")
    if args.svg:
        doc = svg_plot([("fem vs sine reference", res.widths, res.rms_error)],
                       title="terminal error vs mesh width", xlabel="h",
                       ylabel="rms error", loglog=True,
                       annotations=[f"slope {res.slope:.3f}"])
        (args.out / "spatial_refinement.svg").write_text(doc)
        print(f"wrote {args.out / 'spatial_refinement.svg'}")


if __name__ == "__main__":
    main()
