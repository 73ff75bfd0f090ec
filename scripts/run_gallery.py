#!/usr/bin/env python3
"""Solve a (p, alpha) grid on one container and write one figure per cell.

    python scripts/run_gallery.py --container square --ps 1 2 8 --alphas 0.2 0.5 0.8
"""

import argparse

from convexfit.experiments import StudyConfig, shape_gallery
from convexfit.geometry import named_container


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--container", default="square")
    ap.add_argument("--ps", type=float, nargs="+", default=[1, 2, 8])
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    ap.add_argument("--n", type=int, default=192)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="out/gallery")
    args = ap.parse_args()

    cfg = StudyConfig(
        named_container(args.container),
        args.container,
        alphas=tuple(args.alphas),
        ps=tuple(args.ps),
        n=args.n,
        seeds=args.seeds,
        base_seed=args.base_seed,
        output_dir=args.out,
    )
    rows = shape_gallery(cfg)
    for row in rows:
        print(
            f"p={row['p']:<4g} alpha={row['alpha']:<4g} energy={row['energy']:.6f} "
            f"area={row['area']:.6f} {row['status']}"
        )
    print(f"figures in {args.out}/")


if __name__ == "__main__":
    main()
