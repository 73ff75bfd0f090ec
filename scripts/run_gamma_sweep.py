#!/usr/bin/env python3
"""Sweep the exponent p on a fixed container and watch the normalized optima
approach the Hausdorff optimum from below.

    python scripts/run_gamma_sweep.py --container disk --alpha 0.25 \
        --ps 1 2 4 8 16 32 64 --n 256 --out out/gamma
"""

import argparse

from convexfit.experiments import StudyConfig, gamma_sweep
from convexfit.geometry import named_container


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--container", default="disk")
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--ps", type=float, nargs="+", default=[1, 2, 4, 8, 16, 32, 64])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="out/gamma")
    args = ap.parse_args()

    cfg = StudyConfig(
        named_container(args.container),
        args.container,
        alphas=(args.alpha,),
        ps=tuple(args.ps),
        n=args.n,
        seeds=args.seeds,
        base_seed=args.base_seed,
        output_dir=args.out,
    )
    rows, r_inf = gamma_sweep(cfg)
    print(f"sigma_inf = {r_inf.energy:.8f}")
    for row in rows:
        print(
            f"p={row['p']:<6g} sigma={row['sigma_normalized']:.8f} "
            f"hausdorff_to_minimax={row['hausdorff_to_minimax']:.5f} status={row['status']}"
        )
    print(f"CSV and SVG files in {args.out}/")


if __name__ == "__main__":
    main()
