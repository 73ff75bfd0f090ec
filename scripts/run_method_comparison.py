#!/usr/bin/env python3
"""Compare the Fourier-coefficient method against the nodal method (cold and
warm-started from the Fourier solution) on one (p, alpha) cell.

    python scripts/run_method_comparison.py --container square --p 10 --alpha 0.7
"""

import argparse

from convexfit.experiments import StudyConfig, compare_methods
from convexfit.geometry import named_container


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--container", default="square")
    ap.add_argument("--p", type=float, default=10.0)
    ap.add_argument("--alpha", type=float, default=0.7)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--n-f", type=int, default=32)
    ap.add_argument("--m", type=int, default=720)
    ap.add_argument("--q", type=int, default=1024)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="out/compare")
    args = ap.parse_args()

    cfg = StudyConfig(
        named_container(args.container),
        args.container,
        alphas=(args.alpha,),
        ps=(args.p,),
        n=args.n,
        n_f=args.n_f,
        m=args.m,
        q=args.q,
        seeds=args.seeds,
        base_seed=args.base_seed,
        output_dir=args.out,
    )
    report = compare_methods(cfg)
    for key in ("energy_fourier", "energy_nodal_cold", "energy_nodal_warm"):
        if key in report:
            print(f"{key:>20s} = {report[key]:.6f}")
    print(f"histories and figures in {args.out}/")


if __name__ == "__main__":
    main()
