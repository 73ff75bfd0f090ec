#!/usr/bin/env python3
"""Trace the value curve alpha -> f(alpha) for one container and exponent.

    python scripts/run_f_curve.py --container disk --p 2 \
        --alphas 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9
"""

import argparse

from convexfit.experiments import StudyConfig, f_curve
from convexfit.geometry import named_container


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--container", default="disk")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument(
        "--alphas", type=float, nargs="+",
        default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    )
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", default="out/fcurve")
    args = ap.parse_args()

    cfg = StudyConfig(
        named_container(args.container),
        args.container,
        alphas=tuple(args.alphas),
        ps=(args.p,),
        n=args.n,
        seeds=args.seeds,
        base_seed=args.base_seed,
        output_dir=args.out,
    )
    rows, violation = f_curve(cfg)
    for row in rows:
        print(f"alpha={row['alpha']:.2f}  f={row['f_value']:.6f}  {row['status']}")
    print(f"max upward violation: {violation:.3e}")


if __name__ == "__main__":
    main()
