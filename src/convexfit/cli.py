"""Command-line interface.

Subcommands take a YAML configuration file (see README for the schema) and
write deterministic CSV/SVG outputs.  Exit codes: 0 success, 1 solver
infeasibility, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ConfigError, parse_config, serialize_config
from .exports import (
    export_csv,
    export_fourier_csv,
    export_history_csv,
    export_study_csv,
    export_svg,
    fourier_figure,
    load_overlay_csv,
)
from .experiments import (
    compare_methods,
    equivalence_probe,
    f_curve,
    gamma_sweep,
    shape_gallery,
)
from .fourier import FourierProblem, FourierShape, solve_fourier
from .geometry import GeometryError
from .multistart import InfeasibleError
from .nodal import NodalProblem, solve_nodal
from .oracles import OracleNotApplicable, brute_force_nodal


def _load_config(path, args):
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    flags = {"base_seed": args.seed, "output_dir": args.output_dir}
    return parse_config(text, {key: value for key, value in flags.items() if value is not None})


def _emit_solve(cfg, result, tag):
    export_csv(result.samples, cfg.out_path(f"shape_{tag}.csv"))
    export_history_csv(result.history, cfg.out_path(f"history_{tag}.csv"))
    figure = result.samples
    if result.fourier_coefficients is not None:
        a, b = result.fourier_coefficients
        export_fourier_csv(FourierShape(a, b), cfg.out_path(f"coefficients_{tag}.csv"))
        figure = fourier_figure(figure)
    export_svg(cfg.container, [figure], cfg.out_path(f"shape_{tag}.svg"))
    print(
        f"{tag}: energy={result.energy:.9g} area={result.area:.9g} "
        f"area_residual={result.area_residual:.3g} status={result.status} "
        f"wall_time={result.wall_time:.2f}s"
    )
    if result.message:  # why the run is not certified, and any start that aborted
        print(f"{tag}: {result.message}")


def _cmd_solve(cfg):
    warm = None
    if cfg.method in ("fourier", "both"):
        prob = FourierProblem(cfg.container, n_f=cfg.n_f, m=cfg.m, q=cfg.q, p=cfg.p, alpha=cfg.alpha)
        warm = solve_fourier(prob, seeds=cfg.seeds, base_seed=cfg.base_seed, n_samples=cfg.n)
        _emit_solve(cfg, warm, "fourier")
    if cfg.method != "fourier":  # nodal or both
        result = solve_nodal(
            NodalProblem(cfg.container, n=cfg.n, p=cfg.p, alpha=cfg.alpha),
            init=warm.samples if warm else None, seeds=cfg.seeds, base_seed=cfg.base_seed,
        )
        _emit_solve(cfg, result, "minimax" if math.isinf(cfg.p) else "nodal")
    return 0


def _cmd_sweep_p(cfg):
    if cfg.ps is None:
        raise ConfigError("sweep-p requires the `ps` list", "ps")
    rows, _ = gamma_sweep(cfg)
    for row in rows:
        print(
            f"p={row['p']:g} sigma={row['sigma_normalized']:.9g} "
            f"sigma_inf={row['sigma_infinity']:.9g} status={row['status']}"
        )
    return 0


def _cmd_sweep_alpha(cfg):
    if cfg.alphas is None:
        raise ConfigError("sweep-alpha requires the `alphas` list", "alphas")
    rows = shape_gallery(cfg)
    for row in rows:
        print(f"p={row['p']:g} alpha={row['alpha']:g} energy={row['energy']:.9g} status={row['status']}")
    return 0


def _cmd_compare(cfg):
    if math.isinf(cfg.p):
        raise ConfigError("compare-methods needs a finite exponent (its Fourier branch)", "p")
    report = compare_methods(cfg)
    for key in ("energy_fourier", "energy_nodal_cold", "energy_nodal_warm"):
        if key in report:
            print(f"{key} = {report[key]:.9g}")
    for key in ("fourier_error", "nodal_cold_error", "nodal_warm_error"):
        if key in report:
            print(f"{key}: {report[key]}", file=sys.stderr)
    if "energy_nodal_warm" not in report:
        return 1
    return 0


def _cmd_f_curve(cfg):
    if cfg.alphas is None:
        raise ConfigError("f-curve requires the `alphas` list", "alphas")
    rows, violation = f_curve(cfg)
    for row in rows:
        print(f"alpha={row['alpha']:g} f={row['f_value']:.9g} status={row['status']}")
    print(f"max_upward_violation = {violation:.3e}")
    return 0


def _cmd_equivalence(cfg):
    report = equivalence_probe(cfg)
    print(
        f"f_value={report['f_value']:.9g} target_area={report['target_area']:.9g} "
        f"recovered_area={report['recovered_area']:.9g} relative_gap={report['relative_gap']:.3e} "
        f"blended_energy={report['blended_energy']:.9g} stage1_beaten={report['stage1_beaten']}"
    )
    return 0


def _cmd_oracle(cfg):
    report = brute_force_nodal(cfg.container, cfg.n, cfg.p, cfg.alpha, cfg.oracle_grid)
    name = cfg.container_doc if isinstance(cfg.container_doc, str) else "custom"
    columns = ["name", "N", "p", "alpha", "G", "energy"]
    row = {
        "name": name, "N": cfg.n, "p": cfg.p, "alpha": cfg.alpha,
        "G": cfg.oracle_grid, "energy": report.energy,
    }
    export_study_csv(columns, [row], cfg.out_path(f"oracle_{name}_n{cfg.n}.csv"))
    export_csv(report.values, cfg.out_path(f"oracle_{name}_n{cfg.n}_shape.csv"))
    print(
        f"oracle energy={report.energy:.9g} area_slack={report.area_slack:.3g} "
        f"widened={report.widened}"
    )
    return 0


def _cmd_validate(cfg):
    sys.stdout.write(serialize_config(cfg))
    if cfg.defaults_applied:
        print(f"# defaults applied: {', '.join(cfg.defaults_applied)}")
    return 0


def _cmd_export_svg(cfg, *shape_paths):
    shapes = [load_overlay_csv(path, cfg.n) for path in shape_paths]
    path = cfg.out_path("shapes.svg")
    export_svg(cfg.container, shapes, path)
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "solve": _cmd_solve,
    "sweep-p": _cmd_sweep_p,
    "sweep-alpha": _cmd_sweep_alpha,
    "compare-methods": _cmd_compare,
    "f-curve": _cmd_f_curve,
    "equivalence": _cmd_equivalence,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
    "export-svg": _cmd_export_svg,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="convexfit",
        description="Convex inner approximations of planar convex containers.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")
    parser.add_argument("--output-dir", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="YAML configuration file")
        cmd.set_defaults(handler=handler, shapes=[])
    sub.choices["export-svg"].add_argument("shapes", nargs="*", help="shape or coefficient CSVs to overlay")

    args = parser.parse_args(argv)
    try:
        return args.handler(_load_config(args.config, args), *args.shapes)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, OracleNotApplicable) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
