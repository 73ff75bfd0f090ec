"""Scripted studies: convergence of the p-distance optima to the Hausdorff
optimum, Fourier-vs-nodal method comparison, the value curve alpha -> f(alpha),
the area/energy problem-equivalence probe, and boundary-polygonality metrics.

Every study is deterministic given (config, base seed): per-cell seeds are
derived as (base_seed, cell_index), cells run one after another, and output
CSV/SVG bytes are identical across reruns.  A sweep, f-curve or gallery
cell with no feasible start yields a NaN row with status
`infeasible(<reason>)`, and the study goes on (`_cell`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .fourier import FourierProblem, solve_fourier
from .geometry import (
    SupportSamples,
    TWO_PI,
    container_scale,
    convexity_residuals,
    grid_constants,
    hausdorff_from_supports,
    perimeter_from_support,
    support_samples,
)
from .multistart import InfeasibleError, seed_key
from .nodal import NodalProblem, blend_to_area, energy_of, min_area_at_energy, solve_nodal
from .solver import SolverParams
from . import exports


def StudyConfig(container, container_name="container", alphas=(0.5,), ps=(2.0,), output_dir=None, **settings):
    """The RunConfig of a study of `container` over the grids `alphas`/`ps`,
    whose first entries are its fixed `alpha`/`p`.  `settings` are the other
    RunConfig fields (n, n_f, m, q, seeds, base_seed); `output_dir=None`
    writes no files.
    """
    alphas, ps = [float(a) for a in alphas], [float(p) for p in ps]
    if not alphas or not ps:
        raise ValueError("alpha and p lists must be non-empty")
    return RunConfig(
        container, None, container_name, p=ps[0], alpha=alphas[0], alphas=alphas, ps=ps,
        output_dir=output_dir, **settings,
    )


def _maybe_svg(cfg, samples, name):
    if cfg.output_dir is not None and name is not None:
        exports.export_svg(cfg.container, [samples], cfg.out_path(name))


def _maybe_csv(cfg, study, columns, rows):
    """Write the study table `<study>_<container_name>.csv` when output is on."""
    if cfg.output_dir is not None:
        exports.export_study_csv(columns, rows, cfg.out_path(f"{study}_{cfg.container_name}.csv"))


def _solve(cfg, index, p, alpha, svg, init=None):
    """The nodal solve of one (p, alpha) cell with the cell's seed; writes
    the figure named `svg` unless it is None."""
    result = solve_nodal(
        NodalProblem(cfg.container, n=cfg.n, p=p, alpha=alpha),
        init=init,
        seeds=cfg.seeds,
        base_seed=seed_key(cfg.base_seed, index),
    )
    _maybe_svg(cfg, result.samples, svg)
    return result


def _cell(cfg, columns, index, p, alpha, svg, init=None, **known):
    """One study cell: (result, row), or (None, row) when no start is feasible.

    Each column's value comes from `known` (which always holds `p` and
    `alpha`), else from the result's attribute of that name, else NaN.  A
    failed cell's status is `infeasible(<reason>)`.
    """
    known = {"p": p, "alpha": alpha, **known}
    try:
        result = _solve(cfg, index, p, alpha, svg, init)
    except InfeasibleError as exc:
        result = None
        known["status"] = f"infeasible({exc})"
    return result, {c: known[c] if c in known else getattr(result, c, math.nan) for c in columns}


GAMMA_COLUMNS = [
    "p",
    "sigma_normalized",
    "sigma_infinity",
    "hausdorff_to_minimax",
    "powered_value",
    "energy",
    "status",
]


def gamma_sweep(cfg):
    """Normalized optima across p against the Hausdorff optimum.

    Solves the minimax problem first, then walks the p grid downward,
    warm-starting each solve from the previous optimum.  The pointwise
    power-mean inequality then makes the reported normalized energies
    nondecreasing in p by construction, with each solve free to improve on
    its warm start.  Rows are emitted in ascending p.
    """
    r_inf = _solve(cfg, 0, math.inf, cfg.alpha, f"gamma_{cfg.container_name}_pinf.svg")
    rows = []
    chain = r_inf.samples
    for k, p in enumerate(sorted(cfg.ps, reverse=True)):
        res, row = _cell(
            cfg, GAMMA_COLUMNS, k + 1, p, cfg.alpha, f"gamma_{cfg.container_name}_p{p:g}.svg",
            init=chain, sigma_infinity=r_inf.energy,
        )
        if res is not None:
            chain = res.samples
            row["hausdorff_to_minimax"] = hausdorff_from_supports(res.samples, r_inf.samples)
        rows.append(row)
    rows.sort(key=lambda r: r["p"])
    _maybe_csv(cfg, "gamma", GAMMA_COLUMNS, rows)
    return rows, r_inf


COMPARE_COLUMNS = ["p", "alpha", "energy_fourier", "energy_nodal_cold", "energy_nodal_warm"]


def compare_methods(cfg):
    """Fourier solve vs nodal solves (cold and warm-started from Fourier).

    All energies are evaluated on the common nodal grid.  The warm branch
    runs the same multistart as the cold branch plus the Fourier solution
    as an extra start, so its energy is at most the cold branch's.  The
    nodal area target is alpha times the discrete container area, not the
    exact one, so `solve_nodal` scales the clipped, convexified Fourier
    start to it when it breaks the area row.  The constraint grid m is
    rounded up to a multiple of n so the warm start inherits inclusion
    feasibility at the nodal angles.
    """
    p, alpha = cfg.p, cfg.alpha
    report = {"p": p, "alpha": alpha}
    m_aligned = cfg.m if cfg.m % cfg.n == 0 else (cfg.m // cfg.n + 1) * cfg.n
    nodal_prob = NodalProblem(cfg.container, n=cfg.n, p=p, alpha=alpha)

    def branch(key, solve, prob, **kwargs):
        """Solve into report[key] and report["energy_<key>"], writing the
        branch's figure and history; report["<key>_error"] if infeasible."""
        try:
            result = solve(prob, seeds=cfg.seeds, **kwargs)
        except InfeasibleError as exc:
            report[f"{key}_error"] = str(exc)
            return None
        report[key] = result
        report[f"energy_{key}"] = energy_of(result.samples, nodal_prob)
        figure = exports.fourier_figure(result.samples) if key == "fourier" else result.samples
        _maybe_svg(cfg, figure, f"compare_{cfg.container_name}_{key}.svg")
        if cfg.output_dir is not None:
            exports.export_history_csv(
                result.history, cfg.out_path(f"compare_{cfg.container_name}_{key}_history.csv")
            )
        return result

    f_prob = FourierProblem(cfg.container, n_f=cfg.n_f, m=m_aligned, q=cfg.q, p=p, alpha=alpha)
    fourier = branch("fourier", solve_fourier, f_prob, base_seed=seed_key(cfg.base_seed, 0), n_samples=cfg.n)
    nodal_seed = seed_key(cfg.base_seed, 1)
    branch("nodal_cold", solve_nodal, nodal_prob, base_seed=nodal_seed)
    if fourier is not None:
        branch("nodal_warm", solve_nodal, nodal_prob, init=fourier.samples, base_seed=nodal_seed)
    _maybe_csv(cfg, "compare", COMPARE_COLUMNS, [{c: report.get(c, math.nan) for c in COMPARE_COLUMNS}])
    return report


F_CURVE_COLUMNS = ["alpha", "f_value", "status"]


def f_curve(cfg):
    """Best energy as a function of the area fraction, plus monotonicity.

    Returns (rows, max_upward_violation): the theory says f decreases in
    alpha, so any increase between consecutive cells is solver noise.
    Each cell warm-starts from the last solved cell to its left.
    """
    p = cfg.p
    rows = []
    chain = None
    for k, alpha in enumerate(cfg.alphas):
        res, row = _cell(cfg, ("energy", "status"), k, p, alpha, None, init=chain)
        if res is not None:
            chain = res.samples
        rows.append({"alpha": alpha, "f_value": row["energy"], "status": row["status"]})
    values = [r["f_value"] for r in rows if np.isfinite(r["f_value"])]
    violation = max(
        (b - a for a, b in zip(values, values[1:])), default=0.0
    )
    _maybe_csv(cfg, "fcurve", F_CURVE_COLUMNS, rows)
    return rows, max(violation, 0.0)


EQUIVALENCE_COLUMNS = ["p", "alpha", "f_value", "target_area", "recovered_area", "area_gap"]


def equivalence_probe(cfg):
    """Solve min-energy-at-area, then min-area-at-that-energy, and compare.

    The second stage is `nodal.min_area_at_energy`; the report sets the
    area it recovers against the stage-one target.

    It also checks stage one globally.  Blending the stage-two shape toward
    the container to the target area keeps it convex and inside, and scales
    its gap, hence its energy, by 1 - lam.  `blended_energy` is that
    energy; `stage1_beaten` is true when it lies below the stage-one
    optimum by more than feas_tol * max(1, f), so stage one was not global.
    """
    p, alpha = cfg.p, cfg.alpha
    prob = NodalProblem(cfg.container, n=cfg.n, p=p, alpha=alpha)
    stage1 = solve_nodal(prob, seeds=cfg.seeds, base_seed=seed_key(cfg.base_seed, 0))
    f_val = stage1.energy
    try:
        winner = min_area_at_energy(prob, stage1, cfg.seeds, seed_key(cfg.base_seed, 1))
    except InfeasibleError as exc:
        raise InfeasibleError(f"area-minimization stage: {exc}") from None
    area = winner.energy
    blended = energy_of(blend_to_area(winner.x, prob.container_values, prob.target_area), prob)
    feas_tol = SolverParams().feas_tol
    report = {
        "p": p,
        "alpha": alpha,
        "f_value": f_val,
        "target_area": prob.target_area,
        "recovered_area": area,
        "area_gap": abs(area - prob.target_area),
        "relative_gap": abs(area - prob.target_area) / prob.container_area_discrete,
        "blended_energy": blended,
        "stage1_beaten": blended < f_val - feas_tol * max(1.0, f_val),
        "stage1": stage1,
        "stage2_samples": SupportSamples(winner.x),
    }
    _maybe_csv(cfg, "equivalence", EQUIVALENCE_COLUMNS, [{c: report[c] for c in EQUIVALENCE_COLUMNS}])
    return report


# Calibration of the boundary-structure report: FREE_GAP_REL scales the
# contact/free split by the container size; CURVATURE_REL scales the
# near-zero test by the contact curvature (or, for polygonal containers whose
# contact curvature is itself zero, by the mean curvature radius perimeter/2pi).
FREE_GAP_REL = 1e-4
CURVATURE_REL = 1e-3


@dataclass
class PolygonalityReport:
    n_nodes: int
    n_free: int
    n_contact: int
    near_zero_fraction: float
    segment_count: int
    curvature_scale: float
    threshold: float
    free_radii: np.ndarray = field(repr=False, default=None)


def polygonality_report(shape, container):
    """Classify free-boundary nodes by discrete curvature radius.

    A node is free when its gap to the container exceeds the free-gap
    threshold; among free nodes, those with curvature radius below the
    near-zero threshold lie on straight segments.  Maximal circular runs of
    near-zero free nodes estimate the segment count.
    """
    values = shape.values
    n = values.size
    h_c = support_samples(container, n).values
    gap = h_c - values
    radius = convexity_residuals(values) / (2.0 - grid_constants(n)[0])

    eps_free = FREE_GAP_REL * container_scale(container)
    free = gap > eps_free
    contact = ~free
    mean_radius = perimeter_from_support(shape) / TWO_PI
    scale = float(np.median(radius[contact])) if np.any(contact) else 0.0
    if scale <= 1e-9 * max(1.0, mean_radius):
        scale = mean_radius  # polygonal containers have zero contact curvature
    threshold = CURVATURE_REL * scale

    near_zero = free & (radius <= threshold)
    n_free = int(np.sum(free))
    fraction = float(np.sum(near_zero)) / n_free if n_free else 1.0

    # count maximal circular runs of near-zero nodes
    if not np.any(near_zero):
        segments = 0
    elif np.all(near_zero):
        segments = 1
    else:
        starts = near_zero & ~np.roll(near_zero, 1)
        segments = int(np.sum(starts))
    return PolygonalityReport(
        n_nodes=n,
        n_free=n_free,
        n_contact=int(np.sum(contact)),
        near_zero_fraction=fraction,
        segment_count=segments,
        curvature_scale=scale,
        threshold=threshold,
        free_radii=radius[free],
    )


GALLERY_COLUMNS = ["p", "alpha", "energy", "sigma_normalized", "area", "status"]


def shape_gallery(cfg):
    """Solve every (p, alpha) cell of the grid, `ps` falling back to the
    fixed p; one SVG per cell."""
    rows = []
    for i, p in enumerate(cfg.ps or [cfg.p]):
        for j, alpha in enumerate(cfg.alphas):
            svg = f"gallery_{cfg.container_name}_p{p:g}_a{alpha:g}.svg"
            rows.append(_cell(cfg, GALLERY_COLUMNS, i * len(cfg.alphas) + j, p, alpha, svg)[1])
    _maybe_csv(cfg, "gallery", GALLERY_COLUMNS, rows)
    return rows
