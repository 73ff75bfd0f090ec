"""Independent ground truths used to check the solvers.

Inner-parallel-set optima for the Hausdorff problem (exact when the
container's boundary curvature stays above the offset distance), the p = 1
perimeter identity, an exhaustive small-grid search, and the candidate
shape for the reverse isoperimetric triangle conjecture.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeometryError,
    SupportSamples,
    TWO_PI,
    container_area,
    convexity_residuals,
    core_measures,
    curvature_floor,  # re-exported: the bound within which the oracle applies
    grid_constants,
    inner_parallel,
    nodal_area,
    perimeter_from_support,
    powered_energy,
    support_samples,
)
from .multistart import per_cpu_map

BRUTE_FORCE_MAX_POINTS = 1e8


class OracleNotApplicable(RuntimeError):
    """The analytic characterization does not cover the requested case."""


def inner_parallel_optimum(container, alpha):
    """(offset d, inner parallel body) solving the Hausdorff problem exactly.

    Valid whenever the required offset stays within the curvature floor r
    of the container.  With container = core + rB (`geometry.core_measures`)
    the body at d = r - rho has area |core| + P(core) rho + pi rho^2, so rho
    is that quadratic's positive root at alpha |K|, written without
    cancellation.  An offset beyond the floor, or one that reaches it on a
    core without area (alpha = 0, or alpha below about 1e-32, in a disk or
    stadium: no interior is left), raises OracleNotApplicable.
    """
    if not 0.0 <= alpha <= 1.0:
        raise GeometryError("area fraction alpha must lie in [0, 1]")
    if alpha == 1.0:
        return 0.0, container
    core_area, core_perimeter, floor = core_measures(container)
    excess = alpha * container_area(container) - core_area
    if excess < 0.0:
        raise OracleNotApplicable(
            f"area fraction {alpha:g} needs an offset beyond the curvature floor {floor:g}"
        )
    root = math.sqrt(core_perimeter**2 + 4.0 * math.pi * excess)
    rho = 2.0 * excess / (core_perimeter + root) if excess > 0.0 else 0.0
    d = max(floor - rho, 0.0)  # rho may round above the floor as alpha nears 1
    if d == floor and core_area == 0.0:
        raise OracleNotApplicable(
            f"area fraction {alpha:g} leaves no interior: the offset reaches the curvature floor {floor:g}"
        )
    return d, inner_parallel(container, d)


def perimeter_identity_check(container, shape):
    """|J_1 - (P(container) - P(shape))| in the common rectangle rule.

    Exact (to rounding) for feasible shapes: the clamp in J_1 never fires
    when h <= h_container at every node.
    """
    h_c = support_samples(container, shape.n)
    j1 = powered_energy(shape.values, h_c.values, 1.0)[0]
    return abs(j1 - (perimeter_from_support(h_c) - perimeter_from_support(shape)))


@dataclass
class BruteForceReport:
    values: SupportSamples
    energy: float
    powered_value: float
    area_slack: float
    widened: bool


def brute_force_nodal(container, n, p, alpha, grid_resolution):
    """Exhaustive scan of nodal shapes on a per-node value grid.

    Each h_j ranges over `grid_resolution` equal steps in [0, h_C(theta_j)];
    kept points satisfy every discrete convexity residual >= 0 and match the
    target area within `area_slack` = the largest single-grid-step area
    change at the container configuration (widened once, by 4x, if nothing
    qualifies).  Points score their powered gap, at p = inf their largest
    gap; the chosen point's `powered_value` and `energy` are
    `powered_energy`'s, as in `solve_nodal`.  Where a chunk's best finite-p
    score is 0, subnormal or inf (large p), its feasible points are ranked
    by `powered_energy`'s scale-safe J_p instead.  Ties break to the
    lowest enumeration index.  The outer grid dimension is scanned in
    chunks, one per CPU (`per_cpu_map`); the best of each chunk is exact
    and the reduction keeps the lowest (energy, index) pair, so the report
    is bitwise the same for any number of processes.
    """
    G = int(grid_resolution)
    if G < 2:
        raise GeometryError("grid resolution must be >= 2")
    if G ** int(n) > BRUTE_FORCE_MAX_POINTS:  # exact: 25^256 overflows a float
        raise GeometryError(f"{G}^{n} grid points exceed the {BRUTE_FORCE_MAX_POINTS:.0e} cap")
    h_c = support_samples(container, n).values
    if np.min(h_c) <= 0:
        raise GeometryError("brute force needs the origin inside the container")
    area_total, area_grad = nodal_area(h_c)
    target = alpha * area_total
    steps = h_c / (G - 1)
    area_slack = float(np.max(np.abs(area_grad) * steps))

    kappa = grid_constants(n)[1]
    w = TWO_PI / n
    hausdorff = np.isinf(p)
    tail = np.stack(
        np.meshgrid(*[np.arange(G)] * (n - 1), indexing="ij"), axis=-1
    ).reshape(-1, n - 1)

    def scan_chunk(i0, slack):
        """(energy, grid_index, values, powered) of the best feasible point, or None."""
        H = np.empty((tail.shape[0], n))
        H[:, 0] = i0 * steps[0]
        H[:, 1:] = tail * steps[1:]
        c = convexity_residuals(H)
        feas = np.all(c >= 0.0, axis=1)
        area = kappa * np.sum(H * c, axis=1)
        feas &= np.abs(area - target) <= slack
        if not np.any(feas):
            return None
        gaps = np.maximum(h_c - H, 0.0)
        if hausdorff:
            score = np.max(gaps, axis=1)
        else:
            with np.errstate(over="ignore", under="ignore"):
                score = w * np.sum(gaps**p, axis=1)
        score[~feas] = np.inf
        k = int(np.argmin(score))
        if not (hausdorff or sys.float_info.min <= score[k] < np.inf):
            # the plain scores under- or overflow: rank the feasible rows by J_p
            rows = np.nonzero(feas)[0]
            k = int(rows[np.argmin([powered_energy(H[i], h_c, p)[1] for i in rows])])
        powered, energy, _ = powered_energy(H[k], h_c, p)
        return energy, i0 * tail.shape[0] + k, H[k].copy(), powered

    def full_scan(slack):
        """The chunks' best: lowest energy, ties to the lowest grid index."""
        found = [out for out in per_cpu_map(lambda i: scan_chunk(i, slack), G) if out is not None]
        return min(found, key=lambda out: out[:2], default=None)

    best = full_scan(area_slack)
    widened = False
    if best is None:
        widened = True
        best = full_scan(4.0 * area_slack)
    if best is None:
        raise OracleNotApplicable(
            f"no feasible grid point within area slack {4 * area_slack:g}"
        )
    energy, _, values, powered = best
    return BruteForceReport(
        values=SupportSamples(values),
        energy=energy,
        powered_value=powered,
        area_slack=4.0 * area_slack if widened else area_slack,
        widened=widened,
    )


def triangle_conjecture_candidate(vertices, alpha):
    """Conjectured reverse-isoperimetric optimum in a triangle container.

    Relabels the vertices so the first two span the diameter (the longest
    side) with the larger angle first, then slides M along [A, C] until
    triangle MAB carries the requested area fraction.  Returns (chain,
    relabeled) with the chain in CCW order.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.shape != (3, 2):
        raise GeometryError("triangle needs exactly 3 vertices")
    if not 0.0 <= alpha <= 1.0:
        raise GeometryError("area fraction alpha must lie in [0, 1]")
    sides = [
        (float(np.linalg.norm(pts[i] - pts[j])), i, j)
        for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    _, i, j = max(sides)
    k = 3 - i - j

    def angle_at(v, w1, w2):
        d1, d2 = w1 - v, w2 - v
        return float(
            np.arccos(
                np.clip(d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2)), -1.0, 1.0)
            )
        )

    a_idx, b_idx = i, j
    if angle_at(pts[a_idx], pts[b_idx], pts[k]) < angle_at(pts[b_idx], pts[a_idx], pts[k]):
        a_idx, b_idx = b_idx, a_idx
    relabeled = (a_idx, b_idx, k) != (0, 1, 2)
    A, B, C = pts[a_idx], pts[b_idx], pts[k]
    M = A + alpha * (C - A)
    chain = np.array([M, A, B])
    d1, d2 = chain[1] - chain[0], chain[2] - chain[0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        chain = chain[::-1].copy()
    return chain, relabeled
