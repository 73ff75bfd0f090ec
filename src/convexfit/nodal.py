"""Nodal discretization: optimize the support values (h_0, ..., h_{N-1}) on
the uniform angular grid.

Convexity of the candidate shape is the rigorous discrete condition
h_{j+1} + h_{j-1} - 2 h_j cos(2*pi/N) >= 0, which captures boundary
segments exactly (a slack constraint means a straight edge).  Inclusion in
the container and the quadratic area equality complete the program; p = inf
is handled by an epigraph slack variable, never by a huge finite exponent.

The constraint stencils are circulant, so the Gauss-Newton seed handed to
the solver is pentadiagonal plus rank one.  It is still filled into a dense
matrix and solved by np.linalg.solve, O(N^3) per Newton step, which is
where large-N solves spend most of their time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeometryError,
    SupportSamples,
    _clip_halfplane,
    _integer,
    container_scale,
    convexity_residuals,
    gap_model,
    grid_angles,
    grid_constants,
    interior_point,
    powered_energy,
    support_samples,
    unit_vector,
)
from .multistart import run_multistart, seed_key
from .results import SolveResult
from .solver import NlpProblem

INIT_SCALE_RANGE = (0.3, 1.0)


@dataclass
class NodalProblem:
    """Container, grid size, exponent (math.inf allowed) and area fraction.

    The area target is alpha times the *discrete* container area, so that
    alpha = 1 is exactly feasible on every grid.  A container whose discrete
    area rounds to 0 or below (a sliver) is refused.
    """

    container: object
    n: int = 256
    p: float = 2.0
    alpha: float = 0.5

    def __post_init__(self):
        _integer(self.n, "n")
        if self.n < 3:
            raise GeometryError("nodal grid needs n >= 3")
        if not self.p >= 1.0:
            raise GeometryError("exponent p must be >= 1 (or inf)")
        if not 0.0 <= self.alpha <= 1.0:
            raise GeometryError("area fraction alpha must lie in [0, 1]")
        self.container_values = support_samples(self.container, self.n).values
        area = self.container_area_discrete = nodal_area(self.container_values)[0]
        if not area > 0.0:
            raise GeometryError(f"container has no area on the {self.n}-point grid ({area:.3g})")
        self.target_area = self.alpha * area

    @property
    def angles(self):
        return grid_angles(self.n)


def _values(h):
    return h.values if isinstance(h, SupportSamples) else np.asarray(h, dtype=float)


def nodal_area(h):
    """Discrete area (pi/N)/(2-2cos(2pi/N)) * sum h_j c_j and its gradient.

    Exact for constants: h == r gives pi r^2 on every grid.
    """
    v = _values(h)
    kappa = grid_constants(v.size)[1]
    c = convexity_residuals(v)
    return float(kappa * np.sum(v * c)), 2.0 * kappa * c


@dataclass
class ConstraintReport:
    inclusion: np.ndarray  # h_C(theta_j) - h_j, feasible when >= 0
    convexity: np.ndarray  # c_j, feasible when >= 0
    area_residual: float  # (area - target) / |container|, feasible when ~ 0

    @property
    def max_violation(self):
        return max(
            float(np.max(-self.inclusion, initial=0.0)),
            float(np.max(-self.convexity, initial=0.0)),
            abs(self.area_residual),
        )


def nodal_constraints(h, prob):
    v = _values(h)
    area, _ = nodal_area(v)
    return ConstraintReport(
        inclusion=prob.container_values - v,
        convexity=convexity_residuals(v),
        area_residual=(area - prob.target_area) / prob.container_area_discrete,
    )


def energy_of(h, prob):
    """Energy J_p of a candidate, J_inf (its largest gap) included."""
    return powered_energy(_values(h), prob.container_values, prob.p)[1]


def convexify(values):
    """Largest discretely-convex minorant of the given nodal values.

    Equals the sampled support function of the polygon cut out by the
    half-planes <x, u(theta_j)> <= v_j, so the result is exactly feasible
    for the discrete convexity condition.  (Iterative local averaging of
    the violating nodes converges to the same kind of minorant, but needs
    far more than 10 N sweeps to clear the last 1e-8; the polygon route is
    exact and O(N^2).)  Only ever lowers values, preserving inclusion.
    """
    v = np.asarray(values, dtype=float)
    u = unit_vector(grid_angles(v.size))
    r = 2.0 * float(np.max(np.abs(v))) + 1.0
    pts = np.array([[r, r], [-r, r], [-r, -r], [r, -r]])
    for u_j, v_j in zip(u, v):
        pts = _clip_halfplane(pts, u_j, v_j)
        if len(pts) < 3:
            raise GeometryError("convexification emptied the shape")
    return np.min(np.stack([np.max(pts @ u.T, axis=0), v]), axis=0)


# ---------------------------------------------------------------------------
# multistart plumbing
# ---------------------------------------------------------------------------


def _anchor_start(prob, zu):
    """Copy of the container scaled about the interior point to the exact
    target area (the frequency-1 part is area-neutral, so the factor is
    sqrt(alpha))."""
    radial = prob.container_values - zu
    return math.sqrt(prob.alpha) * radial + zu


def _random_start(prob, zu, rng):
    radial = prob.container_values - zu
    lo, hi = INIT_SCALE_RANGE
    v = rng.uniform(lo, hi, size=prob.n) * radial + zu
    v = convexify(v)
    w = v - zu
    area = nodal_area(w)[0]
    if area > 1e-12 * max(prob.target_area, 1.0):
        s = math.sqrt(max(prob.target_area, 0.0) / area)
        pos = w > 1e-14
        if np.any(pos):
            s = min(s, float(np.min(radial[pos] / w[pos])))
        v = s * w + zu
    return v


def _prepare_init(init, prob):
    v = _values(init)
    if v.size != prob.n:
        raise GeometryError(f"warm start has {v.size} nodes, problem needs {prob.n}")
    return convexify(np.minimum(v, prob.container_values))


def _gather_starts(prob, init, seeds, base_seed):
    zu = unit_vector(prob.angles) @ interior_point(prob.container)
    starts = []
    if init is not None:
        starts.append(_prepare_init(init, prob))
    starts.append(_anchor_start(prob, zu))
    for i in range(seeds):
        rng = np.random.default_rng(seed_key(base_seed, i))
        starts.append(_random_start(prob, zu, rng))
    return starts, zu


def _area_equality(prob):
    """Area equality on the nodal values x[:N], scaled by the container area."""
    scale = prob.container_area_discrete
    n = prob.n

    def equality(x):
        area, grad = nodal_area(x[:n])
        if x.size == n:
            return (area - prob.target_area) / scale, grad / scale
        g = np.zeros(x.size)
        g[:n] = grad / scale
        return (area - prob.target_area) / scale, g

    return equality


def _nodal_nlp(prob, objective, curvature, equality, gap_rhs=None, slack=False):
    """The nodal program as an NlpProblem, with its Newton seed attached.

    Rows are inclusion h_j <= h_C(theta_j) and convexity c_j >= 0.  With
    `gap_rhs`, one gap row per node follows: -h_j <= `gap_rhs`_j (box rows
    h_j >= h_C - t for a fixed t), or with `slack` -h_j - t <= `gap_rhs`_j
    over (h, t), the slack t last (epigraph rows h_C - h_j <= t).  These
    are the rows `_h0_builder` assumes.  `curvature(x)` is the objective's
    diagonal Hessian over h; `equality` (value, gradient) may be None.
    """
    n = prob.n
    eye = np.eye(n)
    # row j of convexity_residuals(I) is C e_j, column j of the stencil
    # matrix C; C is symmetric, so these rows are C itself
    rows = np.vstack([eye, -convexity_residuals(eye)])
    rhs = np.concatenate([prob.container_values, np.zeros(n)])
    if gap_rhs is not None:
        k = int(slack)
        rows = np.block([[rows, np.zeros((2 * n, k))], [-eye, -np.ones((n, k))]])
        rhs = np.concatenate([rhs, gap_rhs])
    nlp = NlpProblem(
        dim=rows.shape[1],
        objective=objective,
        ineq_matrix=rows,
        ineq_rhs=rhs,
        equality=equality,
    )
    nlp.h0_builder = _h0_builder(nlp, n, curvature)
    return nlp


def _h0_builder(nlp, n, obj_hess_diag):
    """The Gauss-Newton seed for the solver, filled band by band.

    The active normal matrix rho A_act^T A_act is diagonal (inclusion and
    gap rows) plus C^T D C for the convexity stencil, i.e. pentadiagonal
    with circular wrap; a slack column (dimension N + 1) borders it, and
    the equality gradient the solver hands over adds a rank-one term.  Rows
    beyond the first 2N are gap rows.  The raveled positions of the band, gap
    and slack entries are fixed per problem.  At every step one np.bincount
    sums the weights that share a position (gap rows meet the diagonal, and
    the wrapped bands overlap at N = 3 and 4) in the order they are listed,
    and the sums go onto rho eg eg^T.  The matrix is dense (dim x dim) and
    np.linalg.solve factors it at every apply: O(N^3), about half of an
    N = 512 solve.
    """
    two_cos = grid_constants(n)[0]
    dim = nlp.dim
    has_gap, has_slack = nlp.n_ineq > 2 * n, dim > n
    idx = np.arange(n)
    up1, up2, down1 = (idx + 1) % n, (idx + 2) % n, (idx - 1) % n
    # entries in summation order: diagonal, band 1 above and below, band 2
    # above and below, then the gap diagonal and the slack border
    rows = [idx, idx, up1, idx, up2]
    cols = [idx, up1, idx, up2, idx]
    if has_gap:
        rows.append(idx)
        cols.append(idx)
        if has_slack:
            rows += [idx, np.full(n, n), [n]]
            cols += [np.full(n, n), idx, [n]]
    raveled = np.concatenate(rows) * dim + np.concatenate(cols)
    positions, bins = np.unique(raveled, return_inverse=True)
    diagonal = slice(None, None, dim + 1)  # of H.ravel()

    def builder(x, act, rho, eq_grad):
        d_inc = act[:n].astype(float)
        d_cvx = act[n : 2 * n].astype(float)
        d_next = d_cvx[up1]
        diag = np.asarray(obj_hess_diag(x))[:n] + rho * d_inc
        diag += rho * (d_cvx[down1] + two_cos**2 * d_cvx + d_next)
        band1 = -two_cos * rho * (d_cvx + d_next)
        band2 = rho * d_next
        weights = [diag, band1, band1, band2, band2]
        if has_gap:
            d_gap = act[2 * n :].astype(float)
            w_gap = rho * d_gap
            weights.append(w_gap)
            if has_slack:
                weights += [w_gap, w_gap, [rho * float(np.sum(d_gap))]]
        sums = np.bincount(bins, weights=np.concatenate(weights), minlength=positions.size)
        H = rho * np.outer(eq_grad, eq_grad) if eq_grad is not None else np.zeros((dim, dim))
        view = H.ravel()  # H is contiguous, so this writes into H
        view[positions] += sums
        view[diagonal] += 1e-8 * max(1.0, float(np.max(diag, initial=1.0)))

        def apply(q):
            return np.linalg.solve(H, q)

        return apply

    return builder


def _program(prob, zu):
    """The nodal program for the problem's p: (nlp, lift, measure), with
    measure(x) -> (powered, energy, sigma) of a point of the program.

    Finite p minimizes the powered gap over h, scaled by the anchor's
    largest gap (`geometry.gap_model`); starts are used as they are and
    the measure is `powered_energy`.  p = inf minimizes t over (h, t) with
    every gap h_C - h_j <= t: `lift` gives a start its largest gap as
    slack, and the measure is (inf, t, t), the optimal t being the
    Hausdorff-distance estimate.  t is clamped at 0: it may sit up to the
    feasibility bound below the largest gap, which is 0 at alpha = 1.
    """
    if not math.isinf(prob.p):
        objective, curvature = gap_model(
            prob.container_values, prob.p, _anchor_start(prob, zu), container_scale(prob.container)
        )
        nlp = _nodal_nlp(prob, lambda x: objective(x)[:2], curvature, _area_equality(prob))
        return nlp, lambda v: v, lambda x: powered_energy(x, prob.container_values, prob.p)

    n = prob.n

    def slack_objective(x):
        g = np.zeros(n + 1)
        g[-1] = 1.0
        return float(x[-1]), g

    def lift(v):
        return np.concatenate([v, [float(np.max(prob.container_values - v)) * (1.0 + 1e-9) + 1e-12]])

    nlp = _nodal_nlp(
        prob, slack_objective, lambda x: np.zeros(n), _area_equality(prob),
        gap_rhs=-prob.container_values, slack=True,
    )

    def measure(x):
        t = max(float(x[-1]), 0.0)
        return math.inf, t, t

    return nlp, lift, measure


def solve_nodal(prob, init=None, seeds=4, base_seed=0, params=None):
    """Best-of-multistart solve of the nodal problem, for every p.

    `init` (a SupportSamples warm start) is clipped into the container and
    convexified, then competes with the deterministic scaled-copy anchor and
    `seeds` random feasible starts.  `_program` chooses the program for p
    and its measure, which ranks the starts and gives the reported values
    (at p = inf the slack t clamped at 0, the Hausdorff-distance estimate).
    """
    t0 = time.perf_counter()
    starts, zu = _gather_starts(prob, init, seeds, base_seed)
    nlp, lift, measure = _program(prob, zu)
    winner = run_multistart(nlp, [lift(v) for v in starts], params, lambda x: measure(x)[1])
    values = winner.x[: prob.n]
    report = nodal_constraints(values, prob)
    powered, _, sigma = measure(winner.x)
    return SolveResult.from_winner(
        winner,
        samples=SupportSamples(values),
        powered_value=powered,
        sigma_normalized=sigma,
        p=prob.p,
        area=nodal_area(values)[0],
        area_residual=report.area_residual,
        max_inclusion_violation=float(np.max(-report.inclusion, initial=0.0)),
        min_convexity_residual=float(np.min(report.convexity)),
        wall_time=time.perf_counter() - t0,
        base_seed=base_seed,
        n_starts=len(starts),
    )
