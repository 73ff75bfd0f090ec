"""The benchmark's workloads and the correctness gate applied to their results.

Each workload drives convexfit only through its public API, with the
default solver parameters and no random starts (`seeds=0`): an execution
then takes 4-12 s and does the same work for every seed, so a run can take
the median of several (execution times vary by 10-20 % on a shared 2-vCPU
VM).  `toy=True` shrinks every workload (N = 32) for the harness
self-test, keeping the same code path.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Feasibility tolerance of the shape solvers (`feas_tol` of their default
# SolverParams), scaled like the solver does by max(1, |rhs|).  The checks
# recompute the residuals with their own arithmetic, so they get 1 % slack
# for rounding against the solver's matrix rows.
FEAS_TOL = 1e-8
ROUNDING_SLACK = 1.01
T_STAR_TOL = 5e-3  # minimax slack against the inner-parallel offset
# J_1 - (P(container) - P(shape)) = (2 pi / N) sum max(h - h_C, 0) exactly:
# zero for a shape inside the container, at most 2 pi FEAS_TOL for a shape
# that overshoots inclusion by no more than the feasibility tolerance.
PERIMETER_TOL = 2.0 * math.pi * FEAS_TOL * ROUNDING_SLACK
ORDER_TOL = 1e-9  # sigma_p nondecreasing in p and <= sigma_inf


@dataclass
class Outcome:
    """What one workload execution produced."""

    energy: float  # sum of the reported J_p over the workload's solves
    solves: list  # (problem, SolveResult) per solve that returned
    study_failures: dict = field(default_factory=dict)  # solve index -> [message]


@dataclass(frozen=True)
class Workload:
    run: object  # (convexfit, seed, toy, captured results, scratch dir) -> Outcome
    solves: int  # solves one execution attempts


def _nodal_disk_p8(cf, seed, toy, captured, scratch):
    prob = cf.NodalProblem(cf.named_container("disk"), n=32 if toy else 256, p=8.0, alpha=0.25)
    res = cf.solve_nodal(prob, seeds=0, base_seed=seed)
    return Outcome(energy=res.energy, solves=[(prob, res)])


def _fourier_square_p10(cf, seed, toy, captured, scratch):
    n_samples = 32 if toy else 256
    # m = 768 is compare_methods' alignment of its default 720 to N = 256
    prob = cf.FourierProblem(
        cf.named_container("square"),
        n_f=8 if toy else 32,
        m=64 if toy else 768,
        q=128 if toy else 1024,
        p=10.0,
        alpha=0.7,
    )
    res = cf.solve_fourier(prob, seeds=0, base_seed=seed, n_samples=n_samples)
    return Outcome(energy=res.energy, solves=[(prob, res)])


def _sweep_disk_n128(cf, seed, toy, captured, scratch):
    from convexfit import experiments

    container = cf.named_container("disk")
    cfg = experiments.StudyConfig(
        container,
        container_name="disk",
        alphas=(0.25,),
        ps=(1.0, 2.0, 8.0, 32.0),
        n=32 if toy else 128,
        seeds=0,
        base_seed=seed,
        output_dir=scratch,
    )
    rows, r_inf = experiments.gamma_sweep(cfg)
    solves = [(prob, res) for name, prob, res in captured if name in ("solve_nodal", "solve_minimax")]
    energy = r_inf.energy + sum(row["energy"] for row in rows)
    return Outcome(
        energy=energy,
        solves=solves,
        study_failures=_sweep_checks(cf, container, rows, r_inf, solves),
    )


WORKLOADS = {
    # one cold N = 256 nodal solve: dense matvecs, the Newton seed and the
    # area callable dominate; the Fourier, study and export layers are idle
    "nodal_disk_p8": Workload(_nodal_disk_p8, solves=1),
    # the Fourier baseline: dense seed, every inner loop ends at max_inner;
    # the nodal layer is idle, so nodal changes must not move it
    "fourier_square_p10": Workload(_fourier_square_p10, solves=1),
    # gamma sweep at N = 128: a minimax and four small warm solves (p = 32,
    # 8, 2, 1), so per-call overhead, multistart selection and exports weigh
    # more; an O(N) kernel that loses at small N shows here
    "sweep_disk_n128": Workload(_sweep_disk_n128, solves=5),
}


def run(name, cf, seed, toy, captured):
    """Execute workload `name`; `captured` collects the entry points'
    (name, problem, result).  Returns an Outcome."""
    scratch_root = Path(__file__).resolve().parent.parent / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        return WORKLOADS[name].run(cf, seed, toy, captured, scratch)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _feasibility(cf, prob, res):
    """Recompute inclusion, convexity and area residual of a returned shape."""
    if res.status == "infeasible":
        return ["status infeasible"]
    if isinstance(prob, cf.FourierProblem):
        x = np.concatenate(res.fourier_coefficients)
        (inc_rows, inc_rhs), (cvx_rows, _) = cf.assemble_linear_constraints(prob)
        inclusion = inc_rows @ x - inc_rhs
        convexity = cvx_rows @ x
        area_residual = (cf.fourier_area(x)[0] - prob.target_area) / prob.container_area
        bscale = max(1.0, float(np.max(np.abs(inc_rhs))))
    else:
        v = res.samples.values
        h_c = cf.support_samples(prob.container, v.size).values
        inclusion = v - h_c
        convexity = cf.convexity_residuals(v)
        area_c = cf.nodal_area(h_c)[0]
        area_residual = (cf.nodal_area(v)[0] - prob.alpha * area_c) / area_c
        bscale = max(1.0, float(np.max(np.abs(h_c))))
    tol = FEAS_TOL * bscale * ROUNDING_SLACK
    out = []
    for label, value in (
        ("inclusion", float(np.max(inclusion))),
        ("convexity", float(-np.min(convexity))),
        ("area", abs(float(area_residual))),
    ):
        if not value <= tol:
            out.append(f"{label} violation {value:.3e} > {tol:.3e}")
    return out


def _nodal_anchor_energy(cf, prob):
    """Energy of the scaled-copy anchor start: sqrt(alpha) (h_C - z.u) + z.u."""
    from convexfit.geometry import interior_point, unit_vector

    h_c = cf.support_samples(prob.container, prob.n).values
    theta = 2.0 * np.pi * np.arange(prob.n) / prob.n
    zu = unit_vector(theta) @ interior_point(prob.container)
    gap = np.maximum(h_c - (math.sqrt(prob.alpha) * (h_c - zu) + zu), 0.0)
    if math.isinf(prob.p):
        return float(np.max(gap))
    return float((2.0 * np.pi / prob.n * np.sum(gap**prob.p)) ** (1.0 / prob.p))


def _fourier_anchor_energy(cf, prob):
    """Energy of the Fourier anchor start: the container truncation scaled
    to the target area about an interior point, blended toward a small
    interior disk until every constraint row holds."""
    from convexfit.geometry import interior_point

    (inc_rows, inc_rhs), (cvx_rows, _) = cf.assemble_linear_constraints(prob)
    rows = np.vstack([inc_rows, -cvx_rows])
    rhs = np.concatenate([inc_rhs, np.zeros(prob.m)])
    z = interior_point(prob.container)
    shift = np.zeros(prob.dim)
    shift[1], shift[prob.n_f + 1] = z
    deep = shift.copy()
    deep[0] = 0.5 * float(np.min(inc_rhs - inc_rows @ shift))
    trunc = cf.truncate_container(prob.container, prob.n_f).to_vector()
    s = math.sqrt(prob.target_area / cf.fourier_area(trunc)[0])
    anchor = s * trunc + (1.0 - s) * shift
    over, under = rows @ anchor - rhs, rows @ deep - rhs
    bad = over > 0.0
    lam = 1.0
    if np.any(bad):
        lam = max(0.0, min(1.0, float(np.min(-under[bad] / (over[bad] - under[bad])))))
    x = lam * anchor + (1.0 - lam) * deep
    return cf.fourier_objective(x, prob)[0] ** (1.0 / prob.p)


def _energy_checks(cf, prob, res):
    out = []
    fourier = isinstance(prob, cf.FourierProblem)
    anchor = _fourier_anchor_energy(cf, prob) if fourier else _nodal_anchor_energy(cf, prob)
    # a minimax energy is its slack t, which may exceed the largest gap by
    # the feasibility tolerance
    if not res.energy <= anchor + FEAS_TOL * max(1.0, anchor):
        out.append(f"energy {res.energy:.10g} above the anchor start's {anchor:.10g}")
    if fourier:
        return out
    try:
        d, _ = cf.inner_parallel_optimum(prob.container, prob.alpha)
    except cf.OracleNotApplicable:
        return out
    if math.isinf(prob.p):
        if not abs(res.energy - d) <= T_STAR_TOL:
            out.append(f"t* {res.energy:.10g} not within {T_STAR_TOL} of the inner-parallel {d:.10g}")
    else:
        # the inner parallel body is feasible, so it bounds the optimum
        ceiling = (2.0 * np.pi) ** (1.0 / prob.p) * d
        if not res.energy <= ceiling * (1.0 + 1e-9):
            out.append(f"energy {res.energy:.10g} above the inner-parallel body's {ceiling:.10g}")
    return out


def _sweep_checks(cf, container, rows, r_inf, solves):
    """Study-level checks of gamma_sweep, keyed by the index in `solves`."""
    out = {}
    by_p = {res.p: i for i, (_, res) in enumerate(solves)}
    sigma_inf = r_inf.energy
    previous = -math.inf
    for row in rows:  # ascending p
        sigma = row["sigma_normalized"]
        idx = by_p.get(row["p"], -1)
        if not sigma >= previous - ORDER_TOL:
            out.setdefault(idx, []).append(f"sigma_{row['p']:g} = {sigma:.10g} below sigma at lower p")
        if not sigma <= sigma_inf + ORDER_TOL:
            out.setdefault(idx, []).append(f"sigma_{row['p']:g} = {sigma:.10g} above sigma_inf {sigma_inf:.10g}")
        previous = sigma
    if 1.0 in by_p:
        shape = solves[by_p[1.0]][1].samples
        residual = cf.perimeter_identity_check(container, shape)
        if not residual <= PERIMETER_TOL:
            out.setdefault(by_p[1.0], []).append(f"perimeter identity residual {residual:.3e}")
    return out


def check(cf, name, outcome, reference, energy_bound):
    """Failed solves of one execution: (count, messages).

    A solve fails when it did not return (InfeasibleError, SolverAbort),
    returned an infeasible shape, or failed an energy or study check.  A
    miss against the per-seed reference energy fails the workload's first
    solve.
    """
    failed, messages = 0, []
    expected = WORKLOADS[name].solves
    missing = expected - len(outcome.solves)
    if missing > 0:
        failed += missing
        messages.append(f"{missing} of {expected} solves returned no result")
    for i, (prob, res) in enumerate(outcome.solves):
        problems = _feasibility(cf, prob, res) + _energy_checks(cf, prob, res)
        problems += outcome.study_failures.get(i, [])
        if i == 0 and reference is not None and not outcome.energy <= reference * (1.0 + energy_bound):
            problems.append(
                f"energy {outcome.energy:.10g} worse than the seed's reference {reference:.10g} "
                f"by more than {energy_bound:.0%}"
            )
        if problems:
            failed += 1
            messages += [f"solve {i} (p = {res.p:g}): {m}" for m in problems]
    return failed, messages
