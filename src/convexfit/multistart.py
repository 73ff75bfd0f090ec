"""Shared multistart driver for the two discretizations.

Every start is solved independently with a deterministic RNG stream derived
from (base_seed, start_index); raw starts and polished points are pooled and
the best feasible candidate wins.  A feasible warm start can therefore never
be beaten by a worse "solution": descent only polishes it downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import NlpResult, SolverAbort, SolverParams, feasibility_bound, solve_nlp, violation


class InfeasibleError(RuntimeError):
    """No feasible start or iterate was found."""


def seed_key(base_seed, index):
    if isinstance(base_seed, (tuple, list)):
        return [int(s) for s in base_seed] + [int(index)]
    return [int(base_seed), int(index)]


@dataclass
class Winner:
    """The best feasible candidate of a multistart run.

    `start` is the index of the start it came from, and `kept_raw` is true
    when that start's raw point beat its solved one.  `result` is the
    start's NlpResult, None when its solve aborted.  `status` is the
    solver's for a solved point and "max_iter" for a kept raw point, whose
    optimality is not certified.  `message` joins the aborts of every start
    and, unless the status is "converged", why the winner is not certified.
    """

    x: np.ndarray
    energy: float
    start: int
    kept_raw: bool
    result: NlpResult | None
    status: str
    message: str


def run_multistart(nlp, starts, params, energy_fn):
    """Solve from every start, pool starts and finals, return the best feasible.

    A solved point is feasible when its solver did not call it infeasible,
    a raw start when its violation is within `feasibility_bound`.  Strictly
    lowest `energy_fn` wins; ties within 1e-12 go to the lowest start index,
    and within a start the solved point beats the raw one.  `params` None
    means the default SolverParams().  Returns the Winner; raises
    InfeasibleError, naming the smallest final violation and every abort,
    when no candidate is feasible.
    """
    params = params or SolverParams()
    feas = feasibility_bound(nlp, params)
    candidates = []  # (energy, start, kept_raw, x, result)
    failures = []
    closest = np.inf  # smallest violation of a solved point
    for idx, x0 in enumerate(starts):
        try:
            result = solve_nlp(nlp, x0, params)
        except SolverAbort as exc:
            failures.append(f"start {idx}: {exc}")
            result = None
        else:
            closest = min(closest, result.max_violation)
            if result.status != "infeasible":
                candidates.append((energy_fn(result.x), idx, False, result.x, result))
        if violation(nlp, x0)[0] <= feas:
            candidates.append((energy_fn(x0), idx, True, x0, result))
    if not candidates:
        raise InfeasibleError(
            "no feasible point found by any start "
            f"(best violation {closest:.3e}; {'; '.join(failures) or 'no aborts'})"
        )

    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] < best[0] - 1e-12 or (abs(cand[0] - best[0]) <= 1e-12 and cand[1:3] < best[1:3]):
            best = cand
    energy, idx, kept_raw, x, result = best
    if result is None:
        status, reason = "max_iter", f"start {idx} kept its raw point: the solve aborted"
    elif kept_raw:
        status, reason = "max_iter", (
            f"start {idx} kept its raw point: the solved point ({result.reason}) "
            "was worse or infeasible"
        )
    elif result.status == "converged":
        status, reason = "converged", ""
    else:
        status, reason = result.status, (
            f"not certified: solver stopped at {result.reason} "
            f"(KKT residual {result.kkt_residual:.1e}, violation {result.max_violation:.1e})"
        )
    message = "; ".join(filter(None, failures + [reason]))
    return Winner(x, energy, idx, kept_raw, result, status, message)
