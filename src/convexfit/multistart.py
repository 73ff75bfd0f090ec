"""Shared multistart driver for the two discretizations.

Every start is solved independently with a deterministic RNG stream derived
from (base_seed, start_index); raw starts and polished points are pooled and
the best feasible candidate wins.  A feasible warm start can therefore never
be beaten by a worse "solution": descent only polishes it downward.
"""

from __future__ import annotations

import numpy as np

from .solver import SolverAbort, SolverParams, feasibility_bound, solve_nlp, violation


class InfeasibleError(RuntimeError):
    """No feasible start or iterate was found."""


def seed_key(base_seed, index):
    if isinstance(base_seed, (tuple, list)):
        return [int(s) for s in base_seed] + [int(index)]
    return [int(base_seed), int(index)]


def run_multistart(nlp, starts, params, energy_fn):
    """Solve from every start, pool starts and finals, keep the best feasible.

    A solved point is feasible when its solver did not call it infeasible,
    a raw start when its violation is within `feasibility_bound`.  Strictly
    lowest energy wins; ties within 1e-12 go to the lowest start index, and
    within a start the polished point beats the raw one.
    `params` None means the default SolverParams().  Returns (best,
    failures, outcomes) with best = (energy, start_idx, rank, x, NlpResult
    or None), or best = None when nothing was feasible.
    """
    params = params or SolverParams()
    feas = feasibility_bound(nlp, params)

    def run(idx, x0):
        try:
            return idx, solve_nlp(nlp, x0, params)
        except SolverAbort as exc:
            return idx, exc

    outcomes = [run(idx, x0) for idx, x0 in enumerate(starts)]

    candidates = []  # (energy, start_idx, rank, x, result)
    failures = []
    for (idx, outcome), x0 in zip(outcomes, starts):
        if isinstance(outcome, SolverAbort):
            failures.append(f"start {idx}: {outcome}")
            result = None
        else:
            result = outcome
            if result.status != "infeasible":
                candidates.append((energy_fn(result.x), idx, 0, result.x, result))
        if violation(nlp, x0)[0] <= feas:
            candidates.append((energy_fn(x0), idx, 1, x0, result))

    best = None
    for cand in candidates:
        if best is None:
            best = cand
            continue
        if cand[0] < best[0] - 1e-12:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-12 and (cand[1], cand[2]) < (best[1], best[2]):
            best = cand
    return best, failures, outcomes


def best_status(best):
    """(status, reason) of the winning candidate; reason is empty when converged.

    A polished point carries its solver's status and outer exit reason; a
    raw start that was kept is feasible but its optimality is not certified.
    """
    _, idx, rank, _, result = best
    if result is None:
        return "max_iter", f"start {idx} kept its raw point: the solve aborted"
    if rank != 0:
        return "max_iter", (
            f"start {idx} kept its raw point: the solved point ({result.reason}) "
            "was worse or infeasible"
        )
    if result.status == "converged":
        return "converged", ""
    return result.status, (
        f"not certified: solver stopped at {result.reason} "
        f"(KKT residual {result.kkt_residual:.1e}, violation {result.max_violation:.1e})"
    )


def best_violation_message(failures, outcomes):
    finals = [o for _, o in outcomes if not isinstance(o, SolverAbort)]
    worst = min((r.max_violation for r in finals), default=np.inf)
    return (
        "no feasible point found by any start "
        f"(best violation {worst:.3e}; {'; '.join(failures) or 'no aborts'})"
    )
