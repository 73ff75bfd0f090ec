"""Shared multistart driver for the two discretizations.

Every start is solved independently with a deterministic RNG stream derived
from (base_seed, start_index); raw starts and polished points are pooled and
the best feasible candidate wins.  A feasible warm start can therefore never
be beaten by a worse "solution": descent only polishes it downward.  Both
solves return the winner as a `SolveResult`.

The starts are solved one per CPU: `per_cpu_map` deals them to this
process and to forked children.  A solve is a pure function of the problem,
its start and the parameters, so every result is bitwise that of the serial
loop, whatever the number of processes.  `per_cpu_map` is convexfit's one
way to use several CPUs; the exhaustive oracle scans its grid through it too.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError, SupportSamples, _integer
from .solver import (
    NlpResult, SolverAbort, SolverParams, certified, check_kkt, feasibility_bound, solve_nlp, violation
)


class InfeasibleError(RuntimeError):
    """No feasible start or iterate was found."""


def check_seeds(seeds, base_seed):
    """GeometryError unless `seeds` is an integer >= 0 and `base_seed` is one
    or a list or tuple of them."""
    parts = base_seed if isinstance(base_seed, (tuple, list)) else [base_seed]
    for value, what in [(seeds, "seeds")] + [(s, "base_seed") for s in parts]:
        _integer(value, what)
        if value < 0:
            raise GeometryError(f"{what} must be >= 0, got {value!r}")


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
    solver's for a solved point; a kept raw point is "converged" when the
    KKT check certifies it with its solve's multipliers, else "max_iter".
    `message` joins the aborts of every start and, unless the status is
    "converged", why the winner is not certified.
    """

    x: np.ndarray
    energy: float
    start: int
    kept_raw: bool
    result: NlpResult | None
    status: str
    message: str


@dataclass
class SolveResult:
    """Outcome of a multistart shape optimization.

    `energy` is the reported J_p = (powered objective)^(1/p); for the minimax
    formulation it is the optimal slack t (the Hausdorff distance estimate).
    `sigma_normalized` is the cross-p comparable value
    ((1/2pi) * powered)^(1/p), equal to `energy` for p = inf.
    """

    samples: SupportSamples
    energy: float
    powered_value: float
    sigma_normalized: float
    p: float
    area: float
    area_residual: float
    kkt_residual: float
    status: str
    history: list = field(default_factory=list)
    wall_time: float = 0.0
    base_seed: object = 0
    best_start: int = -1
    fourier_coefficients: tuple[np.ndarray, np.ndarray] | None = None
    message: str = ""

    @classmethod
    def from_winner(cls, winner, **fields):
        """A result whose solve-tail fields come from a multistart Winner.

        The winner gives `energy`, `kkt_residual`, `status`, `history`,
        `best_start` and `message`; `fields` are the discretization's own.
        """
        result = winner.result
        return cls(
            energy=winner.energy,
            kkt_residual=result.kkt_residual if result is not None else np.inf,
            status=winner.status,
            history=result.history if result is not None else [],
            best_start=winner.start,
            message=winner.message,
            **fields,
        )


def _workers(count):
    """Processes to map `count` indices in: one per CPU of the affinity mask.

    1 (no fork) for a single index, off Linux, and while this process runs
    more than one OS thread, such as a multithreaded BLAS's: a forked child
    inherits only the forking thread, and locks the others held stay held.
    """
    if count < 2:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return min(count, cpus) if threads == 1 else 1


def _portable(exc):
    """`exc` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve(read, write, fn, indices):
    """Forked child: map `fn` over `indices` and pickle the reply into fd `write`.

    The reply is (outcomes, None), or (outcomes so far, (index, exception,
    traceback text)) when `fn` raised.  The child exits here, with code 1
    and no reply on an interrupt or a failed write, and never returns into
    its caller's frames.
    """
    code = 1
    try:
        os.close(read)
        outcomes, failure = [], None
        try:
            for i in indices:
                outcomes.append(fn(i))
        except Exception as exc:  # the parent raises it again
            import traceback  # here, not at the top: it adds 0.35 MB to every process's peak RSS

            failure = (i, _portable(exc), traceback.format_exc())
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((outcomes, failure), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def per_cpu_map(fn, count):
    """[fn(i) for i in range(count)], computed one per CPU.

    The indices are dealt round-robin over `_workers` processes: this one
    keeps index 0, and each forked child sends its outcomes back pickled
    through a pipe, so `fn` must return picklable values.  An exception
    in this process propagates; a child's is raised again here, chained to
    a RuntimeError that names its index as a start and carries the child's
    traceback.  No child outlives the call.
    """
    workers = _workers(count)
    children = []  # (pid, read end of its pipe, its indices)
    replies = None
    try:
        for first in range(1, workers):
            indices = range(first, count, workers)
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(read, write, fn, indices)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), indices))
        outcomes = [None] * count
        for i in range(0, count, workers):
            outcomes[i] = fn(i)
        # read each reply to its end before reaping: a reply larger than
        # the pipe's buffer blocks its writer until it is read
        replies = [pipe.read() for _, pipe, _ in children]
    finally:
        codes = []
        for pid, pipe, _ in children:
            pipe.close()
            if replies is None:  # this process raised: stop the children
                import signal

                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (_, _, indices), reply, code in zip(children, replies, codes):
        if code != 0:
            raise RuntimeError(f"the worker process for starts {list(indices)} exited with code {code}")
        done, failure = pickle.loads(reply)
        if failure is not None:
            index, exc, text = failure
            raise exc from RuntimeError(f"start {index} raised in a worker process:\n{text}")
        for i, outcome in zip(indices, done):
            outcomes[i] = outcome
    return outcomes


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

    def solve(i):
        try:
            return solve_nlp(nlp, starts[i], params)
        except SolverAbort as exc:
            return exc.with_traceback(None)  # keeps no frames alive

    for idx, (x0, result) in enumerate(zip(starts, per_cpu_map(solve, len(starts)))):
        if isinstance(result, SolverAbort):
            failures.append(f"start {idx}: {result}")
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
        # solve_nlp's own test, with its solve's multipliers
        if certified(check_kkt(nlp, x, result.ineq_multipliers, result.eq_multiplier), params, feas):
            status, reason = "converged", ""
        else:
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
