"""Augmented-Lagrangian solver for smooth objectives under linear inequality
constraints and one scalar equality constraint.

The outer loop is the classical safeguarded method of multipliers:
inequalities enter through the Powell-Hestenes-Rockafellar squared-hinge
term with multiplier estimates, the equality through the usual linear +
quadratic penalty.  Subproblems are minimized by damped Newton steps with
a backtracking Armijo search.  Every problem must supply the curvature
seed `h0_builder`, the active-set Gauss-Newton model of the augmented
Lagrangian, rebuilt at every inner iterate from the current point, the
active rows (lam + rho (A x - b) >= 0, from the residual the solver already
holds), the penalty rho and the equality gradient at the point.  It is what
makes the shape problems' nearly-degenerate convexity constraints
tractable; `dense_h0_builder` makes one from an objective Hessian.

The line search evaluates its trials along a ray.  At every accepted point
x the constraint residual r = A x - b is computed once, exactly, and A d
once per search direction d.  A trial at x + s d calls the objective and
equality callables but takes its hinge term from r + s A d: no matvec and
no gradient assembly.  The accepted trial keeps the value it was accepted
with as f(0) of the next search, and its gradient is completed there by
adding A^T t, t taken from the exact residual, to the gradients the trial
already returned.  The rounding of A x, which the penalty (up to 1e8)
multiplies, thus enters a search once, as one offset shared by all its
trials, instead of afresh in every trial.  Near the rounding floor a search
therefore accepts early or fails and ends the inner loop; with a fresh
matvec per trial it kept backtracking, 20 to 40 trials, until one trial's
rounding read as a decrease.  A search that accepts a step too small to
move x (x + s d rounds back to x) ends the inner loop too: every later
search would repeat it.

The solver draws no random numbers: identical inputs give bitwise
identical iteration histories.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


class SolverAbort(RuntimeError):
    """Objective or gradient became non-finite at the current iterate."""


@dataclass
class NlpProblem:
    """min f(x)  s.t.  A x <= b  and  g(x) = 0.

    `objective` and `equality` map x to (value, gradient); either constraint
    block may be absent (missing inequality rows become an empty block).
    All callables must be deterministic and return finite values near the
    feasible set.

    `h0_builder(x, active, rho, eq_grad) -> (q -> d)` supplies an
    approximate inverse Hessian of the augmented Lagrangian, rebuilt at
    every inner iterate; `active` is the boolean mask of the inequality rows
    in the hinge, lam + rho (A x - b) >= 0, and `eq_grad` is the gradient
    of `equality` at x (None without an equality), so that the builder need
    not evaluate the equality again.  `solve_nlp` requires it; it may be
    attached after construction, and `check_kkt` does not use it.
    """

    dim: int
    objective: object
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    equality: object | None = None
    h0_builder: object | None = None

    def __post_init__(self):
        if self.ineq_matrix is None:
            self.ineq_matrix, self.ineq_rhs = np.zeros((0, self.dim)), np.zeros(0)
        self.ineq_matrix = np.asarray(self.ineq_matrix, dtype=float)
        self.ineq_rhs = np.asarray(self.ineq_rhs, dtype=float)
        if self.ineq_matrix.shape != (self.ineq_rhs.size, self.dim):
            raise ValueError("inequality matrix/rhs shapes do not match dim")

    @property
    def n_ineq(self):
        return self.ineq_rhs.size


# Fixed policy of the method of multipliers and its line search.
RHO0 = 10.0  # start penalty
RHO_GROWTH = 10.0  # penalty factor when the violation fails to shrink
RHO_MAX = 1e8
VIOLATION_SHRINK = 4.0  # shrink factor that spares the penalty a raise
INNER_TOL_FLOOR = 1e-9  # relative to the start gradient's inf-norm
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40


@dataclass
class SolverParams:
    """The settable part of the solver, for Python callers: tolerances and budgets.

    The defaults are the shape solvers': tight feasibility and at most 150
    inner iterations per outer one (each inner iteration is a Newton step).
    """

    outer_tol: float = 1e-6
    feas_tol: float = 1e-8
    max_outer: int = 30
    max_inner: int = 150

    def __post_init__(self):
        for name in ("outer_tol", "feas_tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 < value <= sys.float_info.max):  # also rejects nan
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
            setattr(self, name, float(value))
        for name in ("max_outer", "max_inner"):
            budget = getattr(self, name)
            if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {budget!r}")


@dataclass
class OuterRecord:
    outer_iter: int
    inner_iters: int
    objective: float
    eq_residual: float
    max_violation: float
    stationarity: float
    al_evals: int = 0  # augmented-Lagrangian evaluations of the inner loop
    backtracks: int = 0  # rejected line-search trials of the inner loop


@dataclass
class NlpResult:
    x: np.ndarray
    objective: float
    ineq_multipliers: np.ndarray
    eq_multiplier: float
    kkt_residual: float
    max_violation: float
    history: list = field(default_factory=list)
    status: str = "converged"
    reason: str = "converged"  # outer exit: converged (certified) or max_outer (budget spent)


def violation(problem, x):
    """(max positive inequality overrun or |g|, g) at x."""
    v_ineq = float(np.max(problem.ineq_matrix @ x - problem.ineq_rhs, initial=0.0))
    g = 0.0
    if problem.equality is not None:
        g = float(problem.equality(x)[0])
    return max(v_ineq, abs(g)), g


def feasibility_bound(problem, params):
    """The largest violation that counts as feasible: feas_tol * max(1, |rhs|)."""
    return params.feas_tol * max(1.0, float(np.max(np.abs(problem.ineq_rhs), initial=0.0)))


def check_kkt(problem, x, ineq_multipliers=None, eq_multiplier=0.0):
    """KKT residual report at (x, multipliers).

    stationarity = ||grad f + A^T lambda + mu grad g|| / max(1, ||grad f||);
    primal = max constraint violation.
    """
    f, grad = problem.objective(x)
    r = grad.copy()
    if problem.n_ineq and ineq_multipliers is not None:
        r += problem.ineq_matrix.T @ np.asarray(ineq_multipliers, dtype=float)
    if problem.equality is not None:
        r += eq_multiplier * problem.equality(x)[1]
    primal, _ = violation(problem, x)
    stationarity = float(np.linalg.norm(r) / max(1.0, np.linalg.norm(grad)))
    return {
        "stationarity": stationarity,
        "primal": primal,
        "objective": float(f),
    }


def certified(report, params, feas):
    """Whether a `check_kkt` report certifies its point as converged: the
    stationarity within `params.outer_tol`, the violation within `feas`."""
    return report["stationarity"] <= params.outer_tol and report["primal"] <= feas


class _Augmented:
    """The augmented Lagrangian at fixed multipliers (lam, mu) and penalty rho.

    An evaluation is split so that a line search can take the hinge term
    from a residual it already has: `parts(z)` calls the problem's
    callables, `value(parts, r)` adds the hinge term for r = A z - b, and
    `gradient(parts, r)` assembles the full gradient.
    """

    def __init__(self, problem, lam, mu, rho):
        self.problem = problem
        self.A, self.b = problem.ineq_matrix, problem.ineq_rhs
        self.lam, self.mu, self.rho = lam, mu, rho
        self.lam_sq = float(lam @ lam)

    def residual(self, z):
        return self.A @ z - self.b

    def parts(self, z):
        """(f, grad f, g, grad g) at z; g and grad g are None without an equality."""
        f, grad = self.problem.objective(z)
        if self.problem.equality is None:
            return f, grad, None, None
        return (f, grad, *self.problem.equality(z))

    def hinge(self, r):
        """Shifted multipliers t = max(0, lam + rho r): the PHR update at residual r."""
        return np.maximum(0.0, self.lam + self.rho * r)

    def value(self, parts, r):
        f, _, e, _ = parts
        t = self.hinge(r)
        val = f + (float(t @ t) - self.lam_sq) / (2.0 * self.rho)
        if e is not None:
            val += self.mu * e + 0.5 * self.rho * e * e
        return val

    def gradient(self, parts, r):
        _, grad, e, eg = parts
        grad = grad + self.A.T @ self.hinge(r)
        if e is not None:
            grad += (self.mu + self.rho * e) * eg
        return grad


def _inner_minimize(al, x0, tol, params):
    """Damped Newton descent with backtracking Armijo search on the _Augmented `al`.

    The search direction is -H0(x)^{-1} g from the problem's `h0_builder`,
    H0 rebuilt at every iterate from the active rows of the current
    residual (no memory pairs: the hinge structure of the augmented
    Lagrangian makes stale curvature harmful); steepest descent stands in
    when the seed's direction is not a descent one.  Trials are evaluated
    along the ray r + s A d from the exact residual r of the current point,
    and the accepted trial keeps its ray value (see the module docstring).
    A search that finds no decrease ends the loop.

    The loop returns at the first accepted step whose point equals x (a
    null step: |s d| below half an ulp of x in every entry), counting it as
    an iteration.  Nothing after it could move x.  The point is the same,
    so r, the parts, the gradient, the active rows, the seed and d repeat,
    and so does every trial value; f can only have fallen.  A trial
    rejected before stays rejected, and since rounding is monotone, every
    step at or below the accepted one rounds back to x as well.  The search
    would accept a null step again or fail and stop.

    Returns (x, iterations, AL evaluations, rejected trials).
    """
    h0_builder = al.problem.h0_builder
    x = x0.copy()
    r = al.residual(x)
    parts = al.parts(x)
    f, g = al.value(parts, r), al.gradient(parts, r)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise SolverAbort("non-finite objective or gradient at the start point")
    iters, evals, backtracks = 0, 1, 0
    while iters < params.max_inner and np.linalg.norm(g, np.inf) > tol:
        try:
            d = -h0_builder(x, (al.lam + al.rho * r) >= 0.0, al.rho, parts[3])(g)
        except np.linalg.LinAlgError as exc:
            raise SolverAbort(f"singular Newton seed at rho = {al.rho:g} ({exc})") from None
        slope = float(g @ d)
        if not np.isfinite(slope) or slope >= 0:
            d = -g
            slope = float(g @ d)
        ad = al.A @ d
        step = 1.0
        accepted = None
        # a trial that overflows is rejected by the isfinite test, so its
        # overflow and the nan that follows are not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(MAX_BACKTRACKS):
                x_try = x + step * d
                trial = al.parts(x_try)
                f_try = al.value(trial, r + step * ad)
                evals += 1
                if np.isfinite(f_try) and f_try <= f + ARMIJO * step * slope:
                    accepted = (x_try, trial, f_try)
                    break
                backtracks += 1
                step *= BACKTRACK
        if accepted is None:
            break  # no decrease along the search direction: stop
        x_new, parts, f = accepted
        iters += 1
        if np.array_equal(x_new, x):
            break  # a null step: every later search would repeat it
        x = x_new
        r = al.residual(x)
        g = al.gradient(parts, r)
    return x, iters, evals, backtracks


def dense_h0_builder(problem, obj_hessian):
    """Gauss-Newton seed: (H_f + rho A_act^T A_act + rho eg eg^T + delta I)^{-1}.

    `obj_hessian(x)` returns the (dense or diagonal) objective Hessian.  The
    indefinite curvature of the equality constraint is deliberately dropped:
    the remaining model is positive semidefinite by construction.  Meant for
    moderate dimensions (the masked normal matrix is formed densely).  The
    active rows and rho often repeat from one inner iterate to the next, so
    rho A_act^T A_act is kept for the last (mask, rho) and copied while it
    repeats.
    """
    A = problem.ineq_matrix
    diagonal = slice(None, None, problem.dim + 1)  # of H.ravel()
    normal = [None, None]  # (active-mask bytes, rho) and its rho A_act^T A_act

    def builder(x, active, rho, eq_grad):
        key = (active.tobytes(), rho)
        if key != normal[0]:
            Am = A[active]
            normal[:] = key, rho * (Am.T @ Am)
        H = normal[1].copy()
        Hf = obj_hessian(x)
        if np.ndim(Hf) == 1:
            H.ravel()[diagonal] += Hf
        else:
            H += Hf
        if eq_grad is not None:
            H += rho * np.outer(eq_grad, eq_grad)
        H.ravel()[diagonal] += 1e-8 * max(1.0, float(np.max(np.abs(H))))

        def apply(q):
            return np.linalg.solve(H, q)

        return apply

    return builder


def solve_nlp(problem, x0, params=None):
    """Minimize an NlpProblem from x0; returns an NlpResult with history.

    Each outer iteration minimizes the augmented Lagrangian to a tolerance
    that tightens with the outer counter, then updates multipliers; the
    penalty grows tenfold (up to RHO_MAX) whenever the violation is above
    the feasibility bound and failed to shrink by VIOLATION_SHRINK.  The
    loop ends when `certified` holds or after `max_outer` outer iterations.
    """
    params = params or SolverParams()
    if problem.h0_builder is None:
        raise ValueError("solve_nlp needs the problem's h0_builder (its Newton seed)")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    if not np.all(np.isfinite(x)):
        raise SolverAbort("x0 is not finite")

    lam = np.zeros(problem.n_ineq)
    mu = 0.0
    rho = RHO0

    # the checks below report an overflow and the nan it leads to
    with np.errstate(over="ignore", invalid="ignore"):
        f0, g0 = problem.objective(x)
        g0_norm = float(np.linalg.norm(g0))
    if not np.isfinite(f0):
        raise SolverAbort("objective not finite at x0")
    if not np.isfinite(g0_norm):
        raise SolverAbort(f"gradient 2-norm overflows at x0 (objective {f0:.3g})")
    gscale = max(1.0, float(np.linalg.norm(g0, np.inf)))
    feas = feasibility_bound(problem, params)

    history = []
    prev_viol = np.inf
    status = "max_iter"
    reason = "max_outer"
    for outer in range(params.max_outer):
        # tighten with the outer counter, but never lag behind the violation:
        # a multiplier update perturbs the AL gradient by about rho * viol,
        # and the inner solve must resolve that to make the update matter
        schedule = 10.0 ** (-2.0 - outer / 2.0)
        if np.isfinite(prev_viol):
            schedule = min(schedule, 0.3 * prev_viol)
        tol_inner = max(INNER_TOL_FLOOR, schedule) * gscale
        al = _Augmented(problem, lam, mu, rho)
        x, inner_iters, evals, backtracks = _inner_minimize(al, x, tol_inner, params)

        viol, g_eq = violation(problem, x)
        lam_hat = al.hinge(al.residual(x))
        mu_hat = mu + rho * g_eq if problem.equality is not None else mu
        report = check_kkt(problem, x, lam_hat, mu_hat)
        history.append(
            OuterRecord(
                outer_iter=outer,
                inner_iters=inner_iters,
                objective=report["objective"],
                eq_residual=g_eq,
                max_violation=viol,
                stationarity=report["stationarity"],
                al_evals=evals,
                backtracks=backtracks,
            )
        )
        lam, mu = lam_hat, mu_hat

        if certified(report, params, feas):
            status = reason = "converged"
            break
        if (
            inner_iters > 0  # an idle outer teaches nothing about the penalty
            and viol > feas
            and viol > prev_viol / VIOLATION_SHRINK
        ):
            rho = min(rho * RHO_GROWTH, RHO_MAX)
        prev_viol = viol

    last = history[-1]  # max_outer >= 1: never empty
    if status != "converged" and last.max_violation > feas:
        status = "infeasible"
    return NlpResult(
        x=x,
        objective=last.objective,
        ineq_multipliers=lam,
        eq_multiplier=mu,
        kkt_residual=last.stationarity,
        max_violation=last.max_violation,
        history=history,
        status=status,
        reason=reason,
    )
