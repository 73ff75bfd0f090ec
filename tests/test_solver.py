"""Augmented-Lagrangian solver: KKT behavior, determinism, QP cross-checks."""

import itertools
import math

import numpy as np
import pytest

from convexfit import experiments, fourier, nodal
from convexfit.fourier import FourierProblem, solve_fourier
from convexfit.geometry import named_container
from convexfit.multistart import InfeasibleError, run_multistart
from convexfit.nodal import NodalProblem, solve_nodal
from convexfit.solver import (
    NlpProblem,
    SolverAbort,
    SolverParams,
    _Augmented,
    check_kkt,
    dense_h0_builder,
    solve_nlp,
)


def quadratic(center):
    c = np.asarray(center, dtype=float)

    def f(x):
        return float((x - c) @ (x - c)), 2.0 * (x - c)

    return f


def test_unconstrained_quadratic():
    prob = NlpProblem(dim=2, objective=quadratic([1.0, 2.0]))
    prob.h0_builder = lambda x, active, rho, eq_grad: (lambda q: q / 2)  # the exact inverse
    res = solve_nlp(prob, np.zeros(2))
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-10)
    assert res.status == "converged"
    assert res.kkt_residual <= 1e-10


def test_active_bound_multiplier():
    # min x1 s.t. x1 >= 0, written as -x1 <= 0
    prob = NlpProblem(
        dim=1,
        objective=lambda x: (float(x[0]), np.array([1.0])),
        ineq_matrix=np.array([[-1.0]]),
        ineq_rhs=np.array([0.0]),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.zeros(1))
    res = solve_nlp(prob, np.array([3.0]))
    assert res.status == "converged"
    assert abs(res.x[0]) <= 1e-8
    assert res.ineq_multipliers[0] == pytest.approx(1.0, abs=1e-6)


def test_symmetric_projection():
    prob = NlpProblem(
        dim=2,
        objective=lambda x: (float(x @ x), 2.0 * x),
        equality=lambda x: (float(x[0] + x[1] - 1.0), np.array([1.0, 1.0])),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.full(2, 2.0))
    res = solve_nlp(prob, np.zeros(2), SolverParams(feas_tol=1e-9))
    np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-6)
    report = check_kkt(prob, res.x, None, res.eq_multiplier)
    assert report["stationarity"] <= 1e-8
    assert report["primal"] <= 1e-8


def test_multistart_without_inequality_rows():
    # no inequality block: the feasibility bound and the dense seed see 0 rows
    prob = NlpProblem(
        dim=2,
        objective=lambda x: (float(x @ x), 2.0 * x),
        equality=lambda x: (float(x[0] + x[1] - 1.0), np.array([1.0, 1.0])),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.full(2, 2.0))
    best = run_multistart(prob, [np.zeros(2)], SolverParams(), lambda x: float(x @ x))
    assert best.message == ""  # no aborts, and nothing left uncertified
    np.testing.assert_allclose(best.x, [0.5, 0.5], atol=1e-8)
    assert (best.status, best.kept_raw, best.start) == ("converged", False, 0)


def test_multistart_raises_when_nothing_is_feasible():
    # x <= 0 and -x <= -1: no point is feasible
    prob = NlpProblem(
        dim=1,
        objective=lambda x: (float(x @ x), 2.0 * x),
        ineq_matrix=np.array([[1.0], [-1.0]]),
        ineq_rhs=np.array([0.0, -1.0]),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.full(1, 2.0))
    with pytest.raises(InfeasibleError) as err:
        run_multistart(prob, [np.zeros(1), np.ones(1)], None, lambda x: float(x @ x))
    assert str(err.value).startswith("no feasible point found by any start (best violation")


def test_kkt_flags_interior_point():
    prob = NlpProblem(
        dim=1,
        objective=lambda x: (float(x[0]), np.array([1.0])),
        ineq_matrix=np.array([[-1.0]]),
        ineq_rhs=np.array([0.0]),
    )
    report = check_kkt(prob, np.array([2.0]), np.array([0.0]))
    assert report["stationarity"] == pytest.approx(1.0)


def test_kkt_residual_equals_gradient_norm():
    prob = NlpProblem(dim=2, objective=quadratic([0.0, 0.0]))
    x = np.array([3.0, 4.0])
    report = check_kkt(prob, x)
    grad = 2.0 * x
    assert report["stationarity"] == pytest.approx(
        np.linalg.norm(grad) / max(1.0, np.linalg.norm(grad))
    )


def test_bitwise_deterministic_history():
    prob = NlpProblem(
        dim=2,
        objective=lambda x: (float(x @ x), 2.0 * x),
        equality=lambda x: (float(x[0] + x[1] - 1.0), np.array([1.0, 1.0])),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.full(2, 2.0))
    a = solve_nlp(prob, np.array([0.3, -0.2]))
    b = solve_nlp(prob, np.array([0.3, -0.2]))
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb  # dataclass equality on floats: bitwise


def _active_set_qp(Q, q, A, b):
    """Enumerate active sets; return the optimum of the convex QP."""
    n, m = Q.shape[0], len(b)
    best = None
    for k in range(0, min(n, m) + 1):
        for S in itertools.combinations(range(m), k):
            S = list(S)
            if k:
                kkt = np.block([[Q, A[S].T], [A[S], np.zeros((k, k))]])
                rhs = np.concatenate([-q, b[S]])
            else:
                kkt, rhs = Q, -q
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            if np.all(A @ x - b <= 1e-9) and np.all(lam >= -1e-9):
                val = 0.5 * x @ Q @ x + q @ x
                if best is None or val < best[0]:
                    best = (val, x)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_matches_active_set_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) + 1.0
    prob = NlpProblem(
        dim=n,
        objective=lambda x: (float(0.5 * x @ Q @ x + q @ x), Q @ x + q),
        ineq_matrix=A,
        ineq_rhs=b,
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: Q)
    res = solve_nlp(prob, np.zeros(n), SolverParams(feas_tol=1e-10))
    val, x_ref = _active_set_qp(Q, q, A, b)
    assert abs(res.objective - val) <= 1e-6
    np.testing.assert_allclose(res.x, x_ref, atol=1e-5)


def test_penalty_violation_monotone():
    rng = np.random.default_rng(7)
    n, m = 6, 4
    M = rng.normal(size=(n, n))
    Q = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) - 1.0  # start infeasible
    prob = NlpProblem(
        dim=n,
        objective=lambda x: (float(0.5 * x @ Q @ x + q @ x), Q @ x + q),
        ineq_matrix=A,
        ineq_rhs=b,
        equality=lambda x: (float(x @ x - 1.0), 2.0 * x),
    )
    prob.h0_builder = dense_h0_builder(prob, lambda x: Q)
    res = solve_nlp(prob, np.full(n, 2.0))
    viols = [rec.max_violation for rec in res.history[1:]]
    for earlier, later in zip(viols, viols[1:]):
        assert later <= 1.01 * earlier


def test_nonfinite_objective_aborts():
    def bad(x):
        return float("nan"), np.zeros(1)

    prob = NlpProblem(dim=1, objective=bad)
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.zeros(1))
    with pytest.raises(SolverAbort):
        solve_nlp(prob, np.zeros(1))


def test_a_problem_without_seed_is_refused():
    # the seed's Newton step is the solver's only search direction
    prob = NlpProblem(dim=2, objective=quadratic([1.0, 2.0]))
    with pytest.raises(ValueError, match="h0_builder"):
        solve_nlp(prob, np.zeros(2))


@pytest.mark.parametrize("name", ["rho0", "outer_tol", "feas_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0, True, "abc", None])
def test_tolerances_must_be_finite_and_positive(name, value):
    # feas_tol = inf used to certify infeasible shapes as converged; True
    # used to pass as 1.0, and a string raised numpy's TypeError
    with pytest.raises(ValueError, match=name):
        SolverParams(**{name: value})


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(rho0=-1.0)
    with pytest.raises(ValueError):
        SolverParams(outer_tol=0.0)
    for budget in (0.5, 2.7, 12.0, 0, -3, True):
        with pytest.raises(ValueError, match="max_outer"):
            SolverParams(max_outer=budget)
        with pytest.raises(ValueError, match="max_inner"):
            SolverParams(max_inner=budget)
    assert SolverParams(max_outer=np.int64(1), max_inner=1).max_outer == 1


class _Captured(Exception):
    pass


def _captured_problem(monkeypatch, module, solve, prob):
    """The NlpProblem and starts that `solve(prob)` hands to run_multistart."""
    seen = {}

    def capture(nlp, starts, *args):
        seen["nlp"], seen["starts"] = nlp, starts
        raise _Captured

    monkeypatch.setattr(module, "run_multistart", capture)
    with pytest.raises(_Captured):
        solve(prob, seeds=0)
    return seen["nlp"], seen["starts"][0]


def _direct_al(nlp, lam, mu, rho, z):
    f, _ = nlp.objective(z)
    t = np.maximum(0.0, lam + rho * (nlp.ineq_matrix @ z - nlp.ineq_rhs))
    e, _ = nlp.equality(z)
    return f + (t @ t - lam @ lam) / (2.0 * rho) + mu * e + 0.5 * rho * e * e


@pytest.mark.parametrize("kind", ["nodal", "fourier"])
def test_ray_value_matches_direct_evaluation(monkeypatch, kind):
    if kind == "nodal":
        prob = NodalProblem(named_container("pentagon"), n=64, p=4.0, alpha=0.4)
        nlp, start = _captured_problem(monkeypatch, nodal, solve_nodal, prob)
    else:
        prob = FourierProblem(named_container("square"), n_f=8, m=64, q=128, p=4.0, alpha=0.4)
        nlp, start = _captured_problem(monkeypatch, fourier, solve_fourier, prob)
    rng = np.random.default_rng(3)
    rho = 10.0
    for _ in range(5):
        x = start + 0.05 * rng.normal(size=nlp.dim)
        d = 0.1 * rng.normal(size=nlp.dim)
        s = rng.uniform(0.0, 1.0)
        lam = rng.uniform(0.0, 2.0, nlp.n_ineq)
        mu = rng.normal()
        al = _Augmented(nlp, lam, mu, rho)
        ray = al.value(al.parts(x + s * d), al.residual(x) + s * (nlp.ineq_matrix @ d))
        direct = _direct_al(nlp, lam, mu, rho, x + s * d)
        assert ray == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_nodal_line_search_does_not_spin_at_the_noise_floor():
    prob = NodalProblem(named_container("disk"), n=64, p=8.0, alpha=0.25)
    res = solve_nodal(prob, seeds=0)
    evals = sum(rec.al_evals for rec in res.history)
    inner = sum(rec.inner_iters for rec in res.history)
    assert evals / inner <= 4.0
    assert all(rec.al_evals >= rec.inner_iters + 1 for rec in res.history)
    assert all(rec.backtracks < rec.al_evals for rec in res.history)
    assert res.energy == pytest.approx(0.5942618908718743, abs=1e-9)


def test_inner_loop_stops_at_its_first_null_step():
    # the seed's step is far below one ulp of x, so x + s d rounds back to x;
    # every later search would repeat it, up to max_inner
    prob = NlpProblem(dim=2, objective=quadratic([5.0, -3.0]))
    prob.h0_builder = lambda x, active, rho, eq_grad: (lambda q: 1e-30 * q)
    x0 = np.array([1.0, 2.0])
    res = solve_nlp(prob, x0, SolverParams(max_outer=1))
    (record,) = res.history
    assert (record.inner_iters, record.al_evals, record.backtracks) == (1, 2, 0)
    assert np.array_equal(res.x, x0)


def test_toy_sweep_inner_loops_end_at_null_steps(monkeypatch):
    # the gamma sweep's warm solves used to repeat null steps until max_inner
    solved = []

    def record(*args, **kwargs):
        solved.append(solve_nodal(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(experiments, "solve_nodal", record)
    cfg = experiments.StudyConfig(
        named_container("disk"), "disk", alphas=(0.25,), ps=(1.0, 2.0, 8.0, 32.0), n=32, seeds=0
    )
    experiments.gamma_sweep(cfg)
    history = [rec for res in solved for rec in res.history]
    assert len(solved) == 5
    assert sum(rec.al_evals for rec in history) <= 4.0 * sum(rec.inner_iters for rec in history)
    assert all(rec.inner_iters < SolverParams().max_inner for rec in history)


def test_exit_reason_reaches_the_message():
    prob = NlpProblem(dim=2, objective=quadratic([1.0, 2.0]), ineq_matrix=np.eye(2), ineq_rhs=np.zeros(2))
    prob.h0_builder = dense_h0_builder(prob, lambda x: np.full(2, 2.0))
    res = solve_nlp(prob, np.full(2, -1.0), SolverParams(max_outer=1, outer_tol=1e-14))
    assert res.status != "converged"
    assert res.reason == "max_outer"
    converged = solve_nlp(prob, np.full(2, -1.0))
    assert (converged.status, converged.reason) == ("converged", "converged")

    shape = NodalProblem(named_container("square"), n=32, p=4.0, alpha=0.5)
    strict = SolverParams(max_outer=10, outer_tol=1e-14, feas_tol=1e-8)
    res = solve_nodal(shape, seeds=0, params=strict)
    assert res.status == "max_iter"
    assert res.message.startswith("not certified: solver stopped at max_outer")
    kept = solve_nodal(shape, seeds=0, params=SolverParams(max_outer=2, feas_tol=1e-8))
    assert kept.status == "max_iter"
    assert kept.message.startswith("start 0 kept its raw point")
    assert solve_nodal(shape, seeds=0).message == ""
