"""Nodal discretization: objective, area form, constraints, solves, minimax.

    python tests/test_nodal.py   # prints the pinned cells' solve digests
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convexfit import multistart, nodal
from convexfit.experiments import StudyConfig, equivalence_probe, gamma_sweep
from convexfit.fourier import FourierProblem
from convexfit.geometry import (
    Disk,
    GeometryError,
    MinkowskiSum,
    PENTAGON_VERTICES,
    Polygon,
    Scaled,
    SupportSamples,
    TWO_PI,
    Translated,
    convexity_residuals,
    named_container,
    polygon_area,
    polygon_centroid,
    powered_energy,
    powered_gap,
    reconstruct_boundary,
    support_samples,
    unit_vector,
    interior_point,
)
from convexfit.multistart import InfeasibleError
from convexfit.nodal import (
    NodalProblem,
    convexify,
    energy_of,
    nodal_area,
    nodal_constraints,
    solve_nodal,
    _anchor_start,
    _area_equality,
    _nodal_nlp,
    _program,
    _random_start,
)
from convexfit.solver import SolverParams, certified, check_kkt, feasibility_bound, violation
from test_fourier import BAD_SEEDS, _pinned_digests, _print_digests
from test_geometry import HULL_POINTS, chain_convexity_defect, hull_polygon, reconstruction_tolerance

DISK = Disk((0.0, 0.0), 1.0)
SQUARE = named_container("square")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FourierProblem(DISK, n_f=4, m=32, q=64, p=math.nan), "^Fourier method needs a finite exponent p"),
        (lambda: NodalProblem(DISK, n=16, p=-math.inf), "^exponent p must be >= 1"),
        (lambda: NodalProblem(DISK, n=12.5), "^n must be an integer"),
        (lambda: NodalProblem(DISK, n=True), "^n must be an integer"),
        (lambda: FourierProblem(DISK, n_f=2.5, m=32, q=64), "^n_f must be an integer"),
        (lambda: FourierProblem(DISK, n_f=4, m=10.5, q=64), "^m must be an integer"),
        (lambda: FourierProblem(DISK, n_f=4, m=32, q=64.5), "^q must be an integer"),
        (
            lambda: NodalProblem(Polygon([(0.0, 0.0), (0.0, 1.0), (1e-30, 0.0)]), n=24),
            r"^container has no area on the 24-point grid \(",
        ),
        (
            lambda: NodalProblem(Translated(Polygon([(0.0, 0.0), (0.0, 2.0), (1e-261, 2.0)]), (1.0, 2.0)), n=32),
            r"^container has no area on the 32-point grid \(",
        ),
    ],
    ids=[
        "fourier_p_nan", "nodal_p_minus_inf", "n_float", "n_bool", "n_f_float", "m_float", "q_float", "sliver",
        "rounded_sliver",
    ],
)
def test_problems_reject_bad_settings_at_construction(build, message):
    # a NaN exponent or a non-integer grid size used to build, and to fail
    # later in the solve (or in numpy) with a message naming no setting; a
    # nodal p = -inf used to build and solve as p = inf; a sliver whose
    # discrete area rounds below 0 used to build and overflow the solver,
    # and one whose area rounds to 1.8e-15 to build and fail in `convexify`
    with pytest.raises(GeometryError, match=message):
        build()


def test_problems_accept_numpy_integer_sizes():
    assert NodalProblem(DISK, n=np.int64(12)).angles.size == 12
    assert FourierProblem(DISK, n_f=np.int64(4), m=np.int32(32), q=np.int64(64)).dim == 9


def random_feasible(prob, seed):
    zu = unit_vector(prob.angles) @ interior_point(prob.container)
    return _random_start(prob, zu, np.random.default_rng([seed]))


class TestObjective:
    def test_zero_at_container(self):
        prob = NodalProblem(DISK, n=64, p=2.0, alpha=1.0)
        value, _ = powered_gap(support_samples(DISK, 64).values, prob.container_values, prob.p)[:2]
        assert value == 0.0

    def test_constant_gap_p2(self):
        prob = NodalProblem(DISK, n=100, p=2.0, alpha=0.25)
        value, _ = powered_gap(np.full(100, 0.5), prob.container_values, prob.p)[:2]
        assert value == pytest.approx(np.pi / 2)

    def test_constant_gap_p1_perimeter_difference(self):
        prob = NodalProblem(DISK, n=100, p=1.0, alpha=0.25)
        value, _ = powered_gap(np.full(100, 0.5), prob.container_values, prob.p)[:2]
        assert value == pytest.approx(np.pi)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 10.0])
    def test_gradient_check(self, p):
        prob = NodalProblem(SQUARE, n=48, p=p, alpha=0.5)
        values = 0.6 * support_samples(SQUARE, 48).values  # strictly interior

        def objective(v):
            return powered_gap(v, prob.container_values, p)[:2]

        _, grad = objective(values)
        step = 1e-6
        scale = max(1.0, float(np.max(np.abs(grad))))
        for i in range(0, 48, 5):
            e = np.zeros(48)
            e[i] = step
            fd = (objective(values + e)[0] - objective(values - e)[0]) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-5 * scale

    def test_energy_at_infinite_p_is_powered_energys(self):
        prob = NodalProblem(SQUARE, n=32, p=math.inf, alpha=0.5)
        values = 0.8 * prob.container_values
        values[3] += 0.5  # overshoots the container there
        _, energy, _ = powered_energy(values, prob.container_values, math.inf)
        assert energy_of(values, prob) == energy_of(SupportSamples(values), prob) == energy > 0.0


class TestArea:
    def test_constant_one_gives_pi_exactly(self):
        for n in (8, 17, 64, 333):
            assert nodal_area(np.ones(n))[0] == pytest.approx(np.pi, abs=1e-12)

    def test_degree_two_homogeneity(self):
        values = support_samples(named_container("pentagon"), 64).values
        a1 = nodal_area(values)[0]
        a2 = nodal_area(1.7 * values)[0]
        assert a2 == pytest.approx(1.7**2 * a1)

    def test_square_samples(self):
        assert nodal_area(support_samples(SQUARE, 512).values)[0] == pytest.approx(4.0, abs=5e-4)

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        values = 1.0 + 0.1 * rng.normal(size=32)
        _, grad = nodal_area(values)
        step = 1e-4  # exact for the quadratic form
        for i in range(32):
            e = np.zeros(32)
            e[i] = step
            fd = (nodal_area(values + e)[0] - nodal_area(values - e)[0]) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-9 * max(1.0, abs(grad[i]))

    def test_matches_shoelace_at_second_order(self):
        def defect(n):
            theta = 2 * np.pi * np.arange(n) / n
            values = 1.0 + 0.2 * np.cos(2 * theta)
            area = nodal_area(values)[0]
            chain = polygon_area(reconstruct_boundary(SupportSamples(values)))
            return abs(area - chain)

        errs = [defect(n) for n in (64, 128, 256)]
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.5 <= e1 / e2 <= 4.5


class TestConstraints:
    def test_container_at_full_area(self):
        prob = NodalProblem(DISK, n=64, p=2.0, alpha=1.0)
        rep = nodal_constraints(support_samples(DISK, 64), prob)
        assert rep.max_violation <= 1e-12

    def test_half_disk(self):
        prob = NodalProblem(DISK, n=64, p=2.0, alpha=0.25)
        rep = nodal_constraints(SupportSamples(np.full(64, 0.5)), prob)
        np.testing.assert_allclose(rep.inclusion, 0.5)
        assert np.min(rep.convexity) > 0
        assert rep.area_residual == pytest.approx(0.0, abs=1e-12)

    def test_spiked_node_flagged(self):
        values = np.full(64, 0.5)
        values[7] = 0.9
        prob = NodalProblem(DISK, n=64, p=2.0, alpha=0.25)
        rep = nodal_constraints(SupportSamples(values), prob)
        assert np.min(rep.convexity) < 0


class TestConvexify:
    def test_idempotent_on_convex(self):
        values = support_samples(named_container("pentagon"), 64).values
        np.testing.assert_allclose(convexify(values), values, atol=1e-12)

    def test_produces_exact_feasibility(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.3, 1.0, 96)
        out = convexify(values)
        assert np.all(out <= values + 1e-15)
        assert np.min(convexity_residuals(SupportSamples(out))) >= -1e-12


class TestSolve:
    def test_alpha_one_returns_container(self):
        prob = NodalProblem(DISK, n=32, p=2.0, alpha=1.0)
        res = solve_nodal(prob, seeds=1)
        assert res.energy == 0.0
        np.testing.assert_allclose(res.samples.values, prob.container_values, atol=1e-12)

    def test_oracle_scale_disk(self):
        # at N=32 the optimum sits below the concentric-disk candidate
        prob = NodalProblem(DISK, n=32, p=2.0, alpha=0.25)
        res = solve_nodal(prob, seeds=3, base_seed=1)
        assert res.status in ("converged", "max_iter")
        assert res.energy <= np.sqrt(np.pi / 2) + 1e-9
        rep = nodal_constraints(res.samples, prob)
        assert rep.max_violation <= 1e-7

    def test_warm_start_dominance(self):
        prob = NodalProblem(SQUARE, n=64, p=4.0, alpha=0.4)
        cold = solve_nodal(prob, seeds=2, base_seed=3)
        # warm start from a feasible competitor: the scaled container copy
        warm_init = SupportSamples(np.sqrt(0.4) * prob.container_values)
        warm = solve_nodal(prob, init=warm_init, seeds=2, base_seed=3)
        assert warm.energy <= energy_of(warm_init, prob) + 1e-9
        assert warm.energy <= cold.energy + 1e-9

    def test_reported_energies_come_from_the_objective(self):
        prob = NodalProblem(SQUARE, n=32, p=4.0, alpha=0.4)
        res = solve_nodal(prob, seeds=1, base_seed=2)
        assert res.powered_value == powered_gap(res.samples.values, prob.container_values, prob.p)[0]
        assert res.energy == energy_of(res.samples, prob)

    def test_large_p_energy_does_not_underflow(self):
        # (2 pi/N) sum g^400 underflows to 0 for gaps near 0.1
        prob = NodalProblem(DISK, n=64, p=400.0, alpha=0.81)
        res = solve_nodal(prob, seeds=0)
        assert res.powered_value == 0.0
        assert res.energy == pytest.approx(0.100461, abs=1e-6)
        assert 0.0 < res.sigma_normalized <= 1.0 - math.sqrt(prob.alpha)

    def test_large_p_energy_does_not_overflow(self):
        # g^450 overflows for gaps near 5; no RuntimeWarning may escape
        res = solve_nodal(NodalProblem(Scaled(DISK, 10.0), n=64, p=450.0, alpha=0.25), seeds=0)
        assert math.isfinite(res.energy) and res.energy > 0.0
        assert math.isfinite(res.sigma_normalized)

    def test_a_start_that_overflows_the_scaled_objective_aborts(self):
        # two random starts' gaps raised to the 400th power overflow the
        # gradient's 2-norm; they abort instead of ending infeasible with
        # overflow warnings and a NaN KKT residual
        res = solve_nodal(NodalProblem(DISK, n=64, p=400.0, alpha=0.81), seeds=3, base_seed=0)
        assert (res.energy, res.status) == (0.10046052505657409, "converged")
        assert "start 1: gradient 2-norm overflows at x0" in res.message
        assert "start 2: gradient 2-norm overflows at x0" in res.message

    @pytest.mark.parametrize(
        "vertices, n, p, alpha, seeds",
        [
            (
                [[3.695056, 1.349305], [3.73601, 1.341093], [5.289971, 1.380015], [6.884781, 1.441374],
                 [5.278201, 1.454257]],
                32, 1.0, 0.758, 0,
            ),
            ([[-6.73748, -13.151724], [-6.407092, -13.284492], [-6.495286, -13.038987]], 24, 2.0, 0.284, 2),
        ],
        ids=["pentagon_p1", "triangle_p2"],
    )
    def test_an_objective_that_stops_moving_is_no_exit(self, vertices, n, p, alpha, seeds):
        # thin off-origin cells whose objective moves by less than 1e-8
        # over feasible outer iterations before the KKT check certifies:
        # the outer loop runs on until it does
        res = solve_nodal(NodalProblem(Polygon(vertices), n=n, p=p, alpha=alpha), seeds=seeds, base_seed=0)
        assert res.status == "converged", res.message


def band_by_band_seed(nlp, n, hess, eg, act, rho):
    """The nodal seed filled band by band into a zero matrix: the reference
    whose every entry the builder must reproduce bit for bit."""
    cos = np.cos(2.0 * np.pi / n)
    idx = np.arange(n)
    up1, up2 = (idx + 1) % n, (idx + 2) % n
    d_inc, d_cvx = act[:n].astype(float), act[n : 2 * n].astype(float)
    H = np.zeros((nlp.dim, nlp.dim))
    diag = hess + rho * d_inc
    diag += rho * (np.roll(d_cvx, 1) + 4.0 * cos**2 * d_cvx + np.roll(d_cvx, -1))
    H[idx, idx] = diag
    band1 = -2.0 * cos * rho * (d_cvx + np.roll(d_cvx, -1))
    H[idx, up1] += band1
    H[up1, idx] += band1
    band2 = rho * np.roll(d_cvx, -1)
    H[idx, up2] += band2
    H[up2, idx] += band2
    if nlp.n_ineq > 2 * n:
        d_gap = act[2 * n :].astype(float)
        H[idx, idx] += rho * d_gap
        if nlp.dim > n:
            H[idx, -1] += rho * d_gap
            H[-1, idx] += rho * d_gap
            H[-1, -1] += rho * float(np.sum(d_gap))
    H += rho * np.outer(eg, eg)
    H[np.arange(nlp.dim), np.arange(nlp.dim)] += 1e-8 * max(1.0, float(np.max(diag, initial=1.0)))
    return H


# (seed, N); N = 24 keeps the plain seed as its id
SEED_CASES = [
    pytest.param(seed, n, id=f"{seed}" if n == 24 else f"{seed}-n{n}") for n in (24, 3, 4, 5) for seed in (0, 1)
]


class TestNewtonSeed:
    """The banded seed inverts diag(hess) + rho A_act^T A_act + rho e_g e_g^T,
    assembled densely here from the problem's own rows.  At N = 3 and 4 the
    wrapped bands of the convexity stencil overlap."""

    def assert_inverts(self, nlp, hess, x, seed, n, rho=10.0):
        rng = np.random.default_rng(seed)
        A, b = nlp.ineq_matrix, nlp.ineq_rhs
        # a random half of the rows active, with every inclusion row among
        # them so that H_ref is nonsingular without the seed's 1e-8 shift
        lam = rng.uniform(-1.0, 1.0, nlp.n_ineq)
        lam[:n] = 1.0
        lam -= rho * (A @ x - b)
        act = (lam + rho * (A @ x - b)) >= 0.0
        H = np.diag(hess) + rho * A[act].T @ A[act]
        eg = nlp.equality(x)[1]
        H += rho * np.outer(eg, eg)
        q = rng.standard_normal(nlp.dim)
        d = nlp.h0_builder(x, act, rho, eg)(q)
        assert np.linalg.norm(H @ d - q) <= 1e-6 * np.linalg.norm(q)

    def shape(self, prob, seed):
        noise = np.random.default_rng(seed).standard_normal(prob.n)
        return 0.8 * prob.container_values + 0.01 * noise

    @pytest.mark.parametrize("seed,n", SEED_CASES)
    def test_finite_p(self, seed, n):
        prob = NodalProblem(SQUARE, n=n, p=4.0, alpha=0.4)
        nlp = _program(prob, unit_vector(prob.angles) @ interior_point(SQUARE))[0]
        x = self.shape(prob, seed)
        step = 1e-6  # the powered gap's Hessian is diagonal
        hess = (nlp.objective(x + step)[1] - nlp.objective(x - step)[1]) / (2 * step)
        assert nlp.dim == n
        self.assert_inverts(nlp, hess, x, seed, n)

    @pytest.mark.parametrize("seed,n", SEED_CASES)
    def test_epigraph(self, seed, n):
        prob = NodalProblem(SQUARE, n=n, p=math.inf, alpha=0.4)
        nlp = _program(prob, None)[0]
        v = self.shape(prob, seed)
        x = np.append(v, np.max(prob.container_values - v))
        assert (nlp.dim, nlp.n_ineq) == (n + 1, 3 * n)
        self.assert_inverts(nlp, np.zeros(n + 1), x, seed, n)

    @pytest.mark.parametrize("program", ["powered", "epigraph", "box"])
    @pytest.mark.parametrize("n", [3, 4, 5, 24])
    def test_matches_band_by_band_reference(self, monkeypatch, program, n):
        prob = NodalProblem(SQUARE, n=n, p=4.0, alpha=0.4)
        rng = np.random.default_rng(n)
        if program == "powered":
            hess = rng.uniform(0.1, 2.0, n)
            nlp = _nodal_nlp(prob, None, lambda x: hess, _area_equality(prob))
        elif program == "epigraph":
            hess = np.zeros(n)
            nlp = _program(NodalProblem(SQUARE, n=n, p=math.inf, alpha=0.4), None)[0]
        else:
            hess = rng.uniform(0.1, 2.0, n)
            nlp = _nodal_nlp(prob, None, lambda x: hess, None, gap_rhs=0.2 - prob.container_values)
        x = rng.uniform(0.5, 1.0, nlp.dim)
        act = rng.uniform(size=nlp.n_ineq) < 0.5
        rho = 37.5
        eg = nlp.equality(x)[1]
        seen = []
        monkeypatch.setattr(np.linalg, "solve", lambda H, q: seen.append(H.copy()))
        nlp.h0_builder(x, act, rho, eg)(np.zeros(nlp.dim))
        assert np.array_equal(seen[0], band_by_band_seed(nlp, n, hess, eg, act, rho))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_box_rows_without_equality(self, seed):
        # the equivalence probe's p = inf stage: h_j >= h_C - t, no equality
        n = 24
        prob = NodalProblem(SQUARE, n=n, p=math.inf, alpha=0.4)
        hess = np.full(n, 0.3)
        nlp = _nodal_nlp(prob, None, lambda x: hess, None, gap_rhs=0.2 - prob.container_values)
        assert (nlp.dim, nlp.n_ineq) == (n, 3 * n)
        self.assert_inverts(nlp, hess, self.shape(prob, seed), seed, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 32, 128, 513])
    def test_convexity_rows_are_the_shifted_identity_stencil_bitwise(self, n):
        # the rows -c(e_j), signed zeros included, against the stencil built
        # from the identity shifted one node each way
        eye = np.eye(n)
        two_cos = 2.0 * np.cos(2.0 * np.pi / n)
        reference = -(np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - two_cos * eye)
        rows = _nodal_nlp(NodalProblem(DISK, n=n), None, None, None).ineq_matrix
        assert rows.tobytes() == np.vstack([eye, reference]).tobytes()


class TestMinimax:
    def test_disk_inner_parallel(self):
        prob = NodalProblem(DISK, n=64, p=math.inf, alpha=0.25)
        res = solve_nodal(prob, seeds=2)
        assert res.energy == pytest.approx(0.5, abs=1e-6)
        assert np.max(np.abs(res.samples.values - 0.5)) <= 1e-6

    def test_stadium_inner_parallel(self):
        stadium = named_container("stadium")
        alpha = (4 * 0.5 + np.pi * 0.25) / (4 + np.pi)
        prob = NodalProblem(stadium, n=64, p=math.inf, alpha=alpha)
        res = solve_nodal(prob, seeds=2)
        assert res.energy == pytest.approx(0.5, abs=2e-3)

    def test_alpha_one_zero_slack(self):
        prob = NodalProblem(DISK, n=32, p=math.inf, alpha=1.0)
        res = solve_nodal(prob, seeds=1)
        assert res.energy <= 1e-10

    def test_alpha_one_energy_is_not_negative(self):
        # the slack t may sit up to the feasibility bound below the largest
        # gap, which is 0 here; the energy is t clamped at 0
        res = solve_nodal(NodalProblem(named_container("triangle"), n=24, p=math.inf, alpha=1.0), seeds=0)
        assert (res.status, res.energy, res.sigma_normalized) == ("converged", 0.0, 0.0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_normalized_p_mean_monotone(seed):
    prob = NodalProblem(DISK, n=48, p=2.0, alpha=0.4)
    values = random_feasible(prob, seed)
    gap = np.maximum(prob.container_values - values, 0.0)
    means = [
        (np.mean(gap**p)) ** (1.0 / p) for p in (1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    for a, b in zip(means, means[1:]):
        assert a <= b + 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_discrete_convexity_implies_geometric(seed):
    prob = NodalProblem(named_container("pentagon"), n=96, p=2.0, alpha=0.5)
    values = random_feasible(prob, seed)
    assert np.min(convexity_residuals(SupportSamples(values))) >= -1e-12
    chain = reconstruct_boundary(SupportSamples(values), tol=1e-11)
    assert chain_convexity_defect(chain) >= -reconstruction_tolerance(chain)


@settings(max_examples=60, deadline=None)
@given(
    HULL_POINTS,
    st.floats(0.05, 0.95),
    st.sampled_from([16, 64]),
    st.one_of(st.floats(0.0, 4.0).map(lambda e: 10.0**e), st.just(math.inf)),
)
def test_energy_is_a_positive_mean_of_the_gaps_at_any_p(points, s, n, p):
    # a random convex polygon and its copy shrunk about the centroid by s:
    # every gap is positive, and J_p lies between (2 pi)^(1/p) min g and
    # (2 pi)^(1/p) max g however far g^p under- or overflows
    container = hull_polygon(points)
    try:
        prob = NodalProblem(container, n=n, p=p)
    except GeometryError as exc:  # a sliver: its discrete area is within rounding of 0
        assert str(exc).startswith(f"container has no area on the {n}-point grid")
        assume(False)
    shift = unit_vector(prob.angles) @ polygon_centroid(container.vertices)
    values = s * (prob.container_values - shift) + shift
    gap = np.maximum(prob.container_values - values, 0.0)
    assume(np.min(gap) > 0.0)
    if math.isinf(p):
        assert energy_of(values, prob) == np.max(gap)
        return
    low, high = TWO_PI ** (1.0 / p) * np.min(gap), TWO_PI ** (1.0 / p) * np.max(gap)
    for energy in (energy_of(values, prob), powered_energy(values, prob.container_values, p)[1]):
        assert math.isfinite(energy) and energy > 0.0
        assert low * (1.0 - 1e-12) <= energy <= high * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    HULL_POINTS,
    st.sampled_from([1.0, 0.2, 0.05]),
    st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0)),
    st.one_of(st.floats(0.02, 0.99), st.just(1.0)),
    st.sampled_from([1.0, 2.0, 8.0, math.inf]),
    st.sampled_from([16, 24, 32]),
    st.sampled_from([0, 2]),
    st.sampled_from(["hull", "rounded", "translated"]),
    st.floats(0.01, 2.0),
)
def test_a_solve_is_feasible_and_no_worse_than_the_anchor(points, stretch, shift, alpha, p, n, seeds, kind, radius):
    # random hulls, flattened in y and moved off the origin (or wrapped in a
    # Translated), some rounded by a disk: a solve raises InfeasibleError
    # with its diagnostic, or returns a shape within the solver's
    # feasibility bound whose energy lies between 0 and the anchor start's
    # (up to that bound, as a minimax slack may), above 0 for alpha < 1; a
    # "converged" winner passes the KKT check with its solve's multipliers
    points = np.array(points) * (1.0, stretch)
    if kind == "translated":
        container = Translated(hull_polygon(points), shift)
    else:
        container = hull_polygon(points + shift)
        if kind == "rounded":
            container = MinkowskiSum(container, Disk((0.0, 0.0), radius))
    try:
        prob = NodalProblem(container, n=n, p=p, alpha=alpha)
    except GeometryError as exc:  # a sliver: its discrete area is within rounding of 0
        assert str(exc).startswith(f"container has no area on the {n}-point grid")
        return
    calls, delegate = [], nodal.run_multistart

    def spy(nlp, *args):
        calls.append((nlp, delegate(nlp, *args)))
        return calls[-1][1]

    try:
        with mock.patch.object(nodal, "run_multistart", spy):
            res = solve_nodal(prob, seeds=seeds)
    except InfeasibleError as exc:
        assert str(exc).startswith("no feasible point found by any start (best violation")
        return
    params = SolverParams()
    nlp, winner = calls[-1]
    if winner.status == "converged":
        kkt = check_kkt(nlp, winner.x, winner.result.ineq_multipliers, winner.result.eq_multiplier)
        assert certified(kkt, params, feasibility_bound(nlp, params))
    zu = unit_vector(prob.angles) @ interior_point(container)
    nlp = _program(prob, zu)[0]
    x = res.samples.values if nlp.dim == n else np.append(res.samples.values, res.energy)
    assert violation(nlp, x)[0] <= feasibility_bound(nlp, params)
    anchor = energy_of(_anchor_start(prob, zu), prob)
    assert 0.0 <= res.energy <= anchor + params.feas_tol * max(1.0, anchor)
    if alpha < 1.0:
        assert res.energy > 0.0


def test_off_center_container_with_negative_support():
    # origin outside the body: support values go negative, the interior
    # point recentres every construction
    spec = Translated(Disk((0.0, 0.0), 1.0), (3.0, 0.0))
    prob = NodalProblem(spec, n=64, p=2.0, alpha=0.25)
    assert np.min(prob.container_values) < 0
    res = solve_nodal(prob, seeds=2, base_seed=0)
    assert res.status == "converged"
    assert abs(res.area_residual) <= 1e-8
    res_inf = solve_nodal(NodalProblem(spec, n=64, p=math.inf, alpha=0.25), seeds=2)
    assert res_inf.energy == pytest.approx(0.5, abs=1e-6)  # translation invariant


def test_a_far_pentagon_solves():
    # its shoelace centroid cancels 10.6 outside the body: the vertex mean stands in
    far = Polygon(np.array(PENTAGON_VERTICES) + 1e6)
    res = solve_nodal(NodalProblem(far, n=32, p=2.0, alpha=0.5), seeds=1)
    assert np.isfinite(res.energy) and res.energy > 0.0


def test_multistart_rerun_is_deterministic():
    prob = NodalProblem(DISK, n=32, p=2.0, alpha=0.25)
    first = solve_nodal(prob, seeds=3, base_seed=5)
    again = solve_nodal(prob, seeds=3, base_seed=5)
    assert first.energy == again.energy
    assert first.best_start == again.best_start
    np.testing.assert_array_equal(first.samples.values, again.samples.values)


@BAD_SEEDS
def test_seeds_are_checked_before_the_solve(monkeypatch, kwargs, message):
    prob = NodalProblem(DISK, n=16, p=2.0, alpha=0.5)
    stage1 = solve_nodal(prob, seeds=0)
    calls, delegate = [], multistart.solve_nlp

    def spy(*args):
        calls.append(args)
        return delegate(*args)

    monkeypatch.setattr(multistart, "solve_nlp", spy)
    kwargs = {"seeds": 1, "base_seed": 0, **kwargs}
    with pytest.raises(GeometryError, match=message):
        solve_nodal(prob, **kwargs)
    # the equivalence probe's area stage draws its starts the same way
    with pytest.raises(GeometryError, match=message):
        nodal.min_area_at_energy(prob, stage1, kwargs["seeds"], kwargs["base_seed"])
    assert calls == []


def test_numpy_and_list_seeds_are_the_same_seeds():
    prob = NodalProblem(DISK, n=24, p=2.0, alpha=0.25)
    ref = solve_nodal(prob, seeds=2, base_seed=3)
    for seeds, base_seed in [(np.int64(2), np.int64(3)), (2, [3]), (2, (np.int64(3),))]:
        res = solve_nodal(prob, seeds=seeds, base_seed=base_seed)
        assert res.energy == ref.energy
        np.testing.assert_array_equal(res.samples.values, ref.samples.values)


def test_target_area_uses_discrete_container_measure():
    prob = NodalProblem(SQUARE, n=128, p=2.0, alpha=1.0)
    assert prob.target_area == pytest.approx(nodal_area(prob.container_values)[0])
    assert prob.target_area == pytest.approx(4.0, abs=1e-3)


# Digests of nodal solves, taken while the finite-p and p = inf programs
# had a builder each (see `_solve_digests`).  The SolveResult digests were
# re-taken when the record lost three unread fields; each equals the
# earlier digest with those fields skipped.
PINNED_SOLVES = {
    "sweep_disk_n128": [
        "514ed2195043a1b01798e8e02770d07ab2a8d844076f9ed6227e3590a2d80bc3",
        "386a1152aba6057db995bf6e2e958e30df53eb86bfb1698348629e33bca163ee",
    ],
    "square_pinf": "107266f22dfe25f9e60447464c0c7e9b9b71d72eeff005d3770b5c5f958627a4",
    "probe_p4": "2c6e9ed7b29a0ad16477f82915b0be1656bc1a1f0ad7b956170fa9d3dc4a20c5",
    "probe_pinf": "d9e9e54b6594130b1fa99fb575f276445e6ac1b30d67c6216297fc16478f7257",
}


def _solve_digests():
    """{cell: digest}, wall times zeroed: the benchmark's gamma sweep (disk,
    alpha = 0.25, p in 1, 2, 8, 32, N = 128, `seeds=0`; its rows and its
    p = inf result), a cold p = inf solve of the square (alpha = 0.5,
    N = 48, `seeds=2`) and the equivalence probe at p = 4 and p = inf
    (disk, alpha = 0.25, N = 48, `seeds=1`; its p = inf stage two has the
    box rows).  The warm sweep cells have two starts, so the serial and
    the forked multistart must both give these bits."""
    from test_multistart import _digest

    def unclocked(res):
        return dataclasses.replace(res, wall_time=0.0)

    sweep = StudyConfig(DISK, alphas=(0.25,), ps=(1.0, 2.0, 8.0, 32.0), n=128, seeds=0)
    rows, r_inf = gamma_sweep(sweep)
    square = solve_nodal(NodalProblem(SQUARE, n=48, p=math.inf, alpha=0.5), seeds=2)
    out = {
        "sweep_disk_n128": [_digest([tuple(row.items()) for row in rows]), _digest(unclocked(r_inf))],
        "square_pinf": _digest(unclocked(square)),
    }
    for p in (4.0, math.inf):
        report = equivalence_probe(StudyConfig(DISK, alphas=(0.25,), ps=(p,), n=48, seeds=1))
        report["stage1"] = unclocked(report["stage1"])
        out[f"probe_p{p:g}"] = _digest(tuple(report.items()))
    return out


def test_solves_are_bitwise_the_pinned_ones():
    assert _pinned_digests(__file__) == PINNED_SOLVES


if __name__ == "__main__":
    _print_digests(_solve_digests)
