"""Fourier discretization: constraint assembly, area form, objective, solves.

    python tests/test_fourier.py   # prints the pinned cells' solve digests
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convexfit import fourier
from convexfit.fourier import (
    FourierProblem,
    FourierShape,
    assemble_linear_constraints,
    basis_matrix,
    fourier_area,
    fourier_objective,
    fourier_to_nodal,
    solve_fourier,
    truncate_container,
)
from convexfit.geometry import Disk, GeometryError, named_container, powered_energy, support_eval
from convexfit.multistart import InfeasibleError
from convexfit.solver import SolverParams, feasibility_bound, violation

DISK = Disk((0.0, 0.0), 1.0)
SQUARE = named_container("square")
SRC = Path(__file__).resolve().parent.parent / "src"


def workload_problem():
    """The benchmark's Fourier cell: square, p = 10, alpha = 0.7, n_f = 32, m = 768."""
    return FourierProblem(SQUARE, n_f=32, m=768, q=1024, p=10.0, alpha=0.7)


def shape(a, b=None):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if b is None:
        b = np.zeros(a.size - 1)
    return FourierShape(a, np.asarray(b, dtype=float))


class TestConstraints:
    def test_order_one_curvature_rows_keep_only_a0(self):
        prob = FourierProblem(DISK, n_f=1, m=3, q=8, p=2.0, alpha=0.5)
        (_, _), (cvx, rhs) = assemble_linear_constraints(prob)
        # the degree-1 factor (1 - 1^2) wipes the trigonometric columns
        np.testing.assert_allclose(cvx[:, 1:], 0.0, atol=1e-15)
        np.testing.assert_allclose(cvx[:, 0], 1.0)
        np.testing.assert_allclose(rhs, 0.0)

    def test_disk_inclusion_rhs(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=64, p=2.0, alpha=0.5)
        (inc, rhs), _ = assemble_linear_constraints(prob)
        np.testing.assert_allclose(rhs, 1.0)
        assert inc.shape == (16, 9)

    def test_square_axis_rhs(self):
        prob = FourierProblem(SQUARE, n_f=2, m=4, q=32, p=2.0, alpha=0.5)
        (_, rhs), _ = assemble_linear_constraints(prob)
        np.testing.assert_allclose(rhs, 1.0)  # constraint angles are the edge normals

    @pytest.mark.parametrize(
        "make",
        [workload_problem, lambda: FourierProblem(named_container("pentagon"), n_f=3, m=10, q=16)],
        ids=["workload", "pentagon"],
    )
    def test_rows_are_bitwise_the_per_block_construction(self, make):
        # the inclusion basis and the curvature-scaled basis, each evaluated on its own
        prob = make()
        j = np.arange(1, prob.n_f + 1)
        jt = np.multiply.outer(prob.constraint_angles, j)
        cos, sin, factor = np.cos(jt), np.sin(jt), 1.0 - j.astype(float) ** 2
        inc = np.hstack([np.ones((prob.m, 1)), cos, sin])
        cvx = np.hstack([np.ones((prob.m, 1)), cos * factor, sin * factor])
        (inc_rows, inc_rhs), (cvx_rows, cvx_rhs) = assemble_linear_constraints(prob)
        assert np.array_equal(inc_rows, inc) and np.array_equal(cvx_rows, cvx)
        assert np.array_equal(inc_rhs, support_eval(prob.container, prob.constraint_angles))
        assert np.array_equal(cvx_rhs, np.zeros(prob.m))
        assert np.array_equal(prob.constraint_rows, np.vstack([inc, -cvx]))
        assert not prob.constraint_rows.flags.writeable

    def test_each_basis_is_evaluated_once(self, monkeypatch):
        calls = []
        delegate = fourier.basis_matrix

        def counted(angles, n_f):
            calls.append(len(angles))
            return delegate(angles, n_f)

        monkeypatch.setattr(fourier, "basis_matrix", counted)
        prob = FourierProblem(DISK, n_f=6, m=32, q=128, p=2.0, alpha=0.5)
        res = solve_fourier(prob, seeds=1)
        fourier_objective(np.concatenate(res.fourier_coefficients), prob)
        assemble_linear_constraints(prob)
        assert calls == [32, 128]  # the constraint grid and the quadrature grid

    def test_workload_set_up_peak_memory(self):
        # evaluated per use, with a stacked copy of the rows, the bases
        # peaked at 3.11 MB here
        params = SolverParams(max_outer=1, max_inner=5)
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError):
                solve_fourier(workload_problem(), seeds=0, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6e6


class TestArea:
    def test_unit_disk(self):
        assert fourier_area(shape([1.0]))[0] == pytest.approx(np.pi)

    def test_translation_coefficient_is_area_free(self):
        assert fourier_area(shape([1.0, 0.2]))[0] == pytest.approx(np.pi)

    def test_second_harmonic(self):
        value = fourier_area(shape([1.0, 0.0, 0.1]))[0]
        assert value == pytest.approx(np.pi - 1.5 * np.pi * 0.01)

    @pytest.mark.parametrize("length", [0, 4])
    def test_even_length_is_rejected(self, length):
        with pytest.raises(GeometryError, match=f"length {length}"):
            fourier_area(np.ones(length))

    def test_gradient_matches_finite_differences_exactly(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=11) * 0.3
        _, grad = fourier_area(x)
        step = 1e-4  # exact for a quadratic; larger step shrinks cancellation noise
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            fd = (fourier_area(x + e)[0] - fourier_area(x - e)[0]) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-9 * max(1.0, abs(grad[i]))


class TestObjective:
    def test_zero_gap(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=64, p=2.0, alpha=1.0)
        trunc = truncate_container(DISK, 4)
        value, _ = fourier_objective(trunc, prob)
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_constant_gap_p2(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=256, p=2.0, alpha=0.25)
        value, _ = fourier_objective(shape([0.5, 0, 0, 0, 0]), prob)
        assert value == pytest.approx(np.pi / 2)
        assert value ** 0.5 == pytest.approx(np.sqrt(np.pi / 2))

    def test_constant_gap_p1_is_perimeter_difference(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=256, p=1.0, alpha=0.25)
        value, _ = fourier_objective(shape([0.5, 0, 0, 0, 0]), prob)
        assert value == pytest.approx(np.pi)  # P(disk 1) - P(disk 0.5)

    def test_rejects_p_below_one(self):
        with pytest.raises(GeometryError):
            FourierProblem(DISK, n_f=4, m=16, q=64, p=0.5, alpha=0.25)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 10.0])
    def test_gradient_check(self, p):
        prob = FourierProblem(SQUARE, n_f=6, m=24, q=128, p=p, alpha=0.5)
        rng = np.random.default_rng(11)
        # strictly interior shape: gaps bounded away from the p=1 kink
        x = truncate_container(SQUARE, 6).to_vector() * 0.6
        x[1:] += 0.01 * rng.normal(size=x.size - 1)
        value, grad = fourier_objective(x, prob)
        assert value > 0
        step = 1e-6 * max(1.0, np.max(np.abs(x)))
        scale = max(1.0, float(np.max(np.abs(grad))))
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            fd = (fourier_objective(x + e, prob)[0] - fourier_objective(x - e, prob)[0]) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-5 * scale

    def test_order_mismatch_names_both_orders(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=64, p=2.0, alpha=0.25)
        with pytest.raises(GeometryError, match="order 2 do not fit the problem's order 4"):
            fourier_objective(shape([1.0, 0.0, 0.0]), prob)

    def test_joint_translation_leaves_energy_unchanged(self):
        # moving container and shape by the same vector only shifts the
        # degree-1 coefficients of both support functions
        v = np.array([0.21, -0.34])
        prob0 = FourierProblem(DISK, n_f=4, m=16, q=256, p=2.0, alpha=0.25)
        prob1 = FourierProblem(
            type(DISK)((v[0], v[1]), 1.0), n_f=4, m=16, q=256, p=2.0, alpha=0.25
        )
        x = np.array([0.5, 0.05, 0.0, 0.0, 0.0, -0.03, 0.0, 0.0, 0.0])
        x_shift = x.copy()
        x_shift[1] += v[0]
        x_shift[5] += v[1]
        v0 = fourier_objective(x, prob0)[0]
        v1 = fourier_objective(x_shift, prob1)[0]
        assert abs(v0 - v1) <= 1e-12


class TestWeightedGram:
    """The FFT-assembled Gram equals the dense product B^T diag(w) B."""

    @pytest.mark.parametrize(
        "size, n_f, first",
        [
            (1024, 32, 0),  # the quadrature grid
            (768, 32, 1),  # the constraint grid, theta_k = 2 pi k / m for k = 1..m
            (40, 32, 0),  # aliased: frequencies up to 2 n_f fold mod 40
            (7, 5, 0),  # odd size: no Nyquist bin
        ],
    )
    def test_matches_dense_product(self, size, n_f, first):
        rng = np.random.default_rng(size)
        weights = rng.uniform(0.0, 1.0, size)
        B = basis_matrix(2 * np.pi * np.arange(first, size + first) / size, n_f)
        dense = (B.T * weights) @ B
        # the helper's grid starts at angle 0: roll the weights to its order
        gram = fourier._weighted_gram(np.roll(weights, first), n_f)
        assert gram.shape == (2 * n_f + 1, 2 * n_f + 1)
        assert np.array_equal(gram, gram.T)
        assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))


class TestNewtonSeed:
    """The dense seed inverts B^T diag(d) B + rho A_act^T A_act + rho e_g e_g^T
    plus the builder's shift, with the objective Hessian built densely here.

    The builder keeps the normal matrix of the last (active rows, rho) and
    takes the gap from the objective's last point; a stale copy of either
    would show as a residual here.  Below p = 2 the objective's weights are
    the proximal floor w / ref^2, as in the nodal seed."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 10.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_inverts_dense_reference(self, monkeypatch, seed, p):
        prob = FourierProblem(SQUARE, n_f=8, m=64, q=128, p=p, alpha=0.7)
        seen = {}

        def capture(nlp, starts, *args):
            seen["nlp"], seen["anchor"] = nlp, starts[0]
            raise RuntimeError("captured")

        monkeypatch.setattr(fourier, "run_multistart", capture)
        with pytest.raises(RuntimeError, match="captured"):
            solve_fourier(prob, seeds=0)
        nlp, rho = seen["nlp"], 10.0
        rng = np.random.default_rng(seed)
        x = seen["anchor"] + 1e-3 * rng.standard_normal(nlp.dim)
        masks = [rng.uniform(size=nlp.n_ineq) < 0.5 for _ in range(2)]
        eg = nlp.equality(x)[1]
        q = rng.standard_normal(nlp.dim)

        nlp.objective(seen["anchor"])  # the objective's last point is not x
        cold = [nlp.h0_builder(x, act, rho, eg)(q) for act in masks]

        B = basis_matrix(prob.quadrature_angles, prob.n_f)
        w = 2 * np.pi / prob.q
        hq = prob.container_on_quadrature
        # the gap's scale: the anchor's largest gap
        ref = float(np.max(hq - B @ seen["anchor"]))
        if p < 2.0:
            d = np.full(prob.q, w / ref**2)
        else:
            gap = np.maximum(hq - B @ x, 0.0) / ref
            d = p * (p - 1.0) * w / ref**2 * gap ** (p - 2.0)
        for act, step in zip(masks, cold):
            A = nlp.ineq_matrix[act]
            H = (B.T * d) @ B + rho * A.T @ A + rho * np.outer(eg, eg)
            H += 1e-8 * max(1.0, float(np.max(np.abs(H)))) * np.eye(nlp.dim)
            assert np.linalg.norm(H @ step - q) <= 1e-8 * np.linalg.norm(q)

        # x is now the objective's last point, and masks[1] at rho the last key
        warm = nlp.h0_builder(x, masks[1], rho, eg)(q)
        assert np.array_equal(warm, cold[1])


class TestToNodal:
    def test_constant(self):
        np.testing.assert_allclose(fourier_to_nodal(shape([1.0]), 16).values, 1.0)

    def test_first_harmonic(self):
        samples = fourier_to_nodal(shape([1.0, 0.3]), 32)
        theta = samples.angles
        np.testing.assert_allclose(samples.values, 1.0 + 0.3 * np.cos(theta), atol=1e-15)

    def test_square_truncation_close_to_exact(self):
        trunc = truncate_container(SQUARE, 48)
        samples = fourier_to_nodal(trunc, 256)
        exact = support_eval(SQUARE, samples.angles)
        # measured truncation error of the square support at order 48
        assert np.max(np.abs(samples.values - exact)) <= 2e-2


class TestSolve:
    def test_alpha_one_disk_recovers_container(self):
        prob = FourierProblem(DISK, n_f=6, m=32, q=128, p=2.0, alpha=1.0)
        res = solve_fourier(prob, seeds=1, base_seed=0)
        assert res.energy == pytest.approx(0.0, abs=1e-8)
        assert res.fourier_coefficients[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_alpha_zero_degenerates_to_point(self):
        prob = FourierProblem(DISK, n_f=4, m=16, q=64, p=2.0, alpha=0.0)
        res = solve_fourier(prob, seeds=1, base_seed=0)
        assert abs(res.area) <= 1e-8

    def test_large_p_surrogate_close_to_hausdorff_optimum(self):
        prob = FourierProblem(DISK, n_f=24, m=240, q=384, p=64.0, alpha=0.25)
        res = solve_fourier(prob, seeds=2, base_seed=0)
        assert abs(res.energy - 0.5) <= 0.05

    def test_large_p_energy_does_not_underflow(self):
        # (2 pi/Q) sum g^400 underflows to 0 for gaps near 0.1
        prob = FourierProblem(DISK, n_f=8, m=64, q=128, p=400.0, alpha=0.81)
        res = solve_fourier(prob, seeds=0)
        x = FourierShape(*res.fourier_coefficients).to_vector()
        _, energy, _ = powered_energy(prob.quadrature_basis @ x, prob.container_on_quadrature, prob.p)
        assert res.energy > 0.0
        assert res.energy == energy

    @pytest.mark.parametrize("name", ["square", "disk", "pentagon"])
    @pytest.mark.parametrize("p", [512.0, 4096.0, 1e4])
    @pytest.mark.parametrize("seeds", [0, 1, 4])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_p_overflow_is_silent(self, name, p, seeds):
        # a line-search trial whose powered gap overflows is rejected by its
        # non-finite value, and a start whose objective overflows at x0
        # aborts, as some random starts at seeds=4 do; neither may raise a
        # RuntimeWarning on the way
        prob = FourierProblem(named_container(name), n_f=4, m=32, q=32, p=p, alpha=0.5)
        res = solve_fourier(prob, seeds=seeds)
        assert np.isfinite(res.energy) and res.energy > 0.0

    def test_rooted_objective_same_argmin(self, monkeypatch):
        # optimizing value**(1/p) instead of the powered value keeps the minimizers
        prob = FourierProblem(DISK, n_f=8, m=48, q=128, p=2.0, alpha=0.4)
        plain = solve_fourier(prob, seeds=2, base_seed=5)
        p, delegate = prob.p, fourier.run_multistart

        def rooted_multistart(nlp, starts, params, energy_fn):
            powered = nlp.objective

            def objective(x):
                value, grad = powered(x)
                root = max(value, 0.0) ** (1.0 / p)
                if root <= 0.0:
                    return 0.0, np.zeros_like(grad)
                return float(root), root ** (1.0 - p) / p * grad

            nlp.objective = objective
            return delegate(nlp, starts, params, energy_fn)

        monkeypatch.setattr(fourier, "run_multistart", rooted_multistart)
        rooted = solve_fourier(prob, seeds=2, base_seed=5)
        assert abs(plain.energy - rooted.energy) <= 1e-6

    def test_solve_records_samples_and_coefficients(self):
        prob = FourierProblem(DISK, n_f=6, m=32, q=128, p=2.0, alpha=0.5)
        res = solve_fourier(prob, seeds=1, base_seed=0, n_samples=96)
        assert res.samples.n == 96
        a, b = res.fourier_coefficients
        assert a.size == 7 and b.size == 6

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_pentagon_below_p2_is_solved_from_its_anchor(self, monkeypatch, p):
        # with no objective curvature in the seed, no start reached the feasible set here
        prob = FourierProblem(named_container("pentagon"), n_f=12, p=p, alpha=0.3)
        seen, delegate = {}, fourier.run_multistart

        def spy(nlp, starts, params, energy_fn):
            seen["nlp"], seen["anchor"], seen["energy_fn"] = nlp, starts[0], energy_fn
            return delegate(nlp, starts, params, energy_fn)

        monkeypatch.setattr(fourier, "run_multistart", spy)
        res = solve_fourier(prob, seeds=1)
        nlp = seen["nlp"]
        x = np.concatenate(res.fourier_coefficients)
        assert res.status == "converged"
        assert violation(nlp, x)[0] <= feasibility_bound(nlp, SolverParams())
        assert res.energy <= seen["energy_fn"](seen["anchor"])


# Digests of three solves, taken before the problem held its bases (see
# `_solve_digests`), and of the float kernels they ran on (`_platform_probe`).
PINNED_SOLVES = {
    "square_p10": [
        "11f278df62dd6ca23536c98510bd1cf9217e691d6db0bfd0bc84e7be719f6160",
        "ba54acd5c107573a519acfab9f36605a9d6ded95ba2c4ca38c96295e45511806",
    ],
    "disk_p2": [
        "89e7dba75882f887b622526cb50b73d2c888d6b199810ccc334d0baa051e9957",
        "e908546b28790f5a2d047a120ab5e4e2721cdc9eb199c367355c0817b8a29dbb",
    ],
    "pentagon_p1": [
        "5bcd00286fd18f8dc97a10096e9738995baa5a43c8c47c6b6cef25282824442e",
        "93cc6fe5df143ba80e30a244eefdccd58ca4cfd85782efa4d3df09c7834d286b",
    ],
}
PLATFORM_PROBE = "1de34d3473ca69ba40e4b2df7e2bd21d4b20a18cbbd481b824d4d917f98d24a5"


def _platform_probe():
    """Digest of the float kernels the solves rest on: trig and powers,
    BLAS matrix-vector products, a LAPACK solve and the FFT.  Another CPU
    or library build may round these differently, and then the solves too."""
    from test_multistart import _digest

    rng = np.random.default_rng(0)
    B = basis_matrix(2 * np.pi * np.arange(1024) / 1024, 32)
    w = rng.uniform(0.0, 1.0, 1024)
    H = (B.T * w) @ B + np.eye(65)
    return _digest([B, np.abs(B @ w[:65]) ** 9.5, B.T @ w, np.linalg.solve(H, w[:65]), np.fft.rfft(w)])


def _solve_digests():
    """{cell: (digest of the Winner, digest of the SolveResult without its wall time)}.

    The Winner holds x, the multipliers, status, reason and every OuterRecord.
    Run it in its own interpreter: it leaves `fourier.run_multistart` wrapped."""
    from test_multistart import _digest

    cells = {
        "square_p10": (workload_problem(), {"seeds": 0}),
        "disk_p2": (FourierProblem(DISK, n_f=8, m=48, q=128, p=2.0, alpha=0.4), {"seeds": 2}),
        "pentagon_p1": (FourierProblem(named_container("pentagon"), n_f=12, p=1.0, alpha=0.3), {"seeds": 1}),
    }
    winners, delegate = [], fourier.run_multistart

    def spy(*args):
        winners.append(delegate(*args))
        return winners[-1]

    fourier.run_multistart = spy
    out = {}
    for name, (prob, kwargs) in cells.items():
        res = dataclasses.replace(solve_fourier(prob, **kwargs), wall_time=0.0)
        out[name] = [_digest(winners[-1]), _digest(res)]
    return out


def _print_digests(solve_digests):
    """What a test file run as a script prints for `_pinned_digests`."""
    print(json.dumps({"probe": _platform_probe(), "solves": solve_digests()}))


def _pinned_digests(script):
    """The solve digests `script` prints (`_print_digests`) in a fresh
    interpreter with BLAS pinned to 1 thread.  Skips the calling test when
    that interpreter's `_platform_probe` differs from the pinned one."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    pinned = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **pinned, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    if seen["probe"] != PLATFORM_PROBE:
        pytest.skip("this platform rounds the probe kernels differently from the one pinned")
    return seen["solves"]


def test_solves_are_bitwise_the_pinned_ones():
    assert _pinned_digests(__file__) == PINNED_SOLVES


if __name__ == "__main__":
    _print_digests(_solve_digests)
