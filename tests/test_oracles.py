"""Analytic ground truths: inner-parallel optima, the p=1 identity, brute force."""

import itertools

import numpy as np
import pytest

from convexfit import geometry
from convexfit.geometry import (
    Disk,
    MinkowskiSum,
    Polygon,
    Scaled,
    Stadium,
    SupportSamples,
    container_area,
    named_container,
    perimeter_from_support,
    powered_energy,
    support_samples,
    unit_vector,
    interior_point,
)
from convexfit.geometry import convexity_residuals
from convexfit.nodal import NodalProblem, _random_start, nodal_area, solve_nodal
from convexfit.oracles import (
    BruteForceReport,
    OracleNotApplicable,
    brute_force_nodal,
    curvature_floor,
    inner_parallel_optimum,
    perimeter_identity_check,
    triangle_conjecture_candidate,
)

DISK = Disk((0.0, 0.0), 1.0)
SQUARE = named_container("square")
STADIUM = Stadium(1.0, 1.0, 0.0)
COMPOSITES = (MinkowskiSum(STADIUM, SQUARE), MinkowskiSum(Scaled(DISK, 0.5), SQUARE))


class TestInnerParallelOptimum:
    def test_disk_quarter_area(self):
        d, shape = inner_parallel_optimum(DISK, 0.25)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert shape.radius == pytest.approx(0.5, abs=1e-12)

    def test_stadium_half_radius(self):
        alpha = (4 * 1 * 0.5 + np.pi * 0.25) / (4 + np.pi)
        d, shape = inner_parallel_optimum(STADIUM, alpha)
        assert d == pytest.approx(0.5, abs=1e-10)
        assert shape.radius == pytest.approx(0.5, abs=1e-10)

    def test_alpha_one_trivial(self):
        d, shape = inner_parallel_optimum(DISK, 1.0)
        assert d == 0.0
        assert shape is DISK

    def test_polygon_not_applicable(self):
        with pytest.raises(OracleNotApplicable):
            inner_parallel_optimum(SQUARE, 0.5)

    def test_minkowski_band_limited(self):
        # square + disk(0.3): hypothesis valid only down to |K| / |Omega|
        spec = MinkowskiSum(SQUARE, Disk((0, 0), 0.3))
        low = container_area(SQUARE) / container_area(spec)
        d, _ = inner_parallel_optimum(spec, low + 0.02)
        assert 0.0 < d < 0.3
        with pytest.raises(OracleNotApplicable):
            inner_parallel_optimum(spec, low - 0.05)

    @pytest.mark.parametrize("alpha", [0.15, 0.4, 0.8])
    def test_closed_form_area_accuracy(self, alpha):
        for spec in (DISK, STADIUM, MinkowskiSum(SQUARE, Disk((0, 0), 1.0)), *COMPOSITES):
            total = container_area(spec)
            try:
                d, shape = inner_parallel_optimum(spec, alpha)
            except OracleNotApplicable:
                continue
            assert abs(container_area(shape) - alpha * total) <= 1e-12 * total

    def test_composite_containers_are_exact(self):
        # stadium + square = [-2, 2] x [-1, 1] + B; half a disk + square = [-1, 1]^2 + B/2
        for spec, area, d in zip(COMPOSITES, (20.0 + np.pi, 8.0 + np.pi / 4), (0.722582, 0.451824)):
            assert container_area(spec) == pytest.approx(area, rel=1e-14, abs=0.0)
            offset, shape = inner_parallel_optimum(spec, 0.5)
            assert offset == pytest.approx(d, abs=1e-6)
            assert container_area(shape) == pytest.approx(0.5 * area, rel=1e-12, abs=0.0)

    def test_tiny_alpha_keeps_the_body_area(self):
        # the remaining radius rho is solved for without cancellation
        _, shape = inner_parallel_optimum(DISK, 1e-9)
        assert container_area(shape) == pytest.approx(1e-9 * np.pi, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1e-40])
    @pytest.mark.parametrize("spec", [DISK, STADIUM, *COMPOSITES])
    def test_alpha_zero_is_not_applicable(self, spec, alpha):
        # the optimum is the core (a point, a segment, or a polygon too large),
        # or at 1e-40 a radius that rounds away against the floor
        with pytest.raises(OracleNotApplicable):
            inner_parallel_optimum(spec, alpha)

    def test_curvature_floor_values(self):
        assert curvature_floor(DISK) == 1.0
        assert curvature_floor(STADIUM) == 1.0
        assert curvature_floor(SQUARE) == 0.0
        assert curvature_floor(MinkowskiSum(SQUARE, Disk((0, 0), 0.3))) == pytest.approx(0.3)

    def test_curvature_floor_is_the_geometry_one(self):
        assert curvature_floor is geometry.curvature_floor
        assert curvature_floor(Scaled(MinkowskiSum(STADIUM, Disk((2, 0), 0.5)), 2.0)) == 3.0


class TestPerimeterIdentity:
    def test_square_in_square(self):
        inner = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        shape = support_samples(inner, 360)
        assert perimeter_identity_check(SQUARE, shape) <= 1e-10

    def test_disk_in_disk(self):
        shape = support_samples(Disk((0, 0), 0.5), 256)
        assert perimeter_identity_check(DISK, shape) <= 1e-12

    def test_random_feasible_shapes(self):
        prob = NodalProblem(SQUARE, n=360, p=1.0, alpha=0.5)
        zu = unit_vector(prob.angles) @ interior_point(SQUARE)
        for seed in range(10):
            values = _random_start(prob, zu, np.random.default_rng([seed]))
            assert perimeter_identity_check(SQUARE, SupportSamples(values)) <= 1e-10


class TestBruteForce:
    def test_alpha_one_exact(self):
        rep = brute_force_nodal(DISK, 5, 2.0, 1.0, 11)
        assert rep.energy == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.values.values, 1.0)

    def test_beats_random_feasible_grid_points(self):
        n, G = 5, 11
        rep = brute_force_nodal(DISK, n, 2.0, 0.25, G)
        h_c = support_samples(DISK, n).values
        levels = [np.linspace(0.0, h_c[j], G) for j in range(n)]
        target = 0.25 * nodal_area(h_c)[0]
        rng = np.random.default_rng(0)
        found = 0
        while found < 100:
            values = np.array([rng.choice(levels[j]) for j in range(n)])
            c = convexity_residuals(SupportSamples(values))
            area = nodal_area(values)[0]
            if np.min(c) >= 0 and abs(area - target) <= rep.area_slack:
                found += 1
                gaps = np.maximum(h_c - values, 0.0)
                powered = 2 * np.pi / n * np.sum(gaps**2)
                assert rep.powered_value <= powered + 1e-12

    def test_cap_on_grid_points(self):
        with pytest.raises(Exception):
            brute_force_nodal(DISK, 6, 2.0, 0.25, 50)  # 50^6 > 1e8

    def test_cap_holds_where_the_point_count_overflows_a_float(self):
        # 25^256 (N and oracle_grid of configs/disk_hausdorff.yaml) is about
        # 1e358: the cap is reported, not an OverflowError
        with pytest.raises(geometry.GeometryError, match=r"^25\^256 grid points exceed the 1e\+08 cap$"):
            brute_force_nodal(DISK, 256, 2.0, 0.25, 25)

    @pytest.mark.parametrize("n, G, expected", [(5, 9, 0.5), (4, 6, 0.6)])
    def test_infinite_p_minimizes_the_largest_gap(self, n, G, expected):
        rep = brute_force_nodal(DISK, n, np.inf, 0.25, G)
        h_c = support_samples(DISK, n).values
        target = 0.25 * nodal_area(h_c)[0]
        best = np.inf
        for idx in itertools.product(range(G), repeat=n):
            values = np.array(idx) * (h_c / (G - 1))
            feasible = np.min(convexity_residuals(values)) >= 0.0
            if feasible and abs(nodal_area(values)[0] - target) <= rep.area_slack:
                best = min(best, float(np.max(h_c - values)))
        assert rep.energy == pytest.approx(best, abs=1e-12)
        assert rep.energy == pytest.approx(expected, abs=1e-12)
        assert float(np.max(h_c - rep.values.values)) == rep.energy
        assert rep.powered_value == np.inf
        assert not rep.widened

    @pytest.mark.parametrize(
        "name, p, energy, shape",
        [
            ("disk", 512.0, 0.501298, [0.5, 0.5, 0.625, 0.5, 0.625]),
            ("disk", 2048.0, 0.500324, [0.5, 0.5, 0.625, 0.5, 0.625]),
            ("square", 2048.0, 0.630320, [0.375, 0.630037, 0.873001, 0.873001, 0.630037]),
        ],
    )
    def test_large_p_ranks_by_the_scale_safe_energy(self, name, p, energy, shape):
        # at p = 2048 the plain scores (2 pi/N) sum g^p of these grids read 0 or inf
        container = named_container(name)
        rep = brute_force_nodal(container, 5, p, 0.25, 9)
        h_c = support_samples(container, 5).values
        assert rep.energy == pytest.approx(energy, abs=1e-6)
        np.testing.assert_allclose(rep.values.values, shape, atol=1e-6)
        powered, j_p, _ = powered_energy(rep.values.values, h_c, p)
        assert (rep.powered_value, rep.energy) == (powered, j_p)

    @pytest.mark.parametrize("p", [2048.0, 1e4])
    def test_large_p_energy_is_positive(self, p):
        assert brute_force_nodal(DISK, 4, p, 0.25, 5).energy > 0.0

    def test_report_fields(self):
        rep = brute_force_nodal(SQUARE, 4, 1.0, 0.25, 12)
        assert isinstance(rep, BruteForceReport)
        assert isinstance(rep.values, SupportSamples)
        assert rep.values.n == 4
        assert rep.area_slack > 0
        assert rep.energy > 0
        assert rep.energy == pytest.approx(rep.powered_value)  # p = 1: no root


class TestTriangleConjecture:
    def test_full_triangle(self):
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
        chain, _ = triangle_conjecture_candidate(tri, 1.0)
        # M = C: the full triangle comes back (as a vertex set)
        got = {tuple(np.round(p, 12)) for p in chain}
        want = {tuple(np.round(p, 12)) for p in tri}
        assert got == want

    def test_degenerate_alpha_zero(self):
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)])
        chain, _ = triangle_conjecture_candidate(tri, 0.0)
        # M collapses onto A: the long-side endpoint with the larger angle
        lengths = [np.linalg.norm(chain[i] - chain[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        assert min(lengths) <= 1e-12

    def test_right_triangle_midpoint(self):
        chain, relabeled = triangle_conjecture_candidate([(0, 0), (2, 0), (0, 1)], 0.5)
        assert relabeled  # the given labels do not put the diameter on [AB]
        found = any(np.allclose(p, (0.0, 0.5)) for p in chain)
        assert found
        # candidate area is half the container's
        x, y = chain[:, 0], chain[:, 1]
        area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert area == pytest.approx(0.5)


def test_p1_solution_perimeter_dominates_scaled_copy():
    """Reverse-isoperimetric consistency: the solver's p=1 shape has at
    least the perimeter of the feasible scaled-container competitor."""
    prob = NodalProblem(SQUARE, n=48, p=1.0, alpha=0.36)
    res = solve_nodal(prob, seeds=2, base_seed=0)
    competitor = SupportSamples(np.sqrt(0.36) * prob.container_values)
    assert perimeter_from_support(res.samples) >= perimeter_from_support(competitor) - 1e-6
