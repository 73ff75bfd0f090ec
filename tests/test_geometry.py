"""Support-function calculus: exact values, functionals, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convexfit.geometry import (
    _cross2,
    _hull_ccw,
    ContainerSpec,
    Disk,
    EmptyInteriorError,
    GeometryError,
    MinkowskiSum,
    Polygon,
    Scaled,
    Stadium,
    SupportSamples,
    TWO_PI,
    Translated,
    boundary_points,
    container_area,
    container_perimeter,
    container_scale,
    convexity_residuals,
    curvature_floor,
    convexity_tolerance,
    ensure_convex,
    grid_angles,
    hausdorff_from_supports,
    inner_parallel,
    interior_point,
    named_container,
    perimeter_from_support,
    polygon_area,
    powered_energy,
    powered_gap,
    reconstruct_boundary,
    support_eval,
    support_samples,
    unit_vector,
)
from convexfit.fourier import fourier_to_nodal, truncate_container
from convexfit.oracles import brute_force_nodal

SQUARE = named_container("square")
DISK = Disk((0.0, 0.0), 1.0)
STADIUM = Stadium(1.0, 1.0, 0.0)


def chain_convexity_defect(chain):
    """Most negative cross product of consecutive edge pairs (>= 0 if convex)."""
    pts = np.asarray(chain, dtype=float)
    e = np.roll(pts, -1, axis=0) - pts
    return float(np.min(_cross2(e, np.roll(e, -1, axis=0))))


def reconstruction_tolerance(chain):
    """Chain-convexity tolerance for central-difference reconstructions.

    Samples of bodies with corners reconstruct with O(diam^3 / N^3) concave
    wobble where a stencil straddles a corner (measured on square, triangle
    and pentagon samples); smooth bodies stay at rounding level.
    """
    pts = np.asarray(chain, dtype=float)
    diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    n = len(pts)
    return 1e-8 * max(1.0, diam) ** 2 + 8.0 * diam**3 / n**3


class TestSupportEval:
    def test_square_axis(self):
        assert support_eval(SQUARE, 0.0) == pytest.approx(1.0)

    def test_square_corner(self):
        assert support_eval(SQUARE, np.pi / 4) == pytest.approx(np.sqrt(2.0))

    def test_shifted_disk(self):
        assert support_eval(Disk((1.0, 0.0), 2.0), 0.0) == pytest.approx(3.0)

    def test_minkowski_sum_is_additive(self):
        spec = MinkowskiSum(SQUARE, DISK)
        theta = np.linspace(0, 2 * np.pi, 17)
        np.testing.assert_allclose(
            support_eval(spec, theta),
            support_eval(SQUARE, theta) + support_eval(DISK, theta),
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(GeometryError):
            support_eval("disk", 0.0)
        with pytest.raises(GeometryError, match="unknown container spec"):
            support_eval(type("Foreign", (ContainerSpec,), {})(), 0.0)  # it has no normal form
        with pytest.raises(GeometryError):
            Disk((0, 0), -1.0)
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1), (2, 2)])  # collinear


def test_a_polygon_computes_its_centroid_once(monkeypatch):
    from convexfit import geometry

    specs = [SQUARE, named_container("pentagon"), Polygon([(2, 0), (0, 1), (-1, -1), (0, 0), (1, -1)])]
    expected = [geometry.polygon_centroid(spec.vertices) for spec in specs]
    calls = []
    centroid = geometry.polygon_centroid
    monkeypatch.setattr(geometry, "polygon_centroid", lambda chain: calls.append(1) or centroid(chain))
    for spec, point in zip(specs, expected):
        support_eval(spec, np.linspace(0.0, TWO_PI, 768, endpoint=False))
        support_eval(spec, 0.3)
        geometry.container_scale(spec)
        assert interior_point(spec).tobytes() == point.tobytes()
    assert calls == []


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_a_far_polygon_keeps_its_interior_point_inside(offset):
    # the shoelace centroid cancels far from the origin: 10.6 outside at 1e6
    spec = Polygon(np.array(named_container("pentagon").vertices) + offset)
    v = spec.vertices
    assert np.all(_cross2(np.roll(v, -1, axis=0) - v, interior_point(spec) - v) > 0)


def test_degenerate_hulls_are_cores_but_not_polygons():
    np.testing.assert_array_equal(_hull_ccw([(1, 2), (1, 2), (1, 2)]), [[1, 2]])
    np.testing.assert_array_equal(_hull_ccw([(2, 2), (0, 0), (1, 1)]), [[0, 0], [2, 2]])
    with pytest.raises(GeometryError, match="collinear"):
        Polygon([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(GeometryError, match="at least 3 distinct"):
        Polygon([(0, 0), (1, 1), (0, 0)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: Disk((0.0, np.nan), 1.0),
        lambda: Disk((0.0, 0.0), np.inf),
        lambda: Disk((0.0,), 1.0),
        lambda: Stadium(np.inf, 1.0, 0.0),
        lambda: Stadium(1.0, np.inf, 0.0),
        lambda: Stadium(1.0, 1.0, np.nan),
        lambda: Scaled(DISK, np.inf),
        lambda: Translated(DISK, (0.0, np.inf)),
        lambda: Translated(DISK, (1.0,)),
        lambda: Translated(DISK, (1.0, 2.0, 3.0)),
        lambda: Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, np.inf)]),
        lambda: Disk("12", 1.0),
        lambda: Translated(DISK, b"05"),
    ],
    ids=[
        "disk-center-nan", "disk-radius-inf", "disk-center-short", "stadium-half-length-inf",
        "stadium-radius-inf", "stadium-axis-nan", "scaled-factor-inf", "translated-offset-inf",
        "translated-offset-short", "translated-offset-long", "polygon-vertex-inf",
        "disk-center-string", "translated-offset-bytes",
    ],
)
def test_container_parameters_must_be_finite_pairs(make):
    with pytest.raises(GeometryError):
        make()


class TestSupportSamples:
    def test_unit_disk_constant(self):
        np.testing.assert_allclose(support_samples(DISK, 8).values, 1.0)

    def test_square_edge_normals(self):
        h = support_samples(SQUARE, 4)
        np.testing.assert_allclose(h.values, [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(h.angles, [0, np.pi / 2, np.pi, 1.5 * np.pi])

    def test_stadium_axis_values(self):
        h = support_samples(STADIUM, 4)
        # L|cos theta| + r at theta = 0, pi/2, pi, 3pi/2
        np.testing.assert_allclose(h.values, [2.0, 1.0, 2.0, 1.0])

    def test_needs_three_angles(self):
        with pytest.raises(GeometryError):
            support_samples(DISK, 2)

    def test_negative_values_allowed(self):
        off = Translated(Disk((0, 0), 0.5), (3.0, 0.0))
        h = support_samples(off, 16)
        assert np.min(h.values) < 0  # origin outside the body


@pytest.mark.parametrize(
    "sample",
    [
        lambda: grid_angles(8.0),
        lambda: support_samples(SQUARE, 4.5),
        lambda: fourier_to_nodal(truncate_container(SQUARE, 4), 5.5),
        lambda: brute_force_nodal(SQUARE, 4.5, 2.0, 0.5, 6),
    ],
    ids=["grid_angles", "support_samples", "fourier_to_nodal", "brute_force_nodal"],
)
def test_a_grid_size_must_be_an_integer(sample):
    # 2 pi j / 4.5 are not the angles 2 pi j / 5 that five samples stand for
    with pytest.raises(GeometryError, match="grid size must be an integer"):
        sample()


def test_a_numpy_integer_grid_size_is_the_same_grid():
    assert np.array_equal(grid_angles(np.int64(5)), grid_angles(5))


@pytest.mark.parametrize(
    "spec",
    [named_container(name) for name in ("disk", "square", "stadium", "triangle", "pentagon")]
    + [
        MinkowskiSum(SQUARE, Disk(radius=0.3)),
        Scaled(STADIUM, 2.0),
        Translated(named_container("pentagon"), (3.0, -1.0)),
    ],
    ids=["disk", "square", "stadium", "triangle", "pentagon", "rounded_square", "scaled_stadium", "moved_pentagon"],
)
def test_boundary_points_lie_on_the_supporting_lines(spec):
    # <b(theta), u(theta)> = h(theta): b is on the boundary, and u is a normal there
    theta = grid_angles(512)
    heights = np.sum(boundary_points(spec, theta) * unit_vector(theta), axis=1)
    np.testing.assert_allclose(heights, support_eval(spec, theta), rtol=0, atol=1e-12 * container_scale(spec))
    assert boundary_points(spec, 0.25) @ unit_vector(0.25) == pytest.approx(support_eval(spec, 0.25), abs=1e-12)


class TestPerimeter:
    def test_unit_disk(self):
        assert perimeter_from_support(support_samples(DISK, 360)) == pytest.approx(2 * np.pi)

    def test_square(self):
        assert perimeter_from_support(support_samples(SQUARE, 360)) == pytest.approx(8.0, abs=1e-3)

    def test_stadium(self):
        # analytic: integral of L|cos| + r over [0, 2pi) = 4L + 2 pi r
        assert perimeter_from_support(support_samples(STADIUM, 360)) == pytest.approx(
            4.0 + 2 * np.pi, abs=1e-2
        )


class TestPoweredEnergy:
    def test_plain_values_are_the_rooted_powered_gap(self):
        c = support_samples(DISK, 64).values
        powered, energy, sigma = powered_energy(0.7 * c, c, 8.0)
        assert powered == powered_gap(0.7 * c, c, 8.0)[0]
        assert energy == powered ** (1.0 / 8.0)
        assert sigma == float((powered / TWO_PI) ** (1.0 / 8.0))

    @pytest.mark.parametrize("gap", [0.1, 10.0], ids=["underflow", "overflow"])
    def test_a_constant_gap_at_large_p(self, gap):
        # 0.1^400 underflows to 0 and 10^400 overflows to inf
        c = np.full(64, 20.0)
        powered, energy, sigma = powered_energy(c - gap, c, 400.0)
        assert powered in (0.0, math.inf)
        assert energy == pytest.approx(gap * TWO_PI ** (1.0 / 400.0), rel=1e-12)
        assert sigma == pytest.approx(gap, rel=1e-12)

    def test_no_gap_is_zero(self):
        c = np.full(64, 20.0)
        assert powered_energy(c, c, 400.0) == (0.0, 0.0, 0.0)

    def test_infinite_p_is_the_largest_clamped_gap(self):
        c = support_samples(DISK, 64).values
        v = 0.7 * c
        v[5] = 2.0 * c[5]  # overshoots the container: that gap clamps to 0
        v[9] = 0.1 * c[9]
        assert powered_energy(v, c, math.inf) == (math.inf, c[9] - v[9], c[9] - v[9])
        assert powered_energy(c, c, math.inf) == (math.inf, 0.0, 0.0)
        assert powered_energy(c + 1.0, c, math.inf) == (math.inf, 0.0, 0.0)


class TestHausdorff:
    def test_concentric_disks(self):
        h1 = support_samples(Disk((0, 0), 1.0), 100)
        h2 = support_samples(Disk((0, 0), 0.5), 100)
        assert hausdorff_from_supports(h1, h2) == pytest.approx(0.5)

    def test_square_vs_inscribed_disk(self):
        h1 = support_samples(SQUARE, 720)
        h2 = support_samples(DISK, 720)
        assert hausdorff_from_supports(h1, h2) == pytest.approx(np.sqrt(2) - 1)

    def test_identity(self):
        h = support_samples(SQUARE, 64)
        assert hausdorff_from_supports(h, h) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(GeometryError):
            hausdorff_from_supports(support_samples(DISK, 8), support_samples(DISK, 16))


class TestInnerParallel:
    def test_square_offset(self):
        inner = inner_parallel(SQUARE, 0.5)
        assert polygon_area(inner.vertices) == pytest.approx(1.0)

    def test_disk_offset(self):
        inner = inner_parallel(DISK, 0.3)
        assert inner == Disk((0.0, 0.0), 0.7)

    def test_stadium_offset(self):
        inner = inner_parallel(STADIUM, 0.5)
        assert inner.half_length == pytest.approx(1.0)
        assert inner.radius == pytest.approx(0.5)

    def test_beyond_inradius(self):
        with pytest.raises(EmptyInteriorError):
            inner_parallel(SQUARE, 1.0)
        with pytest.raises(EmptyInteriorError):
            inner_parallel(DISK, 1.0)

    def test_minkowski_disk_part_peels(self):
        spec = MinkowskiSum(SQUARE, Disk((0, 0), 0.5))
        inner = inner_parallel(spec, 0.2)
        theta = np.linspace(0, 2 * np.pi, 63)
        np.testing.assert_allclose(
            support_eval(inner, theta),
            support_eval(MinkowskiSum(SQUARE, Disk((0, 0), 0.3)), theta),
        )
        # offsets beyond the disk radius eat into the polygon
        deep = inner_parallel(spec, 0.7)
        assert container_area(deep) == pytest.approx(container_area(inner_parallel(SQUARE, 0.2)))


class TestReconstruction:
    def test_unit_circle(self):
        chain = reconstruct_boundary(support_samples(DISK, 64))
        radii = np.hypot(chain[:, 0], chain[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_square_chain_close_to_boundary(self):
        chain = reconstruct_boundary(support_samples(SQUARE, 360))

        def dist_to_square(p):
            x, y = abs(p[0]), abs(p[1])
            if x <= 1 and y <= 1:
                return min(1 - x, 1 - y)
            return float(np.hypot(max(x - 1, 0), max(y - 1, 0)))

        assert max(dist_to_square(p) for p in chain) <= 2e-2

    def test_translated_disk(self):
        chain = reconstruct_boundary(support_samples(Disk((1.0, 0.0), 1.0), 4096))
        radii = np.hypot(chain[:, 0] - 1.0, chain[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-10)

    def test_rejects_nonconvex(self):
        values = np.ones(16)
        values[0] = 0.2  # deep dent
        with pytest.raises(GeometryError):
            reconstruct_boundary(SupportSamples(values))


class TestConvexityResiduals:
    def test_constant(self):
        c = convexity_residuals(SupportSamples(np.ones(8)))
        np.testing.assert_allclose(c, 2.0 - 2.0 * np.cos(np.pi / 4))

    def test_spike_pattern(self):
        values = np.ones(8)
        values[0] = 1.5
        c = convexity_residuals(SupportSamples(values))
        # direct evaluation of the stencil
        cos = np.cos(np.pi / 4)
        assert c[0] == pytest.approx(2.0 - 3.0 * cos)
        assert c[1] == pytest.approx(2.5 - 2.0 * cos)
        assert c[0] < 0  # spike flagged
        with pytest.raises(GeometryError):
            ensure_convex(SupportSamples(values))

    def test_square_samples_convex(self):
        h = support_samples(SQUARE, 360)
        assert np.min(convexity_residuals(h)) >= -convexity_tolerance(h)

    @pytest.mark.parametrize("n", [3, 4, 7, 128])
    def test_matches_roll_stencil_bitwise(self, n):
        v = np.random.default_rng(n).normal(size=n)
        reference = np.roll(v, -1) + np.roll(v, 1) - 2.0 * np.cos(2.0 * np.pi / n) * v
        np.testing.assert_array_equal(convexity_residuals(v), reference)
        # a stack of shapes, one per row, as the exhaustive oracle scans them
        rows = np.random.default_rng(n + 1).normal(size=(5, n))
        stacked = convexity_residuals(rows)
        for row, c in zip(rows, stacked):
            reference = np.roll(row, -1) + np.roll(row, 1) - 2.0 * np.cos(2.0 * np.pi / n) * row
            np.testing.assert_array_equal(c, reference)


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)

    def test_triangle(self):
        assert polygon_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)

    def test_regular_ngon(self):
        chain = reconstruct_boundary(support_samples(DISK, 360))
        assert polygon_area(chain) == pytest.approx((360 / 2) * np.sin(2 * np.pi / 360), abs=1e-12)
        assert polygon_area(chain) == pytest.approx(np.pi, abs=2e-4)

    def test_degenerate(self):
        with pytest.raises(GeometryError):
            polygon_area([(0, 0), (1, 1)])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

points = st.lists(
    st.tuples(
        st.floats(-3, 3, allow_nan=False, allow_infinity=False),
        st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    ),
    min_size=3,
    max_size=9,
)


def _try_polygon(pts):
    try:
        return Polygon(np.asarray(pts))
    except GeometryError:
        return None


# the points whose hull is a random convex polygon
HULL_POINTS = st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=3, max_size=8)


def hull_polygon(points):
    """The hull of `points` as a Polygon; a degenerate hull rejects the draw."""
    try:
        return Polygon(np.array(points))
    except GeometryError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(points, points)
def test_minkowski_additivity(pts_a, pts_b):
    a, b = _try_polygon(pts_a), _try_polygon(pts_b)
    if a is None or b is None:
        return
    h_sum = support_samples(MinkowskiSum(a, b), 64).values
    h_parts = support_samples(a, 64).values + support_samples(b, 64).values
    np.testing.assert_allclose(h_sum, h_parts, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.05, 4.0),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(0, 2 * np.pi),
)
def test_scaling_and_translation(s, vx, vy, theta):
    base = named_container("pentagon")
    assert support_eval(Scaled(base, s), theta) == pytest.approx(
        s * support_eval(base, theta), rel=1e-12, abs=1e-12
    )
    u = unit_vector(theta)
    assert support_eval(Translated(base, (vx, vy)), theta) == pytest.approx(
        support_eval(base, theta) + u @ np.array([vx, vy]), rel=1e-12, abs=1e-12
    )
    assert container_area(Scaled(base, s)) == pytest.approx(
        s**2 * container_area(base), rel=1e-12
    )


_angle_arrays = st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=32).map(np.array)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2), st.floats(0.05, 1.5), st.floats(-np.pi, np.pi), _angle_arrays)
def test_stadium_closed_form(half_length, r, axis, theta):
    # the normal form's segment core gives the support L |cos(theta - a)| + r
    expected = half_length * np.abs(np.cos(theta - axis)) + r
    h = support_eval(Stadium(half_length, r, axis), theta)
    np.testing.assert_allclose(h, expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 2), _angle_arrays)
def test_off_centre_disk_closed_form(cx, cy, r, theta):
    # the normal form's point core gives the support <c, u(theta)> + r
    expected = unit_vector(theta) @ np.array([cx, cy]) + r
    np.testing.assert_allclose(support_eval(Disk((cx, cy), r), theta), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("offset", [1e3, 1e6, 1e8])
def test_far_translation_keeps_the_area(offset):
    # the translated core's shoelace must not cancel the area away
    base = MinkowskiSum(named_container("pentagon"), Scaled(DISK, 0.5))
    far = Translated(base, (offset, -offset))
    assert container_area(far) == pytest.approx(container_area(base), rel=1e-7)
    inner = container_area(inner_parallel(base, 0.6))  # past the disk: the polygon core is offset
    assert container_area(inner_parallel(far, 0.6)) == pytest.approx(inner, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1.2, 1.2),
    st.floats(-1.2, 1.2),
    st.floats(0.05, 1.4),
)
def test_inclusion_equivalence_disk_in_square(cx, cy, r):
    """Disk in square iff its support stays below at all 720 nodes."""
    margin = 1.0 - max(abs(cx), abs(cy)) - r  # signed inclusion margin
    if abs(margin) < 1e-6:
        return  # boundary cases are ambiguous at finite sampling
    disk = Disk((cx, cy), r)
    h_disk = support_samples(disk, 720).values
    h_square = support_samples(SQUARE, 720).values
    assert (margin > 0) == bool(np.all(h_disk <= h_square))


@pytest.mark.parametrize("spec,true_area", [(DISK, np.pi), (STADIUM, 4.0 + np.pi)])
def test_reconstruction_area_order(spec, true_area):
    """Shoelace area of the reconstruction converges at order 2."""
    errs = [
        abs(polygon_area(reconstruct_boundary(support_samples(spec, n))) - true_area)
        for n in (128, 256, 512)
    ]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 <= e1 / e2 <= 4.5


@pytest.mark.parametrize("name", ["pentagon", "square", "triangle", "stadium", "disk"])
@pytest.mark.parametrize("n", [128, 256, 512])
def test_reconstructed_chain_is_convex(name, n):
    h = support_samples(named_container(name) if name != "disk" else DISK, n)
    chain = reconstruct_boundary(h)
    assert chain_convexity_defect(chain) >= -reconstruction_tolerance(chain)


def test_container_perimeter_closed_forms():
    assert container_perimeter(SQUARE) == pytest.approx(8.0)
    assert container_perimeter(STADIUM) == pytest.approx(4 + 2 * np.pi)
    assert container_perimeter(MinkowskiSum(SQUARE, DISK)) == pytest.approx(8 + 2 * np.pi)


# every container kind, nested at most 3 deep: the normal form core + rB
# (`geometry._rounded_core`) must reproduce the sampled support function
_coord = st.floats(-2, 2)
_radius = st.floats(0.05, 1.5)
_polygons = (
    st.lists(st.tuples(_coord, _coord), min_size=3, max_size=6)
    .map(_try_polygon)
    .filter(lambda poly: poly is not None and polygon_area(poly.vertices) >= 0.05)
)
_leaves = st.one_of(
    _polygons,
    st.builds(Disk, st.tuples(_coord, _coord), _radius),
    st.builds(Stadium, st.floats(0, 2), _radius, st.floats(-np.pi, np.pi)),
)


def _containers(depth):
    if depth == 1:
        return _leaves
    sub = _containers(depth - 1)
    return st.one_of(
        _leaves,
        st.builds(MinkowskiSum, sub, sub),
        st.builds(Scaled, sub, st.floats(0.25, 2.0)),
        st.builds(Translated, sub, st.tuples(_coord, _coord)),
    )


def _boundary_area(spec, n=4096, eps=1e-7):
    """Shoelace area of boundary points h u + h' u_perp (h' a symmetric
    difference of step eps) at n uniform normals, and more where a polygon
    vertex may hide between two of them.

    `reconstruct_boundary` differentiates across the grid step instead, which
    moves the points beside each polygon edge normal off the boundary: its
    area errs to first order in 1/n (5.9e-4 relative on the stock triangle at
    n = 4096).  Uniform normals also miss a vertex whose normal cone is
    narrower than their step, as in sums of polygons with nearly parallel
    edges; so an interval of normals is bisected while its two points differ
    and its midpoint's point repeats one of them or leaves their chord.
    """

    def points(theta):
        u = unit_vector(theta)
        dh = (support_eval(spec, theta + eps) - support_eval(spec, theta - eps)) / (2.0 * eps)
        return support_eval(spec, theta)[:, None] * u + dh[:, None] * np.column_stack([-u[:, 1], u[:, 0]])

    theta = TWO_PI * np.arange(n + 1) / n  # the last normal closes the chain
    x = points(theta)
    scale = float(np.max(np.abs(x)))

    def near(p, q):
        return np.hypot(*(p - q).T) <= 1e-8 * scale

    for _ in range(60):
        mid = 0.5 * (theta[:-1] + theta[1:])
        xm = points(mid)
        a, b = x[:-1], x[1:]
        bulge = np.abs(_cross2(xm - a, b - a))
        split = ~near(a, b) & (near(xm, a) | near(xm, b) | (bulge > 1e-8 * scale**2))
        if not split.any():
            break
        order = np.argsort(np.concatenate([theta, mid[split]]), kind="stable")
        theta = np.concatenate([theta, mid[split]])[order]
        x = np.concatenate([x, xm[split]])[order]
    return polygon_area(x[:-1])


@settings(max_examples=60, deadline=None)
@given(_containers(3), st.floats(0.0, 0.999))
def test_normal_form_matches_the_support_function(spec, frac):
    theta = TWO_PI * np.arange(720) / 720
    h = support_eval(spec, theta)

    t = frac * curvature_floor(spec)  # within the floor, the offset body is h - t
    np.testing.assert_allclose(support_eval(inner_parallel(spec, t), theta), h - t, rtol=1e-12, atol=1e-12)

    assert container_area(spec) == pytest.approx(_boundary_area(spec), rel=1e-5)
    perimeter = perimeter_from_support(support_samples(spec, 4096))
    assert container_perimeter(spec) == pytest.approx(perimeter, rel=1e-5)

    assert np.min(h - unit_vector(theta) @ interior_point(spec)) > 0.0
