"""Planar convex bodies described by their support functions.

A convex body K is encoded by h_K(theta) = sup{<(cos theta, sin theta), y> :
y in K}.  Containers are symbolic (polygon, disk, stadium, Minkowski sums,
scalings, translations); each has one normal form conv(core) + r B
(`_rounded_core`), only read in this module: support, boundary points, area,
perimeter, interior point and inner parallel bodies.  A `ContainerSpec`
subclass defined outside this module has no normal form and is refused.
Candidate shapes are nodal samples of a support function on the uniform
angular grid theta_j = 2*pi*j/N, j = 0..N-1 (indices wrap modulo N).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

TWO_PI = 2.0 * np.pi


class GeometryError(ValueError):
    """Invalid geometric input (degenerate polygon, bad radius, ...)."""


class EmptyInteriorError(GeometryError):
    """An inner offset exceeded the inradius of the body."""


def unit_vector(theta):
    """Direction(s) (cos theta, sin theta), stacked on the last axis."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


# ---------------------------------------------------------------------------
# container specifications
# ---------------------------------------------------------------------------


class ContainerSpec:
    """Marker base of the container kinds below; `_rounded_core` holds their geometry."""


def _finite(value, what):
    if not math.isfinite(value):
        raise GeometryError(f"{what} must be finite, got {value!r}")


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GeometryError(f"{what} must be an integer, got {value!r}")


def _finite_pair(value, what):
    """`value` as a tuple of two finite floats; GeometryError otherwise."""
    try:
        if isinstance(value, (str, bytes)):  # "12" would iterate to (1, 2)
            raise TypeError
        pair = tuple(float(c) for c in value)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"{what} must be a pair of numbers, got {value!r}") from exc
    if len(pair) != 2 or not all(math.isfinite(c) for c in pair):
        raise GeometryError(f"{what} must be a finite (x, y) pair, got {value!r}")
    return pair


def _cross2(a, b):
    """z-component of the planar cross product (works on stacked vectors)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _hull_ccw(points):
    """Strictly convex hull in CCW order (collinear points dropped).

    Andrew's monotone chain; deterministic for identical input.  Degenerate
    input gives 1 point (all equal) or the 2 ends of a segment (collinear).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError("polygon vertices must be an (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("polygon vertices must be finite")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 0, axis=1)
    pts = pts[keep]
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


@dataclass(frozen=True, eq=False)
class Polygon(ContainerSpec):
    """Convex polygon; vertices are hull-cleaned to strict CCW order."""

    vertices: np.ndarray
    centroid: np.ndarray = field(init=False, repr=False)  # their polygon_centroid, computed once

    def __post_init__(self):
        hull = _hull_ccw(self.vertices)
        if len(hull) < 3:
            distinct = len(np.unique(np.asarray(self.vertices, dtype=float), axis=0))
            raise GeometryError(
                "polygon vertices are collinear" if distinct >= 3
                else "polygon needs at least 3 distinct vertices"
            )
        hull.setflags(write=False)
        object.__setattr__(self, "vertices", hull)
        centroid = polygon_centroid(hull)
        centroid.setflags(write=False)
        object.__setattr__(self, "centroid", centroid)


@dataclass(frozen=True)
class Disk(ContainerSpec):
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError("disk radius must be positive")
        _finite(self.radius, "disk radius")
        object.__setattr__(self, "center", _finite_pair(self.center, "disk center"))


@dataclass(frozen=True)
class Stadium(ContainerSpec):
    """Segment of half-length L along `axis`, thickened by a disk of radius r."""

    half_length: float = 1.0
    radius: float = 1.0
    axis: float = 0.0

    def __post_init__(self):
        if self.half_length < 0:
            raise GeometryError("stadium half-length must be >= 0")
        if not self.radius > 0:
            raise GeometryError("stadium radius must be positive")
        for name in ("half_length", "radius", "axis"):
            _finite(getattr(self, name), f"stadium {name}")


@dataclass(frozen=True)
class MinkowskiSum(ContainerSpec):
    left: ContainerSpec
    right: ContainerSpec


@dataclass(frozen=True)
class Scaled(ContainerSpec):
    base: ContainerSpec
    factor: float

    def __post_init__(self):
        if not self.factor > 0:
            raise GeometryError("scale factor must be positive")
        _finite(self.factor, "scale factor")


@dataclass(frozen=True)
class Translated(ContainerSpec):
    base: ContainerSpec
    offset: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "offset", _finite_pair(self.offset, "translation offset"))


def support_eval(spec, theta):
    """Exact support value h_spec(theta) = max_v <v, u(theta)> + r of the normal
    form conv(vertices) + r B (`_rounded_core`); theta may be scalar or array."""
    if not isinstance(spec, ContainerSpec):
        raise GeometryError(f"not a container spec: {spec!r}")
    vertices, radius, _ = _rounded_core(spec)
    out = np.max(unit_vector(theta) @ vertices.T, axis=-1) + radius
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def boundary_points(spec, theta):
    """The boundary point(s) with outer normal u(theta): the core vertex
    farthest along u, moved by r u; theta may be scalar or array."""
    vertices, radius, _ = _rounded_core(spec)
    u = unit_vector(theta)
    return vertices[np.argmax(u @ vertices.T, axis=-1)] + radius * u


# ---------------------------------------------------------------------------
# nodal support samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SupportSamples:
    """Support values on the uniform grid theta_j = 2*pi*j/N, j = 0..N-1.

    Values may be negative: the support function of a body that does not
    contain the origin dips below zero, which is perfectly valid here.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise GeometryError("support samples need at least 3 nodal values")
        if not np.all(np.isfinite(v)):
            raise GeometryError("support samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size

    @property
    def angles(self):
        return grid_angles(self.n)


def _values(h):
    """The nodal values of `h`, SupportSamples or array-like, as floats."""
    return h.values if isinstance(h, SupportSamples) else np.asarray(h, dtype=float)


def grid_angles(n):
    """The uniform angular grid theta_j = 2*pi*j/n, j = 0..n-1."""
    _integer(n, "grid size")
    return TWO_PI * np.arange(n) / n


def support_samples(spec, n):
    """Sample the exact container support on the uniform n-point grid."""
    if n < 3:
        raise GeometryError("need at least 3 sample angles")
    return SupportSamples(support_eval(spec, grid_angles(n)))


@functools.lru_cache(maxsize=64)
def grid_constants(n):
    """(2 cos(2*pi/N), (pi/N) / (2 - 2 cos(2*pi/N))) of the N-point grid: the
    centre weight of the convexity stencil and the nodal area's factor."""
    cos = np.cos(TWO_PI / n)
    return 2.0 * cos, (np.pi / n) / (2.0 - 2.0 * cos)


def convexity_residuals(h):
    """Discrete curvature residuals c_j = h_{j+1} + h_{j-1} - 2 h_j cos(2*pi/N),
    along the last axis (one shape per row).

    The sampled function is the support function of a convex body exactly when
    every c_j is nonnegative.
    """
    v = _values(h)
    c = np.empty_like(v)
    np.add(v[..., 2:], v[..., :-2], out=c[..., 1:-1])
    c[..., 0] = v[..., 1] + v[..., -1]
    c[..., -1] = v[..., 0] + v[..., -2]
    c -= grid_constants(v.shape[-1])[0] * v
    return c


def nodal_area(h):
    """Discrete area (pi/N)/(2-2cos(2pi/N)) * sum h_j c_j and its gradient.

    Exact for constants: h == r gives pi r^2 on every grid.
    """
    v = _values(h)
    kappa = grid_constants(v.size)[1]
    c = convexity_residuals(v)
    return float(kappa * np.sum(v * c)), 2.0 * kappa * c


def convexify(values):
    """Largest discretely-convex minorant of the given nodal values.

    Equals the sampled support function of the polygon cut out by the
    half-planes <x, u(theta_j)> <= v_j, so the result is exactly feasible
    for the discrete convexity condition.  (Iterative local averaging of
    the violating nodes converges to the same kind of minorant, but needs
    far more than 10 N sweeps to clear the last 1e-8; the polygon route is
    exact and O(N^2).)  Only ever lowers values, preserving inclusion.
    """
    v = np.asarray(values, dtype=float)
    u = unit_vector(grid_angles(v.size))
    r = 2.0 * float(np.max(np.abs(v))) + 1.0
    pts = np.array([[r, r], [-r, r], [-r, -r], [r, -r]])
    for u_j, v_j in zip(u, v):
        pts = _clip_halfplane(pts, u_j, v_j)
        if len(pts) < 3:
            raise GeometryError("convexification emptied the shape")
    return np.min(np.stack([np.max(pts @ u.T, axis=0), v]), axis=0)


def convexity_tolerance(h):
    """Scale-invariant acceptance tolerance for the convexity residuals."""
    v = _values(h)
    return 1e-9 * max(1.0, float(np.max(np.abs(v))))


def ensure_convex(h, tol=None):
    """Return `h` as SupportSamples, or raise if residuals dip below -tol.

    `tol` defaults to the scale-invariant tolerance; callers inspecting
    solver output may pass a looser one (iterates satisfy the constraints
    only to the solver's feasibility tolerance).
    """
    samples = h if isinstance(h, SupportSamples) else SupportSamples(h)
    worst = float(np.min(convexity_residuals(samples)))
    if worst < -(convexity_tolerance(samples) if tol is None else tol):
        raise GeometryError(f"samples are not discretely convex (min residual {worst:g})")
    return samples


def perimeter_from_support(h):
    """Rectangle-rule perimeter (2*pi/N) * sum h_j."""
    v = h.values
    return float(TWO_PI / v.size * np.sum(v))


def powered_gap(values, container_values, p, ref=1.0):
    """Rectangle-rule powered gap (2*pi/K) sum g_k^p over K uniform samples
    of the clamped gap g = max((h_C - h) / ref, 0), its gradient in the
    samples, and g itself.

    The clamp at zero keeps odd and fractional exponents real for iterates
    that overshoot the container between multiplier updates; at clamped
    samples the gradient is taken as zero.
    """
    gap = np.maximum((container_values - values) / ref, 0.0)
    w = TWO_PI / gap.size
    value = w * np.sum(gap**p)
    grad = -(p / ref) * w * gap ** (p - 1.0) if p > 1.0 else -(w / ref) * (gap > 0.0)
    return float(value), grad, gap


def powered_energy(values, container_values, p):
    """(powered, J_p, sigma) on K uniform samples, for every p in [1, inf].

    powered is `powered_gap`'s value, J_p = powered^(1/p) and sigma =
    (powered / 2 pi)^(1/p).  Where powered is 0, subnormal or inf, though
    the gap is positive and finite, those roots read 0 or inf; there J_p is
    recomputed as M ((2 pi/K) sum (g/M)^p)^(1/p) with M = max g (0 when
    M = 0), and sigma = J_p / (2 pi)^(1/p).  At p = inf it is (inf, M, M):
    J_inf is the largest clamped gap, the Hausdorff distance of a subset.
    """
    gap = np.maximum(container_values - values, 0.0)
    top = float(np.max(gap, initial=0.0))
    if math.isinf(p):
        return math.inf, top, top
    with np.errstate(over="ignore", under="ignore"):
        powered = powered_gap(values, container_values, p)[0]
        if sys.float_info.min <= powered < math.inf:
            return powered, powered ** (1.0 / p), float((powered / TWO_PI) ** (1.0 / p))
        energy = top * float(TWO_PI / gap.size * np.sum((gap / top) ** p)) ** (1.0 / p) if top else 0.0
    return powered, energy, energy / TWO_PI ** (1.0 / p)


def gap_model(container_values, p, anchor_values, scale):
    """The finite-p program both discretizations minimize, on K uniform samples.

    Returns (objective, curvature); w = 2*pi/K and the gap is scaled by
    ref = max(largest anchor gap, 1e-6 scale).  objective(h) gives the value,
    its gradient in the samples and the gap: `powered_gap` at ref, but at
    p = 1 the linear form w sum (h_C - h) / ref, equal on the feasible set
    and smooth (the clamp's kink on the inclusion boundary, with its
    zero-gradient side, creates spurious stationary points).  curvature(h,
    gap=None) gives the Newton seed's per-sample weights p (p - 1) w / ref^2
    g^(p - 2) at the clamped gap g (the objective's, if passed); below p = 2,
    where the powered gap has little or no curvature, the proximal floor
    w / ref^2 keeps the seed bounded and its steps at the shape scale.
    """
    ref = max(float(np.max(container_values - anchor_values, initial=0.0)), 1e-6 * scale)
    w = TWO_PI / container_values.size

    def objective(values):
        if p == 1.0:
            gap = (container_values - values) / ref
            return float(w * np.sum(gap)), np.full(gap.size, -w / ref), gap
        return powered_gap(values, container_values, p, ref)

    def curvature(values, gap=None):
        if p < 2.0:
            return np.full(container_values.size, w / ref**2)
        if gap is None:
            gap = np.maximum((container_values - values) / ref, 0.0)  # powered_gap's clamped gap
        return p * (p - 1.0) * w / ref**2 * gap ** (p - 2.0)

    return objective, curvature


def hausdorff_from_supports(h1, h2):
    """max_j |h1_j - h2_j| on a shared grid."""
    if h1.n != h2.n:
        raise GeometryError(f"grid size mismatch: {h1.n} vs {h2.n}")
    return float(np.max(np.abs(h1.values - h2.values)))


def reconstruct_boundary(h, tol=None):
    """Vertices of the polygon cut out by the support lines <x, u_j> = h_j:
    (h_j sin t_{j+1} - h_{j+1} sin t_j, h_{j+1} cos t_j - h_j cos t_{j+1}) /
    sin(2 pi/N) between the normals t_j and t_{j+1}.  Its support at each
    t_j is h_j, and its area sum h_j c_j / (2 sin(2 pi/N)).

    Requires discretely convex samples (to `tol`, see ensure_convex).
    """
    h = ensure_convex(h, tol=tol)
    v, v_next = h.values, np.roll(h.values, -1)
    cos, sin = np.cos(h.angles), np.sin(h.angles)
    cos_next, sin_next = np.roll(cos, -1), np.roll(sin, -1)
    return np.column_stack([v * sin_next - v_next * sin, v_next * cos - v * cos_next]) / math.sin(TWO_PI / h.n)


def polygon_area(chain):
    """Shoelace area, positive for CCW chains."""
    pts = np.asarray(chain, dtype=float)
    if pts.ndim != 2 or len(pts) < 3:
        raise GeometryError("polygon area needs at least 3 points")
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(chain):
    """Shoelace centroid of a CCW convex chain, or its vertex mean where the
    shoelace cancels to a point not strictly inside (10.6 outside a pentagon
    moved by (1e6, 1e6))."""
    pts = np.asarray(chain, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        return pts.mean(axis=0)
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * area)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * area)
    c = np.array([cx, cy])
    if not np.all(_cross2(np.roll(pts, -1, axis=0) - pts, c - pts) > 0):
        return pts.mean(axis=0)
    return c


# ---------------------------------------------------------------------------
# exact functionals of container specs
# ---------------------------------------------------------------------------


def _rounded_core(spec):
    """(vertices, radius, point): `spec` as conv(vertices) + radius * B.

    Every container kind is a convex polygon, segment or point (its core,
    vertices as `_hull_ccw` returns them) thickened by a disk of radius
    r >= 0: its support is max_v <v, u> + r, and its area, perimeter and
    inner parallel bodies follow from Steiner's formula.  `point` lies
    strictly inside: a polygon's centroid, a disk's centre, the origin for
    a stadium, carried through scalings, translations and sums.
    """
    if isinstance(spec, Polygon):
        return spec.vertices, 0.0, spec.centroid
    if isinstance(spec, Disk):
        center = np.asarray(spec.center, dtype=float)
        return center[None, :], spec.radius, center
    if isinstance(spec, Stadium):
        end = spec.half_length * unit_vector(spec.axis)
        return _hull_ccw([-end, end]), spec.radius, np.zeros(2)
    if isinstance(spec, Scaled):
        vertices, radius, point = _rounded_core(spec.base)
        return spec.factor * vertices, spec.factor * radius, spec.factor * point
    if isinstance(spec, Translated):
        vertices, radius, point = _rounded_core(spec.base)
        offset = np.asarray(spec.offset)
        return vertices + offset, radius, point + offset
    if isinstance(spec, MinkowskiSum):
        (va, ra, za), (vb, rb, zb) = _rounded_core(spec.left), _rounded_core(spec.right)
        return _hull_ccw((va[:, None, :] + vb[None, :, :]).reshape(-1, 2)), ra + rb, za + zb
    raise GeometryError(f"unknown container spec: {spec!r}")


def _core_area_perimeter(vertices):
    """Area and perimeter of conv(vertices); a segment has area 0 and
    perimeter twice its length.

    The shoelace runs about the multiple of g = 8 * 2^ceil(log2(size))
    nearest the first vertex: the origin for a core within 4 sizes of it,
    else a point beside the core, so a far translation does not cancel the
    area away (a pentagon moved by (1e8, 1e8) would read 3.0, not 2.18).
    """
    edges = np.roll(vertices, -1, axis=0) - vertices
    perimeter = float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))
    if len(vertices) < 3:
        return 0.0, perimeter
    grid = 8.0 * 2.0 ** math.ceil(math.log2(float(np.max(np.ptp(vertices, axis=0)))))
    return polygon_area(vertices - grid * np.round(vertices[0] / grid)), perimeter


def core_measures(spec):
    """(|core|, P(core), r) of the normal form conv(core) + r B."""
    vertices, radius, _ = _rounded_core(spec)
    return (*_core_area_perimeter(vertices), radius)


def container_perimeter(spec):
    """Exact perimeter P(core) + 2 pi r."""
    _, perimeter, radius = core_measures(spec)
    return perimeter + TWO_PI * radius


def container_area(spec):
    """Exact area |core| + r P(core) + pi r^2 (Steiner)."""
    area, perimeter, radius = core_measures(spec)
    return float(area + radius * perimeter + np.pi * radius**2)


def interior_point(spec):
    """A point strictly inside the body (exact)."""
    return _rounded_core(spec)[2]


def curvature_floor(spec):
    """Largest r with boundary curvature radius >= r everywhere: the radius
    of the disk that thickens the core."""
    return _rounded_core(spec)[1]


def container_bounds(spec):
    """Tight axis-aligned bounding box (xmin, xmax, ymin, ymax)."""
    return (
        -support_eval(spec, np.pi),
        support_eval(spec, 0.0),
        -support_eval(spec, 1.5 * np.pi),
        support_eval(spec, 0.5 * np.pi),
    )


def container_scale(spec):
    """Bounding-box diagonal, used to normalize tolerances."""
    xmin, xmax, ymin, ymax = container_bounds(spec)
    return float(np.hypot(xmax - xmin, ymax - ymin))


# ---------------------------------------------------------------------------
# inner parallel sets
# ---------------------------------------------------------------------------


def _clip_halfplane(points, normal, offset):
    """Keep the part of a convex polygon with <x, normal> <= offset."""
    out = []
    m = len(points)
    d = points @ normal - offset
    for i in range(m):
        j = (i + 1) % m
        if d[i] <= 0:
            out.append(points[i])
        if (d[i] < 0 < d[j]) or (d[j] < 0 < d[i]):
            s = d[i] / (d[i] - d[j])
            out.append(points[i] + s * (points[j] - points[i]))
    return np.array(out) if out else np.empty((0, 2))


def _polygon_inner_parallel(verts, t):
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    pts = verts.copy()
    for v, nrm in zip(verts, normals):
        pts = _clip_halfplane(pts, nrm, float(v @ nrm) - t)
        if len(pts) < 3:
            raise EmptyInteriorError(f"inner offset {t:g} empties the polygon")
    try:
        result = Polygon(pts)
    except GeometryError as exc:
        raise EmptyInteriorError(f"inner offset {t:g} degenerates the polygon") from exc
    if _core_area_perimeter(result.vertices)[0] <= 1e-12 * max(1.0, _core_area_perimeter(verts)[0]):
        raise EmptyInteriorError(f"inner offset {t:g} empties the polygon")
    return result


def _rounded_body(vertices, radius):
    """A container spec for conv(vertices) + radius * B, radius > 0."""
    hull = _hull_ccw(vertices)  # a scaled or translated core may have lost strict convexity
    if len(hull) > 2:
        return MinkowskiSum(Polygon(vertices), Disk((0.0, 0.0), radius))  # the same hull
    if len(hull) == 1:
        return Disk(hull[0], radius)
    a, b = hull
    dx, dy = b - a
    return Translated(Stadium(0.5 * math.hypot(dx, dy), radius, math.atan2(dy, dx)), 0.5 * (a + b))


def inner_parallel(spec, t):
    """Inner parallel body at distance t (points at distance >= t from the boundary).

    With spec = core + rB (`_rounded_core`), an offset t < r sheds radius,
    leaving core + (r - t)B (disks and stadiums keep their kind); a larger
    one offsets the polygon core by t - r edge by edge and re-hulls.  A
    general h - t is *not* used: it is a support function only when the
    curvature radius of the boundary stays >= t everywhere.
    """
    if t < 0:
        raise GeometryError("offset distance must be >= 0")
    if t == 0:
        return spec
    vertices, radius, _ = _rounded_core(spec)
    if t < radius:
        if isinstance(spec, (Disk, Stadium)):
            return replace(spec, radius=radius - t)
        return _rounded_body(vertices, radius - t)
    hull = _hull_ccw(vertices)
    if len(hull) < 3:
        raise EmptyInteriorError(f"offset {t:g} >= inradius {radius:g}")
    return _polygon_inner_parallel(hull, t - radius)


# ---------------------------------------------------------------------------
# stock containers used across experiments
# ---------------------------------------------------------------------------

#: Irregular convex pentagon with documented vertices (CCW).
PENTAGON_VERTICES = (
    (1.0, 0.0),
    (0.4, 0.9),
    (-0.7, 0.7),
    (-0.9, -0.4),
    (0.3, -0.8),
)


def named_container(name):
    """Stock containers: disk, square, stadium, triangle, pentagon."""
    key = name.strip().lower()
    if key == "disk":
        return Disk((0.0, 0.0), 1.0)
    if key == "square":
        return Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    if key == "stadium":
        return Stadium(1.0, 1.0, 0.0)
    if key == "triangle":
        s = np.sqrt(3.0) / 2.0
        return Polygon([(1.0, 0.0), (-0.5, s), (-0.5, -s)])
    if key == "pentagon":
        return Polygon(PENTAGON_VERTICES)
    raise GeometryError(f"unknown container name: {name!r}")
