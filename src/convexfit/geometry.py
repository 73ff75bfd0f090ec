"""Planar convex bodies described by their support functions.

A convex body K is encoded by h_K(theta) = sup{<(cos theta, sin theta), y> :
y in K}.  Containers are symbolic (polygon, disk, stadium, Minkowski sums,
scalings, translations) and evaluate their support exactly; candidate shapes
are nodal samples of a support function on the uniform angular grid
theta_j = 2*pi*j/N, j = 0..N-1 (indices wrap modulo N).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
    """Base class for symbolic convex-body descriptions."""

    def support(self, theta):
        raise NotImplementedError


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

    Andrew's monotone chain; deterministic for identical input.
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
        raise GeometryError("polygon needs at least 3 distinct vertices")

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise GeometryError("polygon vertices are collinear")
    return hull


@dataclass(frozen=True, eq=False)
class Polygon(ContainerSpec):
    """Convex polygon; vertices are hull-cleaned to strict CCW order."""

    vertices: np.ndarray

    def __post_init__(self):
        hull = _hull_ccw(self.vertices)
        hull.setflags(write=False)
        object.__setattr__(self, "vertices", hull)

    def support(self, theta):
        u = unit_vector(theta)
        return np.max(u @ self.vertices.T, axis=-1)


@dataclass(frozen=True)
class Disk(ContainerSpec):
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError("disk radius must be positive")
        _finite(self.radius, "disk radius")
        object.__setattr__(self, "center", _finite_pair(self.center, "disk center"))

    def support(self, theta):
        u = unit_vector(theta)
        return u @ np.asarray(self.center) + self.radius


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

    def support(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.half_length * np.abs(np.cos(theta - self.axis)) + self.radius


@dataclass(frozen=True)
class MinkowskiSum(ContainerSpec):
    left: ContainerSpec
    right: ContainerSpec

    def support(self, theta):
        return self.left.support(theta) + self.right.support(theta)


@dataclass(frozen=True)
class Scaled(ContainerSpec):
    base: ContainerSpec
    factor: float

    def __post_init__(self):
        if not self.factor > 0:
            raise GeometryError("scale factor must be positive")
        _finite(self.factor, "scale factor")

    def support(self, theta):
        return self.factor * self.base.support(theta)


@dataclass(frozen=True)
class Translated(ContainerSpec):
    base: ContainerSpec
    offset: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "offset", _finite_pair(self.offset, "translation offset"))

    def support(self, theta):
        u = unit_vector(theta)
        return self.base.support(theta) + u @ np.asarray(self.offset)


def support_eval(spec, theta):
    """Exact support value h_spec(theta); theta may be scalar or array."""
    if not isinstance(spec, ContainerSpec):
        raise GeometryError(f"not a container spec: {spec!r}")
    out = spec.support(theta)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


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
        return TWO_PI * np.arange(self.n) / self.n


def support_samples(spec, n):
    """Sample the exact container support on the uniform n-point grid."""
    if n < 3:
        raise GeometryError("need at least 3 sample angles")
    theta = TWO_PI * np.arange(n) / n
    return SupportSamples(support_eval(spec, theta))


@functools.lru_cache(maxsize=64)
def grid_constants(n):
    """(2 cos(2*pi/N), (pi/N) / (2 - 2 cos(2*pi/N))) of the N-point grid: the
    centre weight of the convexity stencil and the nodal area's factor."""
    cos = np.cos(TWO_PI / n)
    return 2.0 * cos, (np.pi / n) / (2.0 - 2.0 * cos)


def convexity_residuals(h):
    """Discrete curvature residuals c_j = h_{j+1} + h_{j-1} - 2 h_j cos(2*pi/N).

    The sampled function is the support function of a convex body exactly when
    every c_j is nonnegative.
    """
    v = h.values if isinstance(h, SupportSamples) else np.asarray(h, float)
    c = np.empty_like(v)
    np.add(v[2:], v[:-2], out=c[1:-1])
    c[0] = v[1] + v[-1]
    c[-1] = v[0] + v[-2]
    c -= grid_constants(v.size)[0] * v
    return c


def convexity_tolerance(h):
    """Scale-invariant acceptance tolerance for the convexity residuals."""
    v = h.values if isinstance(h, SupportSamples) else np.asarray(h, float)
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
    """(powered, J_p, sigma) of finite p on K uniform samples.

    powered is `powered_gap`'s value, J_p = powered^(1/p) and sigma =
    (powered / 2 pi)^(1/p).  Where powered is 0, subnormal or inf, though
    the gap is positive and finite, those roots read 0 or inf; there J_p is
    recomputed as M ((2 pi/K) sum (g/M)^p)^(1/p) with M = max g (0 when
    M = 0), and sigma = J_p / (2 pi)^(1/p).
    """
    with np.errstate(over="ignore", under="ignore"):
        powered = powered_gap(values, container_values, p)[0]
        if sys.float_info.min <= powered < math.inf:
            return powered, powered ** (1.0 / p), float((powered / TWO_PI) ** (1.0 / p))
        gap = np.maximum(container_values - values, 0.0)
        top = float(np.max(gap, initial=0.0))
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
    """Boundary points x = h cos - h' sin, y = h sin + h' cos (central h').

    Requires discretely convex samples (to `tol`, see ensure_convex); the
    resulting chain is convex up to the geometric tolerance.
    """
    h = ensure_convex(h, tol=tol)
    v = h.values
    theta = h.angles
    dtheta = TWO_PI / h.n
    hp = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dtheta)
    cos, sin = np.cos(theta), np.sin(theta)
    return np.column_stack([v * cos - hp * sin, v * sin + hp * cos])


def polygon_area(chain):
    """Shoelace area, positive for CCW chains."""
    pts = np.asarray(chain, dtype=float)
    if pts.ndim != 2 or len(pts) < 3:
        raise GeometryError("polygon area needs at least 3 points")
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(chain):
    pts = np.asarray(chain, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        return pts.mean(axis=0)
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * area)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * area)
    return np.array([cx, cy])


# ---------------------------------------------------------------------------
# exact functionals of container specs
# ---------------------------------------------------------------------------


def _polygonal(spec):
    """Explicit Polygon equal to `spec`, or None if a disk part is involved."""
    if isinstance(spec, Polygon):
        return spec
    if isinstance(spec, Scaled):
        base = _polygonal(spec.base)
        return Polygon(base.vertices * spec.factor) if base is not None else None
    if isinstance(spec, Translated):
        base = _polygonal(spec.base)
        if base is None:
            return None
        return Polygon(base.vertices + np.asarray(spec.offset))
    if isinstance(spec, MinkowskiSum):
        a, b = _polygonal(spec.left), _polygonal(spec.right)
        if a is None or b is None:
            return None
        sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 2)
        return Polygon(sums)
    return None


def container_perimeter(spec):
    """Exact perimeter (additive under Minkowski sums)."""
    if isinstance(spec, Polygon):
        e = np.roll(spec.vertices, -1, axis=0) - spec.vertices
        return float(np.sum(np.hypot(e[:, 0], e[:, 1])))
    if isinstance(spec, Disk):
        return TWO_PI * spec.radius
    if isinstance(spec, Stadium):
        return 4.0 * spec.half_length + TWO_PI * spec.radius
    if isinstance(spec, Scaled):
        return spec.factor * container_perimeter(spec.base)
    if isinstance(spec, Translated):
        return container_perimeter(spec.base)
    if isinstance(spec, MinkowskiSum):
        return container_perimeter(spec.left) + container_perimeter(spec.right)
    raise GeometryError(f"unknown container spec: {spec!r}")


def container_area(spec):
    """Area of the container; closed form except for exotic Minkowski sums."""
    if isinstance(spec, Polygon):
        return polygon_area(spec.vertices)
    if isinstance(spec, Disk):
        return float(np.pi * spec.radius**2)
    if isinstance(spec, Stadium):
        return float(4.0 * spec.half_length * spec.radius + np.pi * spec.radius**2)
    if isinstance(spec, Scaled):
        return spec.factor**2 * container_area(spec.base)
    if isinstance(spec, Translated):
        return container_area(spec.base)
    if isinstance(spec, MinkowskiSum):
        for k, other in ((spec.left, spec.right), (spec.right, spec.left)):
            if isinstance(k, Disk):
                # Steiner: |K + rB| = |K| + r P(K) + pi r^2
                return (
                    container_area(other)
                    + k.radius * container_perimeter(other)
                    + float(np.pi * k.radius**2)
                )
        poly = _polygonal(spec)
        if poly is not None:
            return polygon_area(poly.vertices)
        # fallback: dense boundary reconstruction
        return polygon_area(reconstruct_boundary(support_samples(spec, 4096)))
    raise GeometryError(f"unknown container spec: {spec!r}")


def interior_point(spec):
    """A point strictly inside the body (exact, recursive)."""
    if isinstance(spec, Polygon):
        return polygon_centroid(spec.vertices)
    if isinstance(spec, Disk):
        return np.asarray(spec.center, dtype=float)
    if isinstance(spec, Stadium):
        return np.zeros(2)
    if isinstance(spec, Scaled):
        return spec.factor * interior_point(spec.base)
    if isinstance(spec, Translated):
        return interior_point(spec.base) + np.asarray(spec.offset)
    if isinstance(spec, MinkowskiSum):
        return interior_point(spec.left) + interior_point(spec.right)
    raise GeometryError(f"unknown container spec: {spec!r}")


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


def _polygon_inner_parallel(poly, t):
    verts = poly.vertices
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
    if polygon_area(result.vertices) <= 1e-12 * max(1.0, polygon_area(verts)):
        raise EmptyInteriorError(f"inner offset {t:g} empties the polygon")
    return result


def inner_parallel(spec, t):
    """Inner parallel body at distance t (points at distance >= t from the boundary).

    Disks, stadiums and Minkowski sums with a disk part shed radius directly;
    polygons are offset edge by edge and re-hulled.  A general h - t is *not*
    used: it is a support function only when the curvature of the boundary
    stays >= t everywhere.
    """
    if t < 0:
        raise GeometryError("offset distance must be >= 0")
    if t == 0:
        return spec
    if isinstance(spec, Disk):
        if t >= spec.radius:
            raise EmptyInteriorError(f"offset {t:g} >= disk radius {spec.radius:g}")
        return Disk(spec.center, spec.radius - t)
    if isinstance(spec, Stadium):
        if t >= spec.radius:
            raise EmptyInteriorError(f"offset {t:g} >= stadium inradius {spec.radius:g}")
        return Stadium(spec.half_length, spec.radius - t, spec.axis)
    if isinstance(spec, Polygon):
        return _polygon_inner_parallel(spec, t)
    if isinstance(spec, Scaled):
        return Scaled(inner_parallel(spec.base, t / spec.factor), spec.factor)
    if isinstance(spec, Translated):
        return Translated(inner_parallel(spec.base, t), spec.offset)
    if isinstance(spec, MinkowskiSum):
        for k, other in ((spec.left, spec.right), (spec.right, spec.left)):
            if isinstance(k, Disk):
                if t < k.radius:
                    return MinkowskiSum(Disk(k.center, k.radius - t), other)
                return inner_parallel(Translated(other, k.center), t - k.radius)
        poly = _polygonal(spec)
        if poly is not None:
            return _polygon_inner_parallel(poly, t)
        raise GeometryError("inner parallel unsupported for this Minkowski sum")
    raise GeometryError(f"unknown container spec: {spec!r}")


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
