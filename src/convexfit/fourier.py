"""Fourier discretization: optimize truncated support-function coefficients.

The unknown is the coefficient vector (a_0, ..., a_nf, b_1, ..., b_nf) of
h(theta) = a_0 + sum_k a_k cos(k theta) + b_k sin(k theta).  Inclusion and
convexity are enforced on a finite constraint grid of M angles (2M linear
rows), the area is the exact quadratic form
pi a_0^2 + (pi/2) sum (1-j^2)(a_j^2 + b_j^2), and the objective is the
rectangle-rule powered gap on a finer quadrature grid of Q angles.  The
Newton seed's objective Hessian, a weighted Gram of the basis on that grid,
is assembled from one FFT of its quadrature weights in O(Q log Q + n_f^2):
on a uniform grid the Gram is Toeplitz-plus-Hankel in the weights' DFT.

Degree-1 coefficients are pure translations: they carry zero area and zero
curvature, which several initialization tricks below exploit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    GeometryError,
    SupportSamples,
    TWO_PI,
    _integer,
    container_area,
    container_scale,
    gap_model,
    grid_angles,
    interior_point,
    powered_energy,
    powered_gap,
    support_eval,
)
from .multistart import InfeasibleError, run_multistart, seed_key
from .results import SolveResult
from .solver import NlpProblem, dense_h0_builder

TRUNCATION_GRID = 4096


@dataclass(frozen=True)
class FourierShape:
    """Truncated support-function coefficients a_0..a_nf and b_1..b_nf."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size + 1:
            raise GeometryError("need len(a) == order + 1 and len(b) == order")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise GeometryError("coefficients must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self):
        return self.b.size

    def evaluate(self, theta):
        theta = np.asarray(theta, dtype=float)
        k = np.arange(1, self.order + 1)
        kt = np.multiply.outer(theta, k)
        out = self.a[0] + np.cos(kt) @ self.a[1:] + np.sin(kt) @ self.b
        return float(out) if np.ndim(theta) == 0 else out

    def to_vector(self):
        return np.concatenate([self.a, self.b])

    @classmethod
    def from_vector(cls, x):
        x = np.asarray(x, dtype=float)
        order = (x.size - 1) // 2
        return cls(x[: order + 1], x[order + 1 :])


@dataclass
class FourierProblem:
    """Container, truncation order, constraint/quadrature grids, p, alpha.

    Each basis is evaluated once, here, and shared read-only: `constraint_rows`
    (inclusion over negated convexity rows, the NLP's A x <= b) and
    `quadrature_basis`.
    """

    container: object
    n_f: int = 32
    m: int = 720
    q: int = 1024
    p: float = 2.0
    alpha: float = 0.5

    def __post_init__(self):
        for name in ("n_f", "m", "q"):
            _integer(getattr(self, name), name)
        if self.n_f < 1:
            raise GeometryError("Fourier order must be >= 1")
        if self.m < 3:
            raise GeometryError("constraint grid needs m >= 3")
        if self.q < 4 * self.n_f:
            raise GeometryError("quadrature grid q must be >= 4 * n_f (anti-aliasing)")
        if not 1.0 <= self.p < math.inf:
            raise GeometryError("Fourier method needs a finite exponent p >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise GeometryError("area fraction alpha must lie in [0, 1]")
        self.dim = 2 * self.n_f + 1
        self.container_area = container_area(self.container)
        self.target_area = self.alpha * self.container_area
        self.constraint_angles = TWO_PI * np.arange(1, self.m + 1) / self.m
        self.quadrature_angles = grid_angles(self.q)
        self.container_on_constraints = support_eval(self.container, self.constraint_angles)
        self.container_on_quadrature = support_eval(self.container, self.quadrature_angles)
        rows = np.empty((2 * self.m, self.dim))
        rows[: self.m] = basis_matrix(self.constraint_angles, self.n_f)
        factor = _area_factor(self.n_f)  # curvature rows scale the columns by (1, 1-j^2, 1-j^2)
        np.multiply(rows[: self.m], -np.concatenate([[1.0], factor, factor]), out=rows[self.m :])
        self.constraint_rows, self.quadrature_basis = rows, basis_matrix(self.quadrature_angles, self.n_f)
        for shared in (self.constraint_rows, self.quadrature_basis):
            shared.setflags(write=False)


def basis_matrix(angles, n_f):
    """Rows [1, cos(j t), sin(j t)], j = 1..n_f, one per angle."""
    angles = np.asarray(angles, dtype=float)
    jt = np.multiply.outer(angles, np.arange(1, n_f + 1))
    return np.hstack([np.ones((angles.size, 1)), np.cos(jt), np.sin(jt)])


@lru_cache(maxsize=16)
def _gram_gather(n_f, size):
    """Indices that turn the weights' DFT into their Gram of the basis.

    With C = Re F and S = -Im F for the weights' rfft F, the product-to-sum
    identities give, in basis order [1, cos j, sin j]:
      cos j cos k = (C[j-k] + C[j+k]) / 2,   sin j sin k = (C[j-k] - C[j+k]) / 2,
      cos j sin k = (S[j+k] - S[j-k]) / 2.
    Frequencies fold mod `size`; past size/2 they read the conjugate bin
    (C even, S odd).  Returns two symmetric index matrices into the
    spectrum [C, -C, S, -S] / 2, whose gathered sum is the Gram.
    """
    half = size // 2 + 1

    def fold(freq, odd, negate):
        r = np.mod(freq, size)
        mirror = r > size // 2
        negative = negate ^ (mirror & odd)
        return np.where(mirror, size - r, r) + half * (2 * odd + negative)

    a = np.arange(2 * n_f + 1)
    j = np.where(a <= n_f, a, a - n_f)  # frequency of each basis column
    row_sin, col_sin = np.meshgrid(a > n_f, a > n_f, indexing="ij")
    row_j, col_j = np.meshgrid(j, j, indexing="ij")
    cross = row_sin != col_sin
    cos_j = np.where(row_sin, col_j, row_j)  # the cos and sin frequencies of
    sin_k = np.where(row_sin, row_j, col_j)  # a cross entry, either side
    first = np.where(cross, fold(cos_j + sin_k, True, False), fold(row_j - col_j, False, False))
    second = np.where(
        cross, fold(cos_j - sin_k, True, True), fold(row_j + col_j, False, row_sin & col_sin)
    )
    first.setflags(write=False)  # shared by every caller through the cache
    second.setflags(write=False)
    return first, second


def _weighted_gram(weights, n_f):
    """B^T diag(weights) B for the basis rows on the uniform grid of len(weights) angles.

    One rfft of the weights and two gathers (see `_gram_gather`); exact on
    aliased grids, and symmetric bit for bit.
    """
    f = 0.5 * np.fft.rfft(weights)
    spectrum = np.concatenate([f.real, -f.real, -f.imag, f.imag])
    first, second = _gram_gather(n_f, len(weights))
    return spectrum[first] + spectrum[second]


def assemble_linear_constraints(prob):
    """(inclusion rows, rhs), (convexity rows, rhs) on the M-point grid.

    Inclusion row k reads  h(theta_k) <= h_C(theta_k); convexity row k reads
    a_0 + sum (1-j^2)(a_j cos + b_j sin) >= 0 (degree-1 terms drop out).
    The inclusion block is a read-only view of `prob.constraint_rows`.
    """
    rows = prob.constraint_rows
    return (rows[: prob.m], prob.container_on_constraints.copy()), (-rows[prob.m :], np.zeros(prob.m))


@lru_cache(maxsize=16)
def _area_factor(n_f):
    """The area form's weights 1 - j^2, j = 1..n_f (read-only: shared by the cache)."""
    factor = 1.0 - np.arange(1, n_f + 1, dtype=float) ** 2
    factor.setflags(write=False)
    return factor


def fourier_area(shape):
    """Exact area quadratic form and its gradient in coefficient layout."""
    x = shape.to_vector() if isinstance(shape, FourierShape) else np.asarray(shape, float)
    if x.size % 2 == 0:
        raise GeometryError(f"coefficient vector of length {x.size}: need 2 * order + 1 entries")
    n_f = (x.size - 1) // 2
    factor = _area_factor(n_f)
    a0, aj, bj = x[0], x[1 : n_f + 1], x[n_f + 1 :]
    area = np.pi * a0**2 + 0.5 * np.pi * np.sum(factor * (aj**2 + bj**2))
    grad = np.concatenate([[2.0 * np.pi * a0], np.pi * factor * aj, np.pi * factor * bj])
    return float(area), grad


def fourier_objective(shape, prob):
    """Rectangle-rule powered gap over the quadrature grid, with gradient.

    The gap h_C - h is clamped at zero before powering, as in the nodal
    objective; the reported energy is `geometry.powered_energy`'s J_p.
    """
    x = shape.to_vector() if isinstance(shape, FourierShape) else np.asarray(shape, float)
    if x.size != prob.dim:
        order = (x.size - 1) // 2
        raise GeometryError(f"coefficients of order {order} do not fit the problem's order {prob.n_f}")
    B = prob.quadrature_basis
    value, grad, _ = powered_gap(B @ x, prob.container_on_quadrature, prob.p)
    return value, B.T @ grad


def fourier_to_nodal(shape, n):
    """Sample the truncated series on the uniform n-point nodal grid."""
    return SupportSamples(shape.evaluate(grid_angles(n)))


def truncate_container(container, n_f):
    """Fourier coefficients of the container support up to order n_f.

    Rectangle-rule coefficients via FFT on a dense grid; with grid >> n_f
    the aliasing error is far below the truncation error itself.
    """
    h = support_eval(container, grid_angles(TRUNCATION_GRID))
    c = np.fft.rfft(h) / TRUNCATION_GRID
    a = np.concatenate([[c[0].real], 2.0 * c[1 : n_f + 1].real])
    b = -2.0 * c[1 : n_f + 1].imag
    return FourierShape(a, b)


def _blend_feasible(x, deep, rows, rhs):
    """Largest lam with lam x + (1-lam) deep satisfying all linear rows."""
    rx = rows @ x - rhs
    rd = rows @ deep - rhs
    lam = 1.0
    bad = rx > 0.0
    if np.any(bad):
        denom = rx[bad] - rd[bad]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(denom > 0, -rd[bad] / denom, 0.0)
        lam = min(lam, float(np.min(ratios)))
    lam = max(lam, 0.0)
    return lam * x + (1.0 - lam) * deep


def solve_fourier(prob, seeds=4, base_seed=0, params=None, n_samples=256):
    """Best-of-multistart solve over Fourier coefficients.

    Starts are the container truncation scaled about an interior point to
    the target area, plus random coefficient perturbations; every start is
    blended toward a strictly feasible tiny disk until all 2M linear rows
    hold.
    """
    t0 = time.perf_counter()

    rows, m = prob.constraint_rows, prob.m
    rhs = np.concatenate([prob.container_on_constraints, np.zeros(m)])

    shift = np.zeros(prob.dim)  # the interior point z as a translation (degree-1 terms)
    shift[[1, prob.n_f + 1]] = interior_point(prob.container)
    margin = float(np.min(prob.container_on_constraints - rows[:m] @ shift))
    if margin <= 0:
        raise InfeasibleError("interior point has no margin on the constraint grid")
    deep = shift.copy()
    deep[0] = 0.5 * margin

    trunc = truncate_container(prob.container, prob.n_f).to_vector()
    area_trunc = fourier_area(trunc)[0]
    s = math.sqrt(max(prob.target_area, 0.0) / area_trunc)
    anchor = s * trunc + (1.0 - s) * shift
    anchor = _blend_feasible(anchor, deep, rows, rhs)

    coeff_scale = max(float(np.max(np.abs(trunc))), 1e-12)
    decay = 1.0 / (1.0 + np.arange(1, prob.n_f + 1, dtype=float)) ** 2
    weights = np.concatenate([[1.0], decay, decay])
    starts = [anchor]
    for i in range(seeds):
        noise = np.random.default_rng(seed_key(base_seed, i)).uniform(-1.0, 1.0, prob.dim) * weights
        starts.append(_blend_feasible(anchor + 0.2 * coeff_scale * noise, deep, rows, rhs))

    B = prob.quadrature_basis
    p = prob.p
    model_objective, curvature = gap_model(
        prob.container_on_quadrature, p, B @ anchor, container_scale(prob.container)
    )
    # the objective's last point and its gap: the seed is built at the
    # point the line search accepted, which the objective just evaluated
    last = [None, None]

    def objective(x):
        value, grad, gap = model_objective(B @ x)
        last[:] = np.array(x, dtype=float), gap
        return value, B.T @ grad

    def obj_hessian(x):
        if np.array_equal(x, last[0]):
            return _weighted_gram(curvature(None, last[1]), prob.n_f)
        return _weighted_gram(curvature(B @ x), prob.n_f)

    area_scale = max(prob.container_area, 1e-300)

    def equality(x):
        area, grad = fourier_area(x)
        return (area - prob.target_area) / area_scale, grad / area_scale

    nlp = NlpProblem(
        dim=prob.dim,
        objective=objective,
        ineq_matrix=rows,
        ineq_rhs=rhs,
        equality=equality,
    )
    nlp.h0_builder = dense_h0_builder(nlp, obj_hessian)

    def energy_fn(x):
        return powered_energy(B @ x, prob.container_on_quadrature, p)[1]

    winner = run_multistart(nlp, starts, params, energy_fn)
    x = winner.x
    shape = FourierShape.from_vector(x)
    powered, _, sigma = powered_energy(B @ x, prob.container_on_quadrature, p)
    area = fourier_area(x)[0]
    residual = rows @ x - rhs
    row_violation = float(np.max(residual, initial=0.0))
    return SolveResult.from_winner(
        winner,
        note=f"blended row violation {row_violation:.1e}" if row_violation > 0 else "",
        samples=fourier_to_nodal(shape, n_samples),
        powered_value=powered,
        sigma_normalized=sigma,
        p=p,
        area=area,
        area_residual=(area - prob.target_area) / area_scale,
        max_inclusion_violation=float(np.max(residual[:m], initial=0.0)),
        min_convexity_residual=-float(np.max(residual[m:])),
        wall_time=time.perf_counter() - t0,
        base_seed=base_seed,
        n_starts=len(starts),
        fourier_coefficients=(shape.a, shape.b),
    )
