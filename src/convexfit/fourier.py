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
    container_area,
    container_scale,
    interior_point,
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
    """Container, truncation order, constraint/quadrature grids, p, alpha."""

    container: object
    n_f: int = 32
    m: int = 720
    q: int = 1024
    p: float = 2.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.n_f < 1:
            raise GeometryError("Fourier order must be >= 1")
        if self.m < 3:
            raise GeometryError("constraint grid needs m >= 3")
        if self.q < 4 * self.n_f:
            raise GeometryError("quadrature grid q must be >= 4 * n_f (anti-aliasing)")
        if self.p < 1.0 or math.isinf(self.p):
            raise GeometryError("Fourier method needs a finite exponent p >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise GeometryError("area fraction alpha must lie in [0, 1]")
        self.dim = 2 * self.n_f + 1
        self.container_area = container_area(self.container)
        self.target_area = self.alpha * self.container_area
        self.constraint_angles = TWO_PI * np.arange(1, self.m + 1) / self.m
        self.quadrature_angles = TWO_PI * np.arange(self.q) / self.q
        self.container_on_constraints = support_eval(self.container, self.constraint_angles)
        self.container_on_quadrature = support_eval(self.container, self.quadrature_angles)


def basis_matrix(angles, n_f, curvature=False):
    """Rows [1, cos(j t), sin(j t)] (times (1 - j^2) when `curvature`)."""
    angles = np.asarray(angles, dtype=float)
    j = np.arange(1, n_f + 1)
    jt = np.multiply.outer(angles, j)
    cos, sin = np.cos(jt), np.sin(jt)
    if curvature:
        factor = 1.0 - j.astype(float) ** 2
        cos = cos * factor
        sin = sin * factor
    return np.hstack([np.ones((angles.size, 1)), cos, sin])


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
    """
    inc = basis_matrix(prob.constraint_angles, prob.n_f)
    cvx = basis_matrix(prob.constraint_angles, prob.n_f, curvature=True)
    return (inc, prob.container_on_constraints.copy()), (cvx, np.zeros(prob.m))


@lru_cache(maxsize=16)
def _area_factor(n_f):
    """The area form's weights 1 - j^2, j = 1..n_f (read-only: shared by the cache)."""
    factor = 1.0 - np.arange(1, n_f + 1, dtype=float) ** 2
    factor.setflags(write=False)
    return factor


def fourier_area(shape):
    """Exact area quadratic form and its gradient in coefficient layout."""
    x = shape.to_vector() if isinstance(shape, FourierShape) else np.asarray(shape, float)
    n_f = (x.size - 1) // 2
    factor = _area_factor(n_f)
    a0, aj, bj = x[0], x[1 : n_f + 1], x[n_f + 1 :]
    area = np.pi * a0**2 + 0.5 * np.pi * np.sum(factor * (aj**2 + bj**2))
    grad = np.concatenate([[2.0 * np.pi * a0], np.pi * factor * aj, np.pi * factor * bj])
    return float(area), grad


def fourier_objective(shape, prob):
    """Rectangle-rule powered gap over the quadrature grid, with gradient.

    The gap h_C - h is clamped at zero before powering, as in the nodal
    objective; the reported energy is value**(1/p).
    """
    x = shape.to_vector() if isinstance(shape, FourierShape) else np.asarray(shape, float)
    B = basis_matrix(prob.quadrature_angles, prob.n_f)
    value, grad, _ = powered_gap(B @ x, prob.container_on_quadrature, prob.p)
    return value, B.T @ grad


def fourier_to_nodal(shape, n):
    """Sample the truncated series on the uniform n-point nodal grid."""
    theta = TWO_PI * np.arange(n) / n
    return SupportSamples(shape.evaluate(theta))


def truncate_container(container, n_f, grid=TRUNCATION_GRID):
    """Fourier coefficients of the container support up to order n_f.

    Rectangle-rule coefficients via FFT on a dense grid; with grid >> n_f
    the aliasing error is far below the truncation error itself.
    """
    theta = TWO_PI * np.arange(grid) / grid
    h = support_eval(container, theta)
    c = np.fft.rfft(h) / grid
    a = np.concatenate([[c[0].real], 2.0 * c[1 : n_f + 1].real])
    b = -2.0 * c[1 : n_f + 1].imag
    return FourierShape(a, b)


def _translation_vector(prob, z):
    x = np.zeros(prob.dim)
    x[1] = z[0]
    x[prob.n_f + 1] = z[1]
    return x


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

    (inc_rows, inc_rhs), (cvx_rows, _) = assemble_linear_constraints(prob)
    rows = np.vstack([inc_rows, -cvx_rows])
    rhs = np.concatenate([inc_rhs, np.zeros(prob.m)])

    z = interior_point(prob.container)
    margin = float(np.min(prob.container_on_constraints - inc_rows @ _translation_vector(prob, z)))
    if margin <= 0:
        raise InfeasibleError("interior point has no margin on the constraint grid")
    deep = _translation_vector(prob, z)
    deep[0] = 0.5 * margin

    trunc = truncate_container(prob.container, prob.n_f).to_vector()
    area_trunc = fourier_area(trunc)[0]
    s = math.sqrt(max(prob.target_area, 0.0) / area_trunc)
    anchor = s * trunc + (1.0 - s) * _translation_vector(prob, z)
    anchor = _blend_feasible(anchor, deep, rows, rhs)

    coeff_scale = max(float(np.max(np.abs(trunc))), 1e-12)
    decay = 1.0 / (1.0 + np.arange(1, prob.n_f + 1, dtype=float)) ** 2
    starts = [anchor]
    for i in range(seeds):
        rng = np.random.default_rng(seed_key(base_seed, i))
        noise = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, 1),
                rng.uniform(-1.0, 1.0, prob.n_f) * decay,
                rng.uniform(-1.0, 1.0, prob.n_f) * decay,
            ]
        )
        starts.append(_blend_feasible(anchor + 0.2 * coeff_scale * noise, deep, rows, rhs))

    B = basis_matrix(prob.quadrature_angles, prob.n_f)
    hq = prob.container_on_quadrature
    w = TWO_PI / prob.q
    p = prob.p
    anchor_gap = float(np.max(hq - B @ anchor, initial=0.0))
    ref = max(anchor_gap, 1e-6 * container_scale(prob.container))

    ones_grad = -(w / ref) * np.sum(B, axis=0)
    # the objective's last point and its clamped gap: the seed is built at
    # the point the line search accepted, which the objective just evaluated
    last = [None, None]

    def objective(x):
        if p == 1.0:
            # linear form: no kink on the inclusion boundary (see nodal)
            return float(w * np.sum((hq - B @ x) / ref)), ones_grad.copy()
        value, grad, gap = powered_gap(B @ x, hq, p, ref)
        last[:] = np.array(x, dtype=float), gap
        return value, B.T @ grad

    def obj_hessian(x):
        if p < 2.0:
            return np.zeros(prob.dim)
        if np.array_equal(x, last[0]):
            gap = last[1]
        else:
            gap = np.maximum((hq - B @ x) / ref, 0.0)  # powered_gap's clamped gap
        return _weighted_gram(p * (p - 1.0) * w / ref**2 * gap ** (p - 2.0), prob.n_f)

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
        return fourier_objective(x, prob)[0] ** (1.0 / p)

    winner = run_multistart(nlp, starts, params, energy_fn)
    x = winner.x
    shape = FourierShape.from_vector(x)
    powered = fourier_objective(x, prob)[0]
    area = fourier_area(x)[0]
    row_violation = float(np.max(rows @ x - rhs, initial=0.0))
    inc_gap = prob.container_on_constraints - inc_rows @ x
    cvx_val = cvx_rows @ x
    return SolveResult.from_winner(
        winner,
        note=f"blended row violation {row_violation:.1e}" if row_violation > 0 else "",
        samples=fourier_to_nodal(shape, n_samples),
        powered_value=powered,
        sigma_normalized=float((powered / TWO_PI) ** (1.0 / p)),
        p=p,
        area=area,
        area_residual=(area - prob.target_area) / area_scale,
        max_inclusion_violation=float(np.max(-inc_gap, initial=0.0)),
        min_convexity_residual=float(np.min(cvx_val)),
        wall_time=time.perf_counter() - t0,
        base_seed=base_seed,
        n_starts=len(starts),
        fourier_coefficients=(shape.a, shape.b),
    )
