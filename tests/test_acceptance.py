"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); a failing
assertion is the FAIL signal.  Run:  pytest tests/test_acceptance.py -v -s
"""

import math
import os

import numpy as np
import pytest

from convexfit.experiments import (
    StudyConfig,
    compare_methods,
    equivalence_probe,
    f_curve,
    gamma_sweep,
    polygonality_report,
)
from convexfit.fourier import FourierProblem, fourier_area, fourier_objective, truncate_container
from convexfit.geometry import (
    Disk,
    Stadium,
    SupportSamples,
    named_container,
    polygon_area,
    reconstruct_boundary,
    support_samples,
    unit_vector,
    interior_point,
)
from convexfit.nodal import (
    NodalProblem,
    _random_start,
    nodal_area,
    nodal_objective,
    solve_nodal,
)
from convexfit.oracles import brute_force_nodal, perimeter_identity_check
from convexfit import exports

DISK = Disk((0.0, 0.0), 1.0)
SQUARE = named_container("square")
STADIUM = Stadium(1.0, 1.0, 0.0)
FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "data", "oracle_fixtures.csv")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_1_inner_parallel_exactness():
    """p = inf: the solver recovers the inner parallel set."""
    prob = NodalProblem(DISK, n=256, p=math.inf, alpha=0.25)
    res = solve_nodal(prob, seeds=3, base_seed=0)
    t_err = abs(res.energy - 0.5)
    node_err = float(np.max(np.abs(res.samples.values - 0.5)))
    assert t_err <= 5e-3
    assert node_err <= 5e-3
    assert res.wall_time <= 60.0

    alpha = (4 * 1 * 0.5 + np.pi * 0.25) / (4 + np.pi)
    prob_s = NodalProblem(STADIUM, n=256, p=math.inf, alpha=alpha)
    res_s = solve_nodal(prob_s, seeds=3, base_seed=0)
    expected = support_samples(Stadium(1.0, 0.5, 0.0), 256).values
    t_err_s = abs(res_s.energy - 0.5)
    node_err_s = float(np.max(np.abs(res_s.samples.values - expected)))
    assert t_err_s <= 5e-3
    assert node_err_s <= 5e-3
    assert res_s.wall_time <= 60.0
    report(
        1,
        f"disk |t*-0.5|={t_err:.1e} node={node_err:.1e} {res.wall_time:.1f}s; "
        f"stadium |t*-0.5|={t_err_s:.1e} node={node_err_s:.1e} {res_s.wall_time:.1f}s",
    )


def test_criterion_2_gamma_convergence_trend():
    """Normalized optima rise with p toward the Hausdorff optimum."""
    cfg = StudyConfig(
        DISK, "disk", alphas=(0.25,), ps=(1, 2, 4, 8, 16, 32, 64), n=256, seeds=2, base_seed=0
    )
    rows, r_inf = gamma_sweep(cfg)
    sigma_inf = r_inf.energy
    sigmas = [row["sigma_normalized"] for row in rows]
    for a, b in zip(sigmas, sigmas[1:]):
        assert b >= a - 1e-6
    for s in sigmas:
        assert s <= sigma_inf + 1e-8
    assert abs(sigmas[-1] - sigma_inf) <= 5e-2
    report(
        2,
        "sigma_p = " + ", ".join(f"{s:.4f}" for s in sigmas) + f"; sigma_inf = {sigma_inf:.4f}",
    )


def _fixture_lines(entries):
    lines = ["name,N,p,alpha,G,energy"]
    for e in entries:
        lines.append(f"{e[0]},{e[1]},{e[2]:g},{e[3]:g},{e[4]},{exports.fmt(e[5])}")
    return "\n".join(lines) + "\n"


def test_criterion_3_oracle_equivalence():
    """solve_nodal stays within 2% of the exhaustive small-grid oracle."""
    import time

    cells = [("disk", DISK, 5, 2.0, 0.25, 25), ("square", SQUARE, 4, 1.0, 0.25, 30)]
    entries = []
    details = []
    for name, spec, n, p, alpha, G in cells:
        t0 = time.perf_counter()
        oracle = brute_force_nodal(spec, n, p, alpha, G)
        oracle_time = time.perf_counter() - t0
        assert oracle_time <= 600.0
        # grant the solver the oracle's documented area slack
        total = nodal_area(support_samples(spec, n).values)[0]
        alpha_adj = alpha + oracle.area_slack / total
        res = solve_nodal(NodalProblem(spec, n=n, p=p, alpha=alpha_adj), seeds=8, base_seed=0)
        assert res.energy <= oracle.energy * 1.02
        entries.append((name, n, p, alpha, G, oracle.energy))
        details.append(f"{name}: solver {res.energy:.6f} <= 1.02 * oracle {oracle.energy:.6f}")

    text = _fixture_lines(entries)
    if os.path.exists(FIXTURE_PATH):
        with open(FIXTURE_PATH) as fixture:
            assert fixture.read() == text, "oracle fixtures drifted"
    else:
        exports.atomic_write_text(FIXTURE_PATH, text)
    report(3, "; ".join(details))


def test_criterion_4_p1_perimeter_identity():
    """J_1 equals the perimeter difference exactly in the discretization."""
    prob = NodalProblem(SQUARE, n=360, p=1.0, alpha=0.5)
    zu = unit_vector(prob.angles) @ interior_point(SQUARE)
    worst = 0.0
    for seed in range(100):
        values = _random_start(prob, zu, np.random.default_rng([41, seed]))
        worst = max(worst, perimeter_identity_check(SQUARE, SupportSamples(values)))
    assert worst <= 1e-10
    report(4, f"100 random feasible shapes, max residual {worst:.2e}")


def test_criterion_5_method_ordering():
    """Warm-started nodal beats the Fourier method and the cold start."""
    details = []
    for p, alpha in ((10.0, 0.7), (4.0, 0.4)):
        cfg = StudyConfig(
            SQUARE, "square", alphas=(alpha,), ps=(p,), n=256, n_f=32, m=720, q=1024,
            seeds=2, base_seed=0,
        )
        rep = compare_methods(cfg)
        warm = rep["energy_nodal_warm"]
        assert warm <= rep["energy_fourier"] + 1e-9
        assert warm <= rep["energy_nodal_cold"] + 1e-9
        details.append(
            f"(p={p:g},a={alpha:g}): warm {warm:.4f} <= fourier {rep['energy_fourier']:.4f}"
            f", cold {rep['energy_nodal_cold']:.4f}"
        )
    report(5, "; ".join(details))


def test_criterion_6_polygonality_signal():
    """Free boundary of the square-container optimum is segment-dominated."""
    prob = NodalProblem(SQUARE, n=256, p=2.0, alpha=0.5)
    res = solve_nodal(prob, seeds=4, base_seed=0)
    rep = polygonality_report(res.samples, SQUARE)
    # tracked metric at 0.7; hard floor 0.5
    assert rep.near_zero_fraction >= 0.5
    if rep.near_zero_fraction < 0.7:
        print(f"ACCEPTANCE 6: WARN tracked metric below 0.7: {rep.near_zero_fraction:.3f}")
    report(
        6,
        f"near-zero fraction {rep.near_zero_fraction:.3f} (threshold 0.7, floor 0.5), "
        f"{rep.segment_count} segments",
    )


def test_criterion_7_f_curve_monotonicity():
    """f(alpha) decreases along the area-fraction grid."""
    cfg = StudyConfig(
        DISK, "disk", alphas=tuple(np.round(np.arange(0.1, 0.95, 0.1), 2)), ps=(2.0,),
        n=128, seeds=2, base_seed=0,
    )
    rows, violation = f_curve(cfg)
    assert len(rows) == 9
    assert all(np.isfinite(row["f_value"]) for row in rows)
    assert violation <= 1e-3
    report(7, f"max upward violation {violation:.2e} over 9 cells")


def test_criterion_8_equivalence_probe():
    """Minimizing area at the optimal energy recovers the original area."""
    cfg = StudyConfig(DISK, "disk", alphas=(0.25,), ps=(math.inf,), n=256, seeds=2, base_seed=0)
    rep = equivalence_probe(cfg)
    target = np.pi / 4
    assert abs(rep["recovered_area"] - target) <= 1e-3 * target
    report(
        8,
        f"recovered {rep['recovered_area']:.8f} vs pi/4 = {target:.8f} "
        f"(gap {abs(rep['recovered_area'] - target):.2e})",
    )


def test_criterion_9_numerical_hygiene(tmp_path):
    """Gradient checks, convergence orders, deterministic output bytes."""
    # gradient vs central differences, both discretizations
    fprob = FourierProblem(SQUARE, n_f=6, m=24, q=128, p=4.0, alpha=0.5)
    x = truncate_container(SQUARE, 6).to_vector() * 0.6
    _, grad = fourier_objective(x, fprob)
    step = 1e-6
    scale = max(1.0, float(np.max(np.abs(grad))))
    worst_f = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd = (fourier_objective(x + e, fprob)[0] - fourier_objective(x - e, fprob)[0]) / (2 * step)
        worst_f = max(worst_f, abs(fd - grad[i]) / scale)
    assert worst_f <= 1e-5

    nprob = NodalProblem(SQUARE, n=48, p=4.0, alpha=0.5)
    values = 0.6 * nprob.container_values
    _, ngrad = nodal_objective(values, nprob)
    nscale = max(1.0, float(np.max(np.abs(ngrad))))
    worst_n = 0.0
    for i in range(values.size):
        e = np.zeros(values.size)
        e[i] = step
        fd = (nodal_objective(values + e, nprob)[0] - nodal_objective(values - e, nprob)[0]) / (
            2 * step
        )
        worst_n = max(worst_n, abs(fd - ngrad[i]) / nscale)
    assert worst_n <= 1e-5

    _, agrad = fourier_area(x)
    worst_a = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = 1e-4
        fd = (fourier_area(x + e)[0] - fourier_area(x - e)[0]) / 2e-4
        worst_a = max(worst_a, abs(fd - agrad[i]))
    assert worst_a <= 1e-9

    # area order of convergence
    ratios = []
    for spec, true_area in ((DISK, np.pi), (STADIUM, 4 + np.pi)):
        errs = [
            abs(polygon_area(reconstruct_boundary(support_samples(spec, n))) - true_area)
            for n in (128, 256, 512)
        ]
        for e1, e2 in zip(errs, errs[1:]):
            ratio = e1 / e2
            assert 3.5 <= ratio <= 4.5
            ratios.append(ratio)

    # determinism byte-checks on CSV and SVG
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = StudyConfig(
            DISK, "disk", alphas=(0.4,), ps=(1.0, 2.0), n=48, seeds=1, base_seed=3,
            output_dir=str(out),
        )
        gamma_sweep(cfg)
        digests.append(
            ((out / "gamma_disk.csv").read_bytes(), (out / "gamma_disk_p2.svg").read_bytes())
        )
    assert digests[0] == digests[1]
    report(
        9,
        f"grad errs fourier {worst_f:.1e} nodal {worst_n:.1e} area {worst_a:.1e}; "
        f"order ratios {', '.join(f'{r:.2f}' for r in ratios)}; byte-identical outputs",
    )
