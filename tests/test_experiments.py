"""Study drivers: sweeps, comparisons, the value curve, polygonality."""

import math

import numpy as np
import pytest

from convexfit import experiments, multistart
from convexfit.experiments import (
    PolygonalityThresholds,
    StudyConfig,
    compare_methods,
    equivalence_probe,
    f_curve,
    gamma_sweep,
    polygonality_report,
    shape_gallery,
)
from convexfit.geometry import Disk, Scaled, named_container, support_samples
from convexfit.solver import NlpProblem

DISK = Disk((0.0, 0.0), 1.0)
SQUARE = named_container("square")


def small_cfg(container, name, **kw):
    defaults = dict(alphas=(0.5,), ps=(2.0,), n=48, n_f=8, m=96, q=64, seeds=2, base_seed=0)
    defaults.update(kw)
    return StudyConfig(container, name, **defaults)


class TestGammaSweep:
    def test_disk_trend(self):
        cfg = small_cfg(DISK, "disk", alphas=(0.25,), ps=(1.0, 2.0, 4.0, 8.0), n=64)
        rows, r_inf = gamma_sweep(cfg)
        sigmas = [row["sigma_normalized"] for row in rows]
        assert sigmas == sorted(sigmas)
        assert all(s <= r_inf.energy + 1e-8 for s in sigmas)
        assert [row["p"] for row in rows] == [1.0, 2.0, 4.0, 8.0]

    def test_alpha_one_all_zero(self):
        cfg = small_cfg(DISK, "disk", alphas=(1.0,), ps=(1.0, 2.0), n=32, seeds=1)
        rows, r_inf = gamma_sweep(cfg)
        assert r_inf.energy <= 1e-10
        assert all(row["sigma_normalized"] <= 1e-10 for row in rows)


class TestCompareMethods:
    def test_orderings_guaranteed(self):
        cfg = small_cfg(SQUARE, "square", alphas=(0.7,), ps=(4.0,), n=48, n_f=8, m=96, q=64)
        report = compare_methods(cfg)
        warm = report["energy_nodal_warm"]
        assert warm <= report["energy_fourier"] + 1e-9
        assert warm <= report["energy_nodal_cold"] + 1e-9

    def test_alpha_one_both_zero(self):
        cfg = small_cfg(DISK, "disk", alphas=(1.0,), ps=(2.0,), n=32, n_f=6, m=64, q=64, seeds=1)
        report = compare_methods(cfg)
        assert report["energy_fourier"] <= 1e-6
        assert report["energy_nodal_warm"] <= 1e-8


class TestFCurve:
    def test_disk_hausdorff_branch_matches_inner_parallel(self):
        cfg = small_cfg(
            DISK, "disk", alphas=(0.1, 0.3, 0.5, 0.7, 0.9), ps=(math.inf,), n=64, seeds=1
        )
        rows, violation = f_curve(cfg)
        for row in rows:
            assert row["f_value"] == pytest.approx(1.0 - np.sqrt(row["alpha"]), abs=1e-6)
        assert violation <= 1e-10

    def test_endpoint_alpha_one(self):
        cfg = small_cfg(DISK, "disk", alphas=(0.5, 1.0), ps=(2.0,), n=32, seeds=1)
        rows, _ = f_curve(cfg)
        assert rows[-1]["f_value"] <= 1e-8


class TestEquivalenceProbe:
    def test_disk_hausdorff_branch(self):
        cfg = small_cfg(DISK, "disk", alphas=(0.25,), ps=(math.inf,), n=64)
        report = equivalence_probe(cfg)
        assert report["recovered_area"] == pytest.approx(report["target_area"], rel=1e-3)

    def test_square_p2(self):
        cfg = small_cfg(SQUARE, "square", alphas=(0.5,), ps=(2.0,), n=48)
        report = equivalence_probe(cfg)
        assert report["relative_gap"] <= 0.01

    def test_alpha_one(self):
        cfg = small_cfg(DISK, "disk", alphas=(1.0,), ps=(2.0,), n=32, seeds=1)
        report = equivalence_probe(cfg)
        assert report["recovered_area"] == pytest.approx(np.pi, rel=1e-6)

    def test_infeasible_area_stage_is_named(self, monkeypatch):
        # x <= 0 and -x <= -1 in place of the area program; stage 1 keeps nodal's binding
        rows = NlpProblem(
            dim=1,
            objective=lambda x: (float(x @ x), 2.0 * x),
            ineq_matrix=np.array([[1.0], [-1.0]]),
            ineq_rhs=np.array([0.0, -1.0]),
        )

        def stage2(nlp, starts, params, energy_fn):
            return multistart.run_multistart(rows, [np.zeros(1)], params, energy_fn)

        monkeypatch.setattr(experiments, "run_multistart", stage2)
        cfg = small_cfg(DISK, "disk", alphas=(0.5,), ps=(4.0,), n=16, seeds=0)
        with pytest.raises(multistart.InfeasibleError) as err:
            equivalence_probe(cfg)
        assert str(err.value).startswith("area-minimization stage: no feasible point found by any start")


class TestPolygonality:
    def test_container_itself_has_no_free_nodes(self):
        shape = support_samples(SQUARE, 128)
        report = polygonality_report(shape, SQUARE)
        assert report.n_free == 0
        assert report.near_zero_fraction == 1.0

    def test_pentagon_in_disk(self):
        shape = support_samples(Scaled(named_container("pentagon"), 0.8), 256)
        report = polygonality_report(shape, DISK)
        assert report.n_free == 256
        # every free node off a corner-straddling stencil is flat
        assert report.near_zero_fraction >= 0.9
        assert report.segment_count == 5

    def test_disk_in_disk_is_not_polygonal(self):
        shape = support_samples(Disk((0, 0), 0.5), 256)
        report = polygonality_report(shape, DISK)
        assert report.near_zero_fraction <= 0.05

    def test_thresholds_are_tunable(self):
        # a generous curvature threshold classifies even the round shape flat
        shape = support_samples(Disk((0, 0), 0.5), 128)
        loose = polygonality_report(shape, DISK, PolygonalityThresholds(curvature_rel=3.0))
        assert loose.near_zero_fraction == 1.0
        nothing_free = polygonality_report(shape, DISK, PolygonalityThresholds(free_gap_rel=10.0))
        assert nothing_free.n_free == 0


@pytest.mark.parametrize("name", ["disk", "square", "stadium", "triangle", "pentagon"])
def test_warm_start_dominance_every_container(name):
    # the nodal solve warm-started from the Fourier solution never reports
    # more energy than the Fourier solution evaluated on the nodal grid
    from convexfit.fourier import FourierProblem, solve_fourier
    from convexfit.nodal import NodalProblem, energy_of, solve_nodal

    container = named_container(name)
    fp = FourierProblem(container, n_f=8, m=96, q=128, p=3.0, alpha=0.45)
    m1 = solve_fourier(fp, seeds=1, base_seed=0, n_samples=48)
    nodal_prob = NodalProblem(container, n=48, p=3.0, alpha=0.45)
    warm = solve_nodal(nodal_prob, init=m1.samples, seeds=1, base_seed=0)
    assert warm.energy <= energy_of(m1.samples, nodal_prob) + 1e-9


@pytest.mark.parametrize("name", ["triangle", "pentagon"])
def test_sup_bound_other_containers(name):
    # normalized p-optima never exceed the minimax optimum (sup bound)
    cfg = small_cfg(named_container(name), name, alphas=(0.4,), ps=(2.0, 8.0), n=48, seeds=1)
    rows, r_inf = gamma_sweep(cfg)
    for row in rows:
        assert row["sigma_normalized"] <= r_inf.energy + 1e-8


class TestGallery:
    def test_grid_rows(self):
        cfg = small_cfg(DISK, "disk", alphas=(0.4, 0.8), ps=(2.0, math.inf), n=32, seeds=1)
        rows = shape_gallery(cfg)
        assert len(rows) == 4
        assert all(np.isfinite(row["energy"]) for row in rows)


class TestDeterminism:
    def test_gamma_sweep_csv_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = small_cfg(
                DISK, "disk", alphas=(0.4,), ps=(1.0, 2.0), n=32, seeds=1, output_dir=str(out)
            )
            gamma_sweep(cfg)
        data1 = (out1 / "gamma_disk.csv").read_bytes()
        data2 = (out2 / "gamma_disk.csv").read_bytes()
        assert data1 == data2
        svg1 = (out1 / "gamma_disk_p2.svg").read_bytes()
        svg2 = (out2 / "gamma_disk_p2.svg").read_bytes()
        assert svg1 == svg2
