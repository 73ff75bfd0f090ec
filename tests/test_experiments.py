"""Study drivers: sweeps, comparisons, the value curve, polygonality."""

import math

import numpy as np
import pytest

from convexfit import experiments, multistart
from convexfit.experiments import (
    StudyConfig,
    compare_methods,
    equivalence_probe,
    f_curve,
    gamma_sweep,
    polygonality_report,
    shape_gallery,
)
from convexfit.geometry import Disk, Scaled, named_container, support_samples
from convexfit.solver import NlpProblem, SolverParams, dense_h0_builder

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

    def test_warm_branch_reaches_the_fourier_energy(self):
        # the Fourier shape's nodal area is above the nodal target (alpha
        # times the discrete container area); unless the warm start is
        # scaled to that target it breaks the area row, and the anchor wins
        # at 2.8048711 against energy_fourier 2.6901602
        cfg = small_cfg(SQUARE, "square", ps=(1.0,), alphas=(0.3,), n=256, n_f=6, m=64, q=128, seeds=0)
        report = compare_methods(cfg)
        assert report["energy_nodal_warm"] < report["energy_nodal_cold"]
        assert report["energy_nodal_warm"] <= report["energy_fourier"] * (1.0 + 1e-3)

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

    @pytest.mark.parametrize("name, p", [("disk", 1.0), ("square", 4.0)])
    def test_alpha_one_pins_the_container(self, name, p):
        # f = 0: stage two may only return the container itself
        cfg = small_cfg(named_container(name), name, alphas=(1.0,), ps=(p,), n=24, seeds=1)
        report = equivalence_probe(cfg)
        assert report["f_value"] == 0.0
        assert report["area_gap"] <= SolverParams().feas_tol * max(1.0, report["target_area"])
        assert report["stage1_beaten"] is False

    @pytest.mark.parametrize(
        "n, stage1, blended, beaten",
        [
            # stage 2 ends at area 0.74667 < pi/4: its blend beats stage 1
            (48, 0.6748984, 0.6642954, True),
            # stage 2 recovers the target area: no blend, stage 1 stands
            (64, 0.6554129, 0.6554129, False),
        ],
    )
    def test_blend_to_the_target_area_checks_stage_one(self, n, stage1, blended, beaten):
        cfg = small_cfg(DISK, "disk", alphas=(0.25,), ps=(4.0,), n=n, seeds=2)
        report = equivalence_probe(cfg)
        assert report["f_value"] == pytest.approx(stage1, abs=5e-7)
        assert report["blended_energy"] == pytest.approx(blended, abs=5e-7)
        assert report["stage1_beaten"] is beaten

    def test_infeasible_area_stage_is_named(self, monkeypatch):
        # x <= 0 and -x <= -1 in place of the area program; stage 1 keeps nodal's binding
        rows = NlpProblem(
            dim=1,
            objective=lambda x: (float(x @ x), 2.0 * x),
            ineq_matrix=np.array([[1.0], [-1.0]]),
            ineq_rhs=np.array([0.0, -1.0]),
        )
        rows.h0_builder = dense_h0_builder(rows, lambda x: np.diag(np.full(1, 2.0)))

        def stage2(prob, stage1, seeds, base_seed):
            return multistart.run_multistart(rows, [np.zeros(1)], None, lambda x: float(x[0]))

        monkeypatch.setattr(experiments, "min_area_at_energy", stage2)
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


def fail_on(monkeypatch, name, failing):
    """Make experiments.<name> raise InfeasibleError on the call indices in
    `failing`; returns the log of (kwargs, result or None) per call."""
    original = getattr(experiments, name)
    log = []

    def patched(*args, **kwargs):
        if len(log) in failing:
            log.append((kwargs, None))
            raise multistart.InfeasibleError(f"forced {len(log) - 1}")
        result = original(*args, **kwargs)
        log.append((kwargs, result))
        return result

    monkeypatch.setattr(experiments, name, patched)
    return log


def csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestFailedCells:
    """A cell with no feasible start gives a NaN row; the study goes on."""

    def test_gamma_sweep(self, monkeypatch, tmp_path):
        # calls: 0 is p = inf, then p = 4, 2, 1; the p = 2 cell fails
        log = fail_on(monkeypatch, "solve_nodal", {2})
        cfg = small_cfg(DISK, "disk", alphas=(0.3,), ps=(1.0, 2.0, 4.0), n=32, seeds=0,
                        output_dir=str(tmp_path))
        rows, r_inf = gamma_sweep(cfg)
        failed = rows[1]
        assert failed["p"] == 2.0 and failed["status"] == "infeasible(forced 2)"
        for key in ("sigma_normalized", "hausdorff_to_minimax", "powered_value", "energy"):
            assert math.isnan(failed[key])
        assert failed["sigma_infinity"] == r_inf.energy
        assert rows[0]["status"] == rows[2]["status"] == "converged"
        assert log[3][0]["init"] is log[1][1].samples  # p = 1 warm-starts from p = 4
        written = csv_rows(tmp_path / "gamma_disk.csv")
        assert [r["status"] for r in written] == [r["status"] for r in rows]
        assert written[1]["energy"] == "nan"
        assert not (tmp_path / "gamma_disk_p2.svg").exists()
        assert (tmp_path / "gamma_disk_p1.svg").exists()

    def test_f_curve(self, monkeypatch, tmp_path):
        log = fail_on(monkeypatch, "solve_nodal", {0, 2})
        cfg = small_cfg(DISK, "disk", alphas=(0.2, 0.4, 0.6, 0.8), ps=(2.0,), n=32, seeds=0,
                        output_dir=str(tmp_path))
        rows, violation = f_curve(cfg)
        assert [r["status"] for r in rows] == [
            "infeasible(forced 0)", "converged", "infeasible(forced 2)", "converged"
        ]
        assert math.isnan(rows[0]["f_value"]) and math.isnan(rows[2]["f_value"])
        assert log[1][0]["init"] is None  # nothing solved before it
        assert log[3][0]["init"] is log[1][1].samples  # 0.8 warm-starts from 0.4
        assert violation == max(rows[3]["f_value"] - rows[1]["f_value"], 0.0)
        written = csv_rows(tmp_path / "fcurve_disk.csv")
        assert [r["f_value"] for r in written][::2] == ["nan", "nan"]

    def test_shape_gallery(self, monkeypatch, tmp_path):
        fail_on(monkeypatch, "solve_nodal", {1})
        cfg = small_cfg(DISK, "disk", alphas=(0.4, 0.8), ps=(2.0,), n=32, seeds=0,
                        output_dir=str(tmp_path))
        rows = shape_gallery(cfg)
        assert rows[1]["status"] == "infeasible(forced 1)"
        assert (rows[1]["p"], rows[1]["alpha"]) == (2.0, 0.8)
        for key in ("energy", "sigma_normalized", "area"):
            assert math.isnan(rows[1][key])
        assert rows[0]["status"] == "converged"
        written = csv_rows(tmp_path / "gallery_disk.csv")
        assert written[1]["status"] == "infeasible(forced 1)" and written[1]["area"] == "nan"
        assert (tmp_path / "gallery_disk_p2_a0.4.svg").exists()
        assert not (tmp_path / "gallery_disk_p2_a0.8.svg").exists()

    def compare_cfg(self, tmp_path):
        return small_cfg(SQUARE, "square", alphas=(0.7,), ps=(4.0,), n=32, n_f=6, m=64, q=64,
                         seeds=0, output_dir=str(tmp_path))

    def test_compare_methods_fourier_fails(self, monkeypatch, tmp_path):
        fail_on(monkeypatch, "solve_fourier", {0})
        report = compare_methods(self.compare_cfg(tmp_path))
        assert report["fourier_error"] == "forced 0"
        assert "nodal_warm" not in report and "nodal_warm_error" not in report
        assert report["nodal_cold"].status == "converged"
        written = csv_rows(tmp_path / "compare_square.csv")
        assert written[0]["energy_fourier"] == written[0]["energy_nodal_warm"] == "nan"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "compare_square.csv", "compare_square_nodal_cold.svg",
            "compare_square_nodal_cold_history.csv",
        ]

    def test_compare_methods_nodal_fails(self, monkeypatch, tmp_path):
        fail_on(monkeypatch, "solve_nodal", {0, 1})
        report = compare_methods(self.compare_cfg(tmp_path))
        assert report["nodal_cold_error"] == "forced 0"
        assert report["nodal_warm_error"] == "forced 1"
        assert "energy_fourier" in report and "nodal_cold" not in report
        written = csv_rows(tmp_path / "compare_square.csv")
        assert written[0]["energy_nodal_cold"] == written[0]["energy_nodal_warm"] == "nan"


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
