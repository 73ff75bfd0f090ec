"""Command-line interface: exit codes and produced files."""

import csv
import os
import re
from pathlib import Path

import pytest

from convexfit import experiments
from convexfit.cli import COMMANDS, main
from convexfit.config import parse_config, serialize_config
from convexfit.geometry import named_container

ROOT = Path(__file__).resolve().parent.parent
# `convexfit <command> <config> [...]` lines of the README's usage block
README_COMMANDS = re.findall(r"^convexfit ([a-z-]+) (\S+)", (ROOT / "README.md").read_text(), re.M)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write(tmp_path, "ok.yaml", "container: disk\np: 2\nalpha: 0.5\n")
    assert main(["validate", cfg]) == 0
    assert "schema_version" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, key",
    [
        ("alpha: 2\n", "alpha"),
        # p: inf selects the minimax solve; `method: minimax` used to override a finite p
        ("p: 2\nmethod: minimax\n", "method"),
    ],
    ids=["alpha", "method_minimax"],
)
def test_config_error_exit_code(tmp_path, capsys, text, key):
    cfg = write(tmp_path, "bad.yaml", f"container: disk\n{text}")
    assert main(["solve", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")


def test_bad_alphas_entry_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", "container: disk\nalphas: [0.1, abc]\n")
    assert main(["validate", cfg]) == 2
    assert "alphas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "container",
    [
        "{type: disk, center: [0, .nan]}",
        "{type: disk, center: [1]}",
        '{type: disk, center: "12"}',
        '{type: translated, offset: "05", base: disk}',
        "{type: disk, radius: .inf}",
        "{type: scaled, factor: .inf, base: disk}",
        "{type: translated, offset: [0, .inf], base: disk}",
        "{type: translated, offset: [1], base: disk}",
        "{type: stadium, half_length: .inf}",
        "{type: stadium, angle: .nan}",
        "{type: polygon, vertices: [[0, 0], [1, 0], [0, .inf]]}",
    ],
)
def test_non_finite_container_exit_code(tmp_path, capsys, container):
    cfg = write(tmp_path, "bad.yaml", f"container: {container}\n")
    assert main(["validate", cfg]) == 2
    assert "container" in capsys.readouterr().err


def test_infinite_solver_tolerance_exit_code(tmp_path, capsys):
    # a `solver:` entry of any value is an unknown key
    cfg = write(tmp_path, "bad.yaml", "container: disk\nsolver: {feas_tol: .inf}\n")
    assert main(["validate", cfg]) == 2
    assert "unknown keys ['solver']" in capsys.readouterr().err


def test_missing_file_is_config_error(capsys):
    assert main(["solve", "/nonexistent/cfg.yaml"]) == 2


def test_solve_writes_outputs(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "run.yaml",
        f"container: disk\np: 2\nalpha: 0.5\nn: 32\nseeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    for name in ("shape_nodal.csv", "history_nodal.csv", "shape_nodal.svg"):
        assert (outdir / name).exists()


def test_solve_says_why_it_is_not_certified(tmp_path, outdir, capsys):
    cfg = write(
        tmp_path,
        "run.yaml",
        f"container: disk\np: 1\nalpha: 1\nn: 24\nseeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    status, reason = capsys.readouterr().out.splitlines()
    assert "status=max_iter" in status
    assert reason == (
        "nodal: start 0 kept its raw point: the solved point (max_outer) was worse or infeasible"
    )


def test_a_converged_solve_prints_no_reason(tmp_path, outdir, capsys):
    # this cell's winner breaks a constraint row by about 1e-8, inside the
    # feasibility bound the solver certified it with
    cfg = write(
        tmp_path,
        "run.yaml",
        "container: square\np: 1\nalpha: 0.3\nmethod: fourier\nn: 64\nn_f: 6\nm: 64\nq: 128\n"
        f"seeds: 0\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("fourier: energy=") and "status=converged" in line


# square, p = 1, alpha = 0.3 at the default n = 256: the Fourier winner's
# samples miss discrete convexity by 4e-6 between its m = 64 constraint angles
FOURIER_CELL = "container: square\np: 1\nalpha: 0.3\nn_f: 6\nm: 64\nq: 128\nseeds: 0\n"


def test_a_fourier_solve_draws_its_convexified_samples(tmp_path, outdir):
    cfg = write(tmp_path, "both.yaml", f"{FOURIER_CELL}method: both\noutput_dir: {outdir}\n")
    assert main(["solve", cfg]) == 0
    assert sorted(os.listdir(outdir)) == [
        "coefficients_fourier.csv", "history_fourier.csv", "history_nodal.csv", "shape_fourier.csv",
        "shape_fourier.svg", "shape_nodal.csv", "shape_nodal.svg",
    ]


def test_export_svg_draws_a_fourier_coefficient_file_convexified(tmp_path, outdir):
    solve_cfg = write(tmp_path, "fourier.yaml", f"{FOURIER_CELL}method: fourier\nn: 64\noutput_dir: {outdir}\n")
    assert main(["solve", solve_cfg]) == 0
    cfg = write(tmp_path, "cfg.yaml", f"{FOURIER_CELL}output_dir: {outdir}\n")
    assert main(["export-svg", cfg, str(outdir / "coefficients_fourier.csv")]) == 0
    assert (outdir / "shapes.svg").exists()


def test_compare_methods_writes_three_files(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "cmp.yaml",
        "container: square\np: 4\nalpha: 0.7\nn: 48\nn_f: 8\nm: 96\nq: 64\nseeds: 1\n"
        f"output_dir: {outdir}\n",
    )
    assert main(["compare-methods", cfg]) == 0
    names = os.listdir(outdir)
    assert "compare_run.csv" in names
    for tag in ("fourier", "nodal_cold", "nodal_warm"):
        assert f"compare_run_{tag}_history.csv" in names
        assert f"compare_run_{tag}.svg" in names


def test_oracle_error_exit_code(tmp_path, outdir, capsys):
    # the brute force needs the origin inside the container
    cfg = write(
        tmp_path,
        "oracle.yaml",
        "container: {type: translated, offset: [5, 0], base: disk}\n"
        f"p: 2\nalpha: 0.25\nn: 5\noracle_grid: 9\noutput_dir: {outdir}\n",
    )
    rc = main(["oracle", cfg])
    assert rc == 1
    assert "origin" in capsys.readouterr().err


def test_oracle_writes_fixture_row(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "oracle.yaml",
        f"container: disk\np: 2\nalpha: 0.25\nn: 5\noracle_grid: 9\noutput_dir: {outdir}\n",
    )
    assert main(["oracle", cfg]) == 0
    text = (outdir / "oracle_disk_n5.csv").read_text()
    assert text.splitlines()[0] == "name,N,p,alpha,G,energy"
    assert (outdir / "oracle_disk_n5_shape.csv").exists()


def test_a_stock_name_is_stored_as_named_container_reads_it(tmp_path, outdir):
    # " Disk" used to be kept as written, and named the oracle file after it
    text = f'container: " Disk"\np: 2\nalpha: 0.25\nn: 5\noracle_grid: 4\noutput_dir: {outdir}\n'
    cfg = parse_config(text)
    assert cfg.container_doc == "disk"
    assert "container: disk\n" in serialize_config(cfg)
    nested = parse_config('container: {type: scaled, factor: 2, base: " Square "}\n')
    assert nested.container_doc["base"] == "square"
    assert main(["oracle", write(tmp_path, "oracle.yaml", text)]) == 0
    assert sorted(os.listdir(outdir)) == ["oracle_disk_n5.csv", "oracle_disk_n5_shape.csv"]
    assert (outdir / "oracle_disk_n5.csv").read_text().splitlines()[1].startswith("disk,5,")


def test_sweep_p_and_f_curve(tmp_path, outdir, capsys):
    cfg = write(
        tmp_path,
        "sweep.yaml",
        "container: disk\nalpha: 0.4\nps: [1, 2]\nalphas: [0.4, 0.8]\nn: 32\nseeds: 1\n"
        f"output_dir: {outdir}\n",
    )
    assert main(["sweep-p", cfg]) == 0
    assert main(["f-curve", cfg]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "max_upward_violation" in out
    assert (outdir / "gamma_run.csv").exists()
    assert (outdir / "fcurve_run.csv").exists()


def test_sweep_alpha_solves_the_p_by_alpha_grid(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "gallery.yaml",
        f"container: square\nps: [1, 2]\nalphas: [0.3, 0.5]\nn: 32\nseeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["sweep-alpha", cfg]) == 0
    with open(outdir / "gallery_run.csv") as table:
        cells = [(float(row["p"]), float(row["alpha"])) for row in csv.DictReader(table)]
    assert cells == [(1, 0.3), (1, 0.5), (2, 0.3), (2, 0.5)]
    assert len(list(outdir.glob("*.svg"))) == 4


# a config whose fixed p/alpha differ from its grids' first entries
STUDY_SETTINGS = dict(n=24, n_f=6, m=48, q=64, seeds=1, base_seed=2)
STUDY_CELL = "container: disk\np: 2\nalpha: 0.4\nps: [1, 4]\nalphas: [0.3, 0.6]\n" + "".join(
    f"{key}: {value}\n" for key, value in STUDY_SETTINGS.items()
)


# each study command, its table, and the grids (alphas, ps) it solves
STUDY_COMMANDS = [
    ("sweep-p", "gamma_run.csv", experiments.gamma_sweep, (0.4,), (1, 4)),
    ("f-curve", "fcurve_run.csv", experiments.f_curve, (0.3, 0.6), (2,)),
    ("sweep-alpha", "gallery_run.csv", experiments.shape_gallery, (0.3, 0.6), (1, 4)),
    ("compare-methods", "compare_run.csv", experiments.compare_methods, (0.4,), (2,)),
    ("equivalence", "equivalence_run.csv", experiments.equivalence_probe, (0.4,), (2,)),
]


@pytest.mark.parametrize(
    "command, table, study, alphas, ps", STUDY_COMMANDS, ids=[case[0] for case in STUDY_COMMANDS]
)
def test_a_study_command_solves_its_grids(tmp_path, command, table, study, alphas, ps):
    cfg = write(tmp_path, "study.yaml", f"{STUDY_CELL}output_dir: {tmp_path / 'cli'}\n")
    assert main([command, cfg]) == 0
    study(experiments.StudyConfig(
        named_container("disk"), "run", alphas=alphas, ps=ps, output_dir=str(tmp_path / "study"),
        **STUDY_SETTINGS,
    ))
    assert (tmp_path / "cli" / table).read_bytes() == (tmp_path / "study" / table).read_bytes()


def test_export_svg_overlays_shapes(tmp_path, outdir):
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\nn: 32\noutput_dir: {outdir}\n")
    shape_cfg = write(
        tmp_path,
        "inner.yaml",
        f"container: disk\np: 2\nalpha: 0.5\nn: 32\nseeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", shape_cfg]) == 0
    assert main(["export-svg", cfg, str(outdir / "shape_nodal.csv")]) == 0
    assert (outdir / "shapes.svg").exists()


def test_equivalence_line_reports_the_blend(tmp_path, capsys, outdir):
    cfg = write(
        tmp_path,
        "eq.yaml",
        f"container: disk\np: 4\nalpha: 0.25\nn: 48\nseeds: 2\noutput_dir: {outdir}\n",
    )
    assert main(["equivalence", cfg]) == 0
    assert re.search(r" blended_energy=0\.66429\d* stage1_beaten=True$", capsys.readouterr().out, re.M)
    with open(outdir / "equivalence_run.csv") as table:
        assert table.readline() == "p,alpha,f_value,target_area,recovered_area,area_gap\n"


def test_export_svg_overlays_a_fourier_coefficient_file(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "fourier.yaml",
        "container: square\np: 2\nalpha: 0.5\nmethod: fourier\nn: 32\nn_f: 6\nm: 64\nq: 64\n"
        f"seeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    assert main(["export-svg", cfg, str(outdir / "coefficients_fourier.csv")]) == 0
    assert (outdir / "shapes.svg").exists()


def test_export_svg_rejects_another_header(tmp_path, capsys, outdir):
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\noutput_dir: {outdir}\n")
    table = write(tmp_path, "table.csv", "p,alpha\n2,0.5\n")
    assert main(["export-svg", cfg, table]) == 1
    assert f"error: {table}: expected header 'theta,h' or 'k,a,b', got 'p,alpha'" in capsys.readouterr().err
    assert not (outdir / "shapes.svg").exists()


@pytest.mark.parametrize("row", ["0.0", "0.0,abc"])
def test_malformed_shape_csv_is_an_error(tmp_path, capsys, outdir, row):
    # a short row used to end in an uncaught IndexError, a non-number in a ValueError
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\noutput_dir: {outdir}\n")
    shape = write(tmp_path, "bad.csv", f"theta,h\n{row}\n")
    assert main(["export-svg", cfg, shape]) == 1
    assert f"error: {shape}, line 2" in capsys.readouterr().err


def test_method_both_emits_fourier_and_nodal(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "both.yaml",
        "container: disk\np: 2\nalpha: 0.5\nmethod: both\nn: 32\nn_f: 6\nm: 64\nq: 64\n"
        f"seeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    for name in ("shape_fourier.csv", "coefficients_fourier.csv", "shape_nodal.csv"):
        assert (outdir / name).exists()


def test_nodal_method_with_infinite_p_runs_minimax(tmp_path, outdir):
    cfg = write(
        tmp_path,
        "inf.yaml",
        f"container: disk\np: inf\nalpha: 0.25\nn: 32\nseeds: 1\noutput_dir: {outdir}\n",
    )
    assert main(["solve", cfg]) == 0
    assert (outdir / "shape_minimax.csv").exists()
    assert not (outdir / "shape_nodal.csv").exists()


def test_seed_and_outdir_flags(tmp_path):
    other = tmp_path / "elsewhere"
    cfg = write(tmp_path, "cfg.yaml", "container: disk\np: 2\nalpha: 0.5\nn: 32\nseeds: 1\n")
    assert main(["--output-dir", str(other), "--seed", "7", "solve", str(cfg)]) == 0
    assert (other / "shape_nodal.csv").exists()


@pytest.mark.parametrize(
    "flags, command, key",
    [
        (["--seed", "-3"], "solve", "base_seed"),
        (["--output-dir", ""], "validate", "output_dir"),
    ],
)
def test_override_flags_are_validated(tmp_path, outdir, capsys, flags, command, key):
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\nn: 5\nseeds: 1\noutput_dir: {outdir}\n")
    assert main(flags + [command, cfg]) == 2
    assert f"{key}: must be" in capsys.readouterr().err


def test_overridden_keys_are_not_defaults(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.yaml", "container: disk\n")
    assert main(["--seed", "7", "--output-dir", "elsewhere", "validate", cfg]) == 0
    out = capsys.readouterr().out
    echoed = parse_config(out)
    assert (echoed.base_seed, echoed.output_dir) == (7, "elsewhere")
    defaulted = out.splitlines()[-1]
    assert defaulted.startswith("# defaults applied:")
    for key in ("base_seed", "output_dir"):
        assert key not in defaulted


def test_a_threads_key_is_unknown(tmp_path, outdir, capsys):
    """The oracle runs one process per CPU of the affinity mask; no key sets it."""
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\nn: 5\nthreads: 2\noutput_dir: {outdir}\n")
    assert main(["oracle", cfg]) == 2
    assert capsys.readouterr().err == "configuration error: unknown keys ['threads']\n"
    assert not outdir.exists()


def test_there_is_no_threads_flag(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.yaml", "container: disk\n")
    with pytest.raises(SystemExit) as exit_:
        main(["--threads=2", "validate", cfg])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads=2" in capsys.readouterr().err


def test_output_dir_comes_from_the_config_only(tmp_path, monkeypatch):
    # no environment variable stands in for a defaulted output_dir
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("CONVEXFIT_OUTDIR", str(env_dir))
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "cfg.yaml", "container: disk\np: 2\nalpha: 0.5\nn: 32\nseeds: 1\n")
    assert main(["solve", cfg]) == 0
    assert (tmp_path / "out" / "shape_nodal.csv").exists()
    assert not env_dir.exists()


def test_container_file_path_exit_code(tmp_path, capsys):
    spec = write(tmp_path, "shape.yaml", "{type: disk, radius: 2.0}\n")
    cfg = write(tmp_path, "cfg.yaml", f"container: {spec}\n")
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().err.startswith("configuration error: container: ")


NESTED_SPEC = """\
container:
  type: minkowski_sum
  parts:
    - {type: polygon, vertices: [[0, 0], [2, 0], [1, 1.5]]}
    - {type: scaled, factor: 0.5, base: {type: translated, offset: [0.25, -1], base: {type: disk, radius: 2, center: [1, 0]}}}
p: 3
"""

NESTED_CANONICAL = """\
alpha: 0.5
base_seed: 0
container:
  parts:
  - type: polygon
    vertices:
    - - 0.0
      - 0.0
    - - 2.0
      - 0.0
    - - 1.0
      - 1.5
  - base:
      base:
        center:
        - 1.0
        - 0.0
        radius: 2.0
        type: disk
      offset:
      - 0.25
      - -1.0
      type: translated
    factor: 0.5
    type: scaled
  type: minkowski_sum
m: 720
method: nodal
n: 256
n_f: 32
oracle_grid: 25
output_dir: out
p: 3.0
q: 1024
schema_version: 1
seeds: 4
# defaults applied: alpha, alphas, base_seed, m, method, n, n_f, oracle_grid, output_dir, ps, q, seeds
"""


def test_validate_prints_a_nested_spec_canonically(tmp_path, capsys):
    # every number a float, every mapping's keys sorted, at every depth
    assert main(["validate", write(tmp_path, "nested.yaml", NESTED_SPEC)]) == 0
    assert capsys.readouterr().out == NESTED_CANONICAL


@pytest.mark.parametrize(
    "text, command",
    [
        ("n_f: 32\nq: 64\n", "validate"),  # the Fourier quadrature needs q >= 4 n_f
        ("p: inf\nmethod: fourier\n", "validate"),
        ("p: inf\nmethod: both\n", "solve"),
        ("p: inf\nn: 5\n", "compare-methods"),
    ],
)
def test_settings_the_fourier_method_rejects_are_config_errors(tmp_path, outdir, capsys, text, command):
    cfg = write(tmp_path, "cfg.yaml", f"container: disk\n{text}output_dir: {outdir}\n")
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {'q' if 'q:' in text else 'p'}: ")
    assert not outdir.exists()  # nothing was solved


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")), ids=lambda path: path.name)
def test_shipped_configs_validate(path, capsys):
    assert main(["validate", str(path)]) == 0
    # the canonical document, then a comment naming the defaulted keys
    canonical, _, _ = capsys.readouterr().out.partition("# defaults applied")
    assert serialize_config(parse_config(canonical)) == canonical


def test_readme_commands_name_commands_and_files():
    assert len(README_COMMANDS) >= len(COMMANDS)
    for command, path in README_COMMANDS:
        assert command in COMMANDS
        assert (ROOT / path).is_file(), path


def test_readme_oracle_line_reproduces_the_fixture(outdir):
    ((_, path),) = [entry for entry in README_COMMANDS if entry[0] == "oracle"]
    assert main(["--output-dir", str(outdir), "oracle", str(ROOT / path)]) == 0
    with open(outdir / "oracle_disk_n5.csv") as produced:
        (row,) = csv.DictReader(produced)
    with open(ROOT / "tests" / "data" / "oracle_fixtures.csv") as fixture:
        (expected,) = [entry for entry in csv.DictReader(fixture) if entry["name"] == "disk"]
    assert float(row["energy"]) == float(expected["energy"]) == 1.1695733415440672
