"""Configuration schema: parsing, validation, defaults, round-trips."""

import math

import pytest

from convexfit.config import ConfigError, parse_config, serialize_config, solver_params_from
from convexfit.geometry import Disk, MinkowskiSum, Polygon, Stadium

MINIMAL = """
container: disk
p: 2
alpha: 0.5
"""


def test_minimal_document_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert isinstance(cfg.container, Disk)
    assert cfg.p == 2.0
    assert cfg.alpha == 0.5
    assert cfg.n == 256
    assert cfg.method == "nodal"
    assert "n" in cfg.defaults_applied
    assert "method" in cfg.defaults_applied
    assert "alpha" not in cfg.defaults_applied


def test_alpha_out_of_range_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nalpha: 1.5\n")
    assert err.value.key == "alpha"


def test_round_trip_identity():
    text = """
container: {type: stadium, half_length: 1.0, radius: 0.5, angle: 0.25}
p: inf
alpha: 0.3
alphas: [0.1, 0.5, 0.9]
ps: [1, 2, inf]
method: minimax
n: 64
seeds: 2
solver: {rho0: 5.0, max_outer: 12}
"""
    cfg = parse_config(text)
    assert math.isinf(cfg.p)
    assert cfg.ps[-1] == math.inf
    once = serialize_config(cfg)
    cfg2 = parse_config(once)
    assert serialize_config(cfg2) == once
    assert isinstance(cfg2.container, Stadium)
    assert cfg2.solver == {"max_outer": 12.0, "rho0": 5.0}
    assert cfg2.alphas == cfg.alphas and cfg2.ps == cfg.ps


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nwat: 3\n")
    assert "wat" in str(err.value)


def test_unknown_solver_key():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nsolver: {step_size: 0.1}\n")
    assert err.value.key == "solver"


@pytest.mark.parametrize("key", ["rho_growth", "rho_max", "violation_shrink", "memory"])
def test_fixed_solver_policy_is_not_a_key(key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"container: disk\nsolver: {{{key}: 10}}\n")
    assert err.value.key == "solver"


def test_solver_keys_round_trip_into_params():
    text = """
container: disk
solver: {rho0: 5.0, outer_tol: 1.0e-7, feas_tol: 1.0e-9, max_outer: 12, max_inner: 80}
"""
    solver = {"rho0": 5.0, "outer_tol": 1e-7, "feas_tol": 1e-9, "max_outer": 12, "max_inner": 80}
    once = serialize_config(parse_config(text))
    cfg = parse_config(once)
    assert serialize_config(cfg) == once
    assert cfg.solver == solver
    params = solver_params_from(cfg)
    assert {k: getattr(params, k) for k in solver} == solver
    assert isinstance(params.max_outer, int) and isinstance(params.max_inner, int)


@pytest.mark.parametrize("key", ["max_outer", "max_inner"])
@pytest.mark.parametrize("value", ["0.5", "2.7", "12.0", "0", "-3", "true", "abc"])
def test_solver_budgets_must_be_positive_integers(key, value):
    # a fractional budget used to be truncated: max_outer 0.5 ran no outer iteration
    with pytest.raises(ConfigError) as err:
        parse_config(f"container: disk\nsolver: {{{key}: {value}}}\n")
    assert err.value.key == f"solver.{key}"


@pytest.mark.parametrize("key", ["rho0", "outer_tol", "feas_tol"])
@pytest.mark.parametrize("value", [".inf", ".nan", "-.inf", "true", "abc", "'1.0'"])
def test_solver_tolerances_must_be_finite(key, value):
    # feas_tol: .inf used to certify an infeasible shape as converged
    with pytest.raises(ConfigError) as err:
        parse_config(f"container: disk\nsolver: {{{key}: {value}}}\n")
    assert err.value.key == f"solver.{key}"


def test_parse_error_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_config("container: [unclosed\n")
    assert "line" in str(err.value)


def test_missing_container():
    with pytest.raises(ConfigError) as err:
        parse_config("p: 2\n")
    assert err.value.key == "container"


def test_container_forms():
    cfg = parse_config(
        """
container:
  type: minkowski_sum
  parts:
    - {type: polygon, vertices: [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    - {type: disk, radius: 0.5}
"""
    )
    assert isinstance(cfg.container, MinkowskiSum)
    assert isinstance(cfg.container.left, Polygon)
    assert isinstance(cfg.container.right, Disk)


def test_container_from_file(tmp_path):
    spec_file = tmp_path / "shape.yaml"
    spec_file.write_text("{type: disk, radius: 2.0}\n")
    cfg = parse_config(f"container: {spec_file}\n")
    assert isinstance(cfg.container, Disk)
    assert cfg.container.radius == 2.0
    # the serialized form inlines the file contents
    assert "radius" in serialize_config(cfg)


def test_bad_container_type():
    with pytest.raises(ConfigError):
        parse_config("container: {type: pentagon3}\n")


def test_degenerate_polygon_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("container: {type: polygon, vertices: [[0, 0], [1, 1], [2, 2]]}\n")
    assert err.value.key == "container"


def test_alphas_must_increase():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nalphas: [0.5, 0.2]\n")
    assert err.value.key == "alphas"


@pytest.mark.parametrize("entry", ["abc", "null", "true"])
def test_alphas_entries_must_be_numbers(entry):
    # `true` would otherwise read as alpha = 1, `abc` and `null` as a crash
    with pytest.raises(ConfigError) as err:
        parse_config(f"container: disk\nalphas: [0.1, {entry}]\n")
    assert err.value.key == "alphas"


def test_ps_accept_inf_token():
    cfg = parse_config("container: disk\nps: [1, 4, inf]\n")
    assert cfg.ps == [1.0, 4.0, math.inf]


def test_p_below_one_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\np: 0.5\n")
    assert err.value.key == "p"


def test_schema_version_checked():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nschema_version: 99\n")
    assert err.value.key == "schema_version"


def test_method_validated():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nmethod: magic\n")
    assert err.value.key == "method"
