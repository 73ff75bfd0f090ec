"""Configuration schema: parsing, validation, defaults, round-trips."""

import math

import pytest

from convexfit.config import ConfigError, parse_config, serialize_config
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
method: nodal
n: 64
seeds: 2
"""
    cfg = parse_config(text)
    assert math.isinf(cfg.p)
    assert cfg.ps[-1] == math.inf
    once = serialize_config(cfg)
    cfg2 = parse_config(once)
    assert serialize_config(cfg2) == once
    assert isinstance(cfg2.container, Stadium)
    assert cfg2.alphas == cfg.alphas and cfg2.ps == cfg.ps


def test_unknown_top_level_key():
    # `container_name` is a RunConfig field that no document sets
    for key, value in (("wat", "3"), ("container_name", "x")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"container: disk\n{key}: {value}\n")
        assert key in str(err.value)


def test_a_solver_key_is_unknown():
    # the solver policy is fixed in convexfit.solver; no run sets it
    with pytest.raises(ConfigError, match="unknown keys") as err:
        parse_config("container: disk\nsolver: {max_outer: 12}\n")
    assert "solver" in str(err.value)


def test_unknown_solver_key():
    with pytest.raises(ConfigError, match="unknown keys") as err:
        parse_config("container: disk\nsolver: {step_size: 0.1}\n")
    assert "solver" in str(err.value)


@pytest.mark.parametrize("key", ["rho_growth", "rho_max", "violation_shrink", "memory"])
def test_fixed_solver_policy_is_not_a_key(key):
    # the penalty policy is fixed in convexfit.solver: neither a solver block
    # nor a top-level key can set it
    for text, named in ((f"container: disk\nsolver: {{{key}: 10}}\n", "solver"),
                        (f"container: disk\n{key}: 10\n", key)):
        with pytest.raises(ConfigError, match="unknown keys") as err:
            parse_config(text)
        assert named in str(err.value)


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


def test_container_file_path_is_an_error(tmp_path):
    # `container:` takes a stock name or an inline spec, never a file to read
    spec_file = tmp_path / "shape.yaml"
    spec_file.write_text("{type: disk, radius: 2.0}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(f"container: {spec_file}\n")
    assert err.value.key == "container"


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


@pytest.mark.parametrize("text", ["p: -.inf", "ps: [1, -.inf]"])
def test_negative_infinite_exponent_rejected(text):
    # p: -.inf used to pass the p >= 1 check and run the p = inf solve
    with pytest.raises(ConfigError, match="must be >= 1.0") as err:
        parse_config(f"container: disk\n{text}\n")
    assert err.value.key == text.split(":")[0]


def test_schema_version_checked():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nschema_version: 99\n")
    assert err.value.key == "schema_version"


def test_method_validated():
    with pytest.raises(ConfigError) as err:
        parse_config("container: disk\nmethod: magic\n")
    assert err.value.key == "method"
