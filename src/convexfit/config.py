"""Run configuration: one canonical YAML schema, strictly validated.

Unknown keys are rejected, every numeric range is checked at parse time,
and the provenance of defaulted values is recorded.  `serialize_config`
emits a canonical document that reparses to an equal configuration.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .geometry import (
    Disk,
    GeometryError,
    MinkowskiSum,
    Polygon,
    Scaled,
    Stadium,
    Translated,
    named_container,
)

SCHEMA_VERSION = 1

METHODS = ("fourier", "nodal", "both")


class ConfigError(ValueError):
    """Invalid configuration; `key` names the offending entry when known."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    """The configuration of a run and of every study (`experiments.StudyConfig`);
    `container_name` is "run" when parsed, and `output_dir=None` writes no files."""

    container: object
    container_doc: object  # canonical form for serialization
    container_name: str
    p: float = 2.0
    alpha: float = 0.5
    alphas: list | None = None
    ps: list | None = None
    method: str = "nodal"
    n: int = 256
    n_f: int = 32
    m: int = 720
    q: int = 1024
    seeds: int = 4
    base_seed: int = 0
    output_dir: str | None = "out"
    oracle_grid: int = 25
    defaults_applied: list = field(default_factory=list)

    def out_path(self, name):
        return os.path.join(self.output_dir, name)


# every top-level key but `container`, with its default
DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


def _parse_container(doc, key="container"):
    """(spec, canonical document) of a stock name or an inline spec mapping;
    the document's entries are built only once the spec has validated them,
    and a name is kept as `named_container` reads it."""
    if isinstance(doc, str):
        try:
            return named_container(doc), doc.strip().lower()
        except GeometryError as exc:
            raise ConfigError(str(exc), key) from exc
    if not isinstance(doc, dict):
        raise ConfigError("must be a name or a mapping with a 'type' entry", key)
    kind = doc.get("type")
    known = {
        "disk": {"type", "radius", "center"},
        "polygon": {"type", "vertices"},
        "stadium": {"type", "half_length", "radius", "angle"},
        "minkowski_sum": {"type", "parts"},
        "scaled": {"type", "factor", "base"},
        "translated": {"type", "offset", "base"},
    }
    if kind not in known:
        raise ConfigError(f"unknown container type {kind!r}", key)
    extra = set(doc) - known[kind]
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)}", key)
    canonical = {"type": kind}
    try:
        if kind == "disk":
            spec = Disk(doc.get("center", (0.0, 0.0)), float(doc.get("radius", 1.0)))
        elif kind == "polygon":
            spec = Polygon(np.asarray(doc["vertices"], dtype=float))
        elif kind == "stadium":
            spec = Stadium(
                float(doc.get("half_length", 1.0)),
                float(doc.get("radius", 1.0)),
                float(doc.get("angle", 0.0)),
            )
        elif kind == "minkowski_sum":
            parts = doc.get("parts", [])
            if len(parts) != 2:
                raise ConfigError("needs exactly 2 parts", key)
            left, left_doc = _parse_container(parts[0], key + ".parts[0]")
            right, right_doc = _parse_container(parts[1], key + ".parts[1]")
            spec = MinkowskiSum(left, right)
            canonical["parts"] = [left_doc, right_doc]
        else:  # scaled or translated
            base, canonical["base"] = _parse_container(doc["base"], key + ".base")
            spec = Scaled(base, float(doc["factor"])) if kind == "scaled" else Translated(base, doc["offset"])
        for k in sorted(set(doc) - {"type", "parts", "base"}):
            v = doc[k]
            if k == "vertices":
                canonical[k] = [[float(a), float(b)] for a, b in v]
            elif k in ("center", "offset"):
                canonical[k] = [float(v[0]), float(v[1])]
            else:
                canonical[k] = float(v)
    except ConfigError:
        raise
    except (GeometryError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), key) from exc
    return spec, canonical


def _require(cond, message, key):
    if not cond:
        raise ConfigError(message, key)


def parse_config(text, overrides=None):
    """Parse and validate a YAML configuration document into a RunConfig.

    `overrides` (key -> value) replace the document's entries before
    validation, so they pass the same checks and count as set, not defaulted.
    """
    import yaml  # here, not at the top: the studies import this module without parsing

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    doc.update(overrides or {})

    allowed = {"schema_version", "container"} | set(DEFAULTS)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version}", "schema_version")
    _require("container" in doc, "missing required key", "container")
    container, container_doc = _parse_container(doc["container"])

    values = {}
    defaults_applied = []
    for name, default in DEFAULTS.items():
        if name in doc and doc[name] is not None:
            values[name] = doc[name]
        else:
            values[name] = default
            defaults_applied.append(name)

    def as_float(v, name, lo=None, hi=None, allow_inf=False):
        """A number (or, with `allow_inf`, the token 'inf') within [lo, hi], as a float."""
        if isinstance(v, str) and allow_inf and v.lower() in ("inf", "infinity"):
            return math.inf
        _require(
            isinstance(v, (int, float)) and not isinstance(v, bool),
            "must be a number or 'inf'" if allow_inf else "must be a number",
            name,
        )
        v = float(v)
        _require(lo is None or v >= lo, f"must be >= {lo}", name)
        if math.isinf(v):
            _require(allow_inf, "must be finite", name)
            return v
        _require(hi is None or v <= hi, f"must be <= {hi}", name)
        return v

    def as_floats(name, **bounds):
        """None, or a non-empty list whose every entry passes as_float."""
        v = values[name]
        if v is not None:
            _require(isinstance(v, list) and v, "must be a non-empty list", name)
            v = [as_float(entry, name, **bounds) for entry in v]
        return v

    def as_int(name, lo):
        v = values[name]
        _require(isinstance(v, int) and not isinstance(v, bool), "must be an integer", name)
        _require(v >= lo, f"must be >= {lo}", name)
        return v

    p = as_float(values["p"], "p", lo=1.0, allow_inf=True)
    alpha = as_float(values["alpha"], "alpha", lo=0.0, hi=1.0)
    method = values["method"]
    _require(method in METHODS, f"must be one of {METHODS}", "method")
    _require(method not in ("fourier", "both") or math.isfinite(p), f"method {method} needs a finite p", "p")

    alphas = as_floats("alphas", lo=0.0, hi=1.0)
    _require(alphas is None or all(b > a for a, b in zip(alphas, alphas[1:])), "must increase", "alphas")
    ps = as_floats("ps", lo=1.0, allow_inf=True)

    output_dir = values["output_dir"]
    _require(isinstance(output_dir, str) and output_dir, "must be a non-empty string", "output_dir")
    n_f, q = as_int("n_f", 1), as_int("q", 4)
    _require(q >= 4 * n_f, f"must be >= 4 * n_f = {4 * n_f} (anti-aliasing)", "q")

    return RunConfig(
        container=container,
        container_doc=container_doc,
        container_name="run",
        p=p,
        alpha=alpha,
        alphas=alphas,
        ps=ps,
        method=method,
        n=as_int("n", 3),
        n_f=n_f,
        m=as_int("m", 3),
        q=q,
        seeds=as_int("seeds", 0),
        base_seed=as_int("base_seed", 0),
        output_dir=output_dir,
        oracle_grid=as_int("oracle_grid", 2),
        defaults_applied=sorted(defaults_applied),
    )


def serialize_config(cfg):
    """Canonical YAML document; parse(serialize(cfg)) equals cfg.

    Unset (None) keys are left out; an infinite exponent is written 'inf'.
    """
    import yaml

    def token(v):
        return "inf" if isinstance(v, float) and math.isinf(v) else v

    doc = {"schema_version": SCHEMA_VERSION, "container": cfg.container_doc}
    for name in DEFAULTS:
        value = getattr(cfg, name)
        if value is not None:
            doc[name] = [token(v) for v in value] if isinstance(value, list) else token(value)
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)
