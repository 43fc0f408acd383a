"""JSON design configuration with strict validation."""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import Grid2D
from .io import read_json
from .maps import BUILTIN_MAPS
from .snell import OpticalConstants
from .surfaces import BUILTIN_SURFACES
from . import fields as field_lib

DEFAULT_TOLERANCES = {
    "admissibility": 1e-10,
    "curl": 1e-10,
    "verdict": 1e-9,
}

BUILTIN_FIELDS = {
    "vertical": lambda params: field_lib.vertical(),
    "collimated": lambda params: field_lib.collimated(**params),
    "point_source": lambda params: field_lib.point_source(**params),
}

_TOP_KEYS = {
    "constants", "map", "field", "surface", "grid", "x0", "z0",
    "tolerances", "output_dir", "alphas", "t_range", "step",
}


def _reject_unknown(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def read_number(value, where):
    """``value`` as a finite float.  Only a JSON number is one: not
    true/false, and not a string such as "0.5"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def read_tolerance(value, where):
    """``value`` as a tolerance: a finite float >= 0."""
    if read_number(value, where) < 0.0:
        raise ConfigError(f"{where} must be a number >= 0, got {value!r}")
    return float(value)


def read_x0(value):
    """The design anchor of an "x0" key: a pair of finite numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"x0 must be a pair of numbers, got {value!r}")
    return np.array([read_number(v, "x0") for v in value])


def read_constants(d):
    """``OpticalConstants`` from the object of a "constants" key."""
    _reject_unknown(d, {"n1", "n2", "n3", "k", "a", "c"}, "constants")
    try:
        return OpticalConstants(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad constants: {exc}") from exc


def read_map(d):
    """The ``TargetMap`` of a "map" key's {"name", "params"} object."""
    return _named_spec(d, "map", BUILTIN_MAPS)


def _named_spec(d, where, registry):
    _reject_unknown(d, {"name", "params"}, where)
    name = d.get("name")
    if name not in registry:
        raise ConfigError(f"unknown {where} name {name!r}; choose from "
                          f"{sorted(registry)}")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.params must be an object")
    try:
        return registry[name](params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for {where} {name!r}: {exc}") from exc


@dataclass
class DesignConfig:
    """Validated configuration for checks, designs, and traces."""

    constants: OpticalConstants
    target_map: Optional[object] = None
    incident_field: Optional[object] = None
    surface: Optional[object] = None
    grid: Optional[Grid2D] = None
    x0: Optional[np.ndarray] = None
    z0: Optional[float] = None
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_dir: Optional[str] = None
    alphas: Optional[list] = None
    t_range: Optional[tuple] = None
    step: Optional[float] = None

    @staticmethod
    def from_dict(raw):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "config")
        if "constants" not in raw:
            raise ConfigError("config requires a 'constants' section")
        cfg = DesignConfig(constants=read_constants(raw["constants"]))
        if "map" in raw:
            cfg.target_map = read_map(raw["map"])
        if "field" in raw:
            cfg.incident_field = _named_spec(raw["field"], "field", BUILTIN_FIELDS)
        if "surface" in raw:
            cfg.surface = _named_spec(raw["surface"], "surface", BUILTIN_SURFACES)
        if "grid" in raw:
            gdict = raw["grid"]
            _reject_unknown(gdict, {"box", "n"}, "grid")
            try:
                n = gdict["n"]
                if not isinstance(n, list):
                    n = [n, n]
                if len(n) != 2:
                    raise ValueError(f"grid.n must be an int or two of them, "
                                     f"got {gdict['n']!r}")
                cfg.grid = Grid2D.from_box(gdict["box"], *n)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad grid spec: {exc}") from exc
        if raw.get("x0") is not None:
            cfg.x0 = read_x0(raw["x0"])
        if raw.get("z0") is not None:
            cfg.z0 = read_number(raw["z0"], "z0")
        if "tolerances" in raw:
            _reject_unknown(raw["tolerances"], DEFAULT_TOLERANCES, "tolerances")
            cfg.tolerances.update(
                {k: read_tolerance(v, f"tolerances.{k}")
                 for k, v in raw["tolerances"].items()}
            )
        if "output_dir" in raw:
            if not isinstance(raw["output_dir"], str):
                raise ConfigError(f"output_dir must be a string, got "
                                  f"{raw['output_dir']!r}")
            cfg.output_dir = raw["output_dir"]
        if "alphas" in raw:
            if not isinstance(raw["alphas"], list):
                raise ConfigError("alphas must be a list of numbers")
            cfg.alphas = [read_number(v, "alphas") for v in raw["alphas"]]
        if "t_range" in raw:
            tr = raw["t_range"]
            if not (isinstance(tr, (list, tuple)) and len(tr) == 2):
                raise ConfigError("t_range must be a pair [t_min, t_max]")
            cfg.t_range = (read_number(tr[0], "t_range"),
                           read_number(tr[1], "t_range"))
            if not cfg.t_range[0] <= 0.0 <= cfg.t_range[1]:
                raise ConfigError("t_range must contain 0")
        if "step" in raw:
            cfg.step = read_number(raw["step"], "step")
            if not cfg.step > 0.0:
                raise ConfigError(f"step must be > 0, got {cfg.step}")
        return cfg

    @staticmethod
    def from_file(path):
        try:
            raw = read_json(path)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        return DesignConfig.from_dict(raw)

    def require(self, *names):
        for name in names:
            attr = {"map": "target_map", "field": "incident_field"}.get(name, name)
            if getattr(self, attr) is None:
                raise ConfigError(f"this command requires a '{name}' section")
