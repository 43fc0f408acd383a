import json

import numpy as np
import pytest

from hybridlens.cli import main
from hybridlens.config import DEFAULT_TOLERANCES, DesignConfig
from hybridlens.errors import ConfigError

BASE = {
    "constants": {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 1.0, "c": 1.5},
    "map": {"name": "dilation", "params": {"alpha": 0.2}},
    "grid": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 11},
    "x0": [0.0, 0.0],
}


def test_valid_config_parses():
    cfg = DesignConfig.from_dict(BASE)
    assert cfg.constants.kappa1 == 1.5
    assert cfg.target_map.name == "dilation"
    assert cfg.grid.shape == (11, 11)
    assert np.allclose(cfg.x0, [0.0, 0.0])
    assert cfg.tolerances == DEFAULT_TOLERANCES


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        DesignConfig.from_dict({**BASE, "bogus": 1})


def test_unknown_constants_key_rejected():
    raw = dict(BASE)
    raw["constants"] = {**BASE["constants"], "n4": 2.0}
    with pytest.raises(ConfigError, match="constants"):
        DesignConfig.from_dict(raw)


def test_unknown_tolerance_key_rejected():
    with pytest.raises(ConfigError, match="tolerances"):
        DesignConfig.from_dict({**BASE, "tolerances": {"typo": 1e-9}})


def test_unknown_map_name_rejected():
    raw = dict(BASE)
    raw["map"] = {"name": "spiral", "params": {}}
    with pytest.raises(ConfigError, match="spiral"):
        DesignConfig.from_dict(raw)


def test_bad_map_params_rejected():
    raw = dict(BASE)
    raw["map"] = {"name": "dilation", "params": {"beta": 0.2}}
    with pytest.raises(ConfigError, match="params"):
        DesignConfig.from_dict(raw)


def test_extra_map_key_rejected():
    raw = dict(BASE)
    raw["map"] = {"name": "dilation", "params": {"alpha": 0.2}, "note": "x"}
    with pytest.raises(ConfigError, match="unknown keys"):
        DesignConfig.from_dict(raw)


def test_bad_x0_rejected():
    with pytest.raises(ConfigError, match="x0"):
        DesignConfig.from_dict({**BASE, "x0": [1.0]})


def test_missing_constants_rejected():
    with pytest.raises(ConfigError, match="constants"):
        DesignConfig.from_dict({"grid": BASE["grid"]})


def test_tolerances_merge_with_defaults():
    cfg = DesignConfig.from_dict({**BASE, "tolerances": {"curl": 1e-8}})
    assert cfg.tolerances["curl"] == 1e-8
    assert cfg.tolerances["admissibility"] == DEFAULT_TOLERANCES["admissibility"]


def test_field_and_surface_sections():
    raw = {
        "constants": BASE["constants"],
        "field": {"name": "point_source", "params": {"source": [0, 0, -2.0]}},
        "surface": {"name": "flat", "params": {"r0": 0.5}},
    }
    cfg = DesignConfig.from_dict(raw)
    assert cfg.incident_field.name == "point_source"
    assert cfg.surface.height(np.zeros(2)) == 0.5


def test_from_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        DesignConfig.from_file(tmp_path / "nope.json")


def test_from_file_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        DesignConfig.from_file(p)


def test_from_file_round_trip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(BASE))
    cfg = DesignConfig.from_file(p)
    assert cfg.grid.shape == (11, 11)


def test_require_aliases():
    cfg = DesignConfig.from_dict(BASE)
    cfg.require("map", "grid")
    with pytest.raises(ConfigError, match="field"):
        cfg.require("field")


NAN, INF = float("nan"), float("inf")
PROFILES = {
    "constants": {**BASE["constants"], "a": 100.0, "c": 150.0},
    "alphas": [0.2],
    "z0": 70.0,
    "step": 0.01,
}


def constants(**change):
    return {"constants": {**BASE["constants"], **change}}


# case: (command, base config, changed keys, the key the message names)
NOT_A_FINITE_NUMBER = {
    "n1-nan": ("design-imaging", BASE, constants(n1=NAN), "n1"),
    "n1-true": ("design-imaging", BASE, constants(n1=True), "n1"),
    "n2-inf": ("design-imaging", BASE, constants(n2=INF), "n2"),
    "n3-minus-inf": ("design-imaging", BASE, constants(n3=-INF), "n3"),
    "k-nan": ("design-imaging", BASE, constants(k=NAN), "k"),
    "k-inf": ("design-imaging", BASE, constants(k=INF), "k"),
    "a-inf": ("design-imaging", BASE, constants(a=INF), "a"),
    "c-nan": ("design-imaging", BASE, constants(c=NAN), "c"),
    "x0-nan": ("design-imaging", BASE, {"x0": [NAN, 0.0]}, "x0"),
    "x0-true": ("design-imaging", BASE, {"x0": [True, 0.0]}, "x0"),
    "z0-true": ("design-imaging", BASE, {"z0": True}, "z0"),
    "z0-nan": ("design-imaging", BASE, {"z0": NAN}, "z0"),
    "grid-box-nan": ("design-imaging", BASE, {"grid": {
        **BASE["grid"], "box": [[NAN, 0.5], [-0.5, 0.5]]}}, "grid.box"),
    "tolerance-inf": ("check", BASE, {"tolerances": {"curl": INF}},
                      "tolerances.curl"),
    "alphas-nan": ("plot2d", PROFILES, {"alphas": [0.2, NAN]}, "alphas"),
    "t_range-minus-inf": ("plot2d", PROFILES, {"t_range": [-INF, 1.0]},
                          "t_range"),
    "step-inf": ("plot2d", PROFILES, {"step": INF}, "step"),
}


@pytest.mark.parametrize("case", NOT_A_FINITE_NUMBER)
def test_a_value_that_is_not_a_finite_number_exits_2_naming_its_key(
        case, tmp_path, capsys):
    command, base, change, key = NOT_A_FINITE_NUMBER[case]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**base, **change}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f" {key} must be a" in err
    assert not out.exists()
