import json
from pathlib import Path

import numpy as np
import pytest

from hybridlens import io
from hybridlens.cli import build_parser, main

CONSTANTS = {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 1.0, "c": 1.5}


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def dilation_cfg(tmp_path):
    return write_config(
        tmp_path,
        "dilation.json",
        {
            "constants": CONSTANTS,
            "map": {"name": "dilation", "params": {"alpha": 0.2}},
            "grid": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 41},
            "x0": [0.0, 0.0],
            "output_dir": str(tmp_path / "out"),
        },
    )


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["check", "--config", "x.json", "--frobnicate"]) == 2
    capsys.readouterr()


def test_check_passes_for_dilation(dilation_cfg, tmp_path):
    assert main(["check", "--config", dilation_cfg]) == 0
    report = io.read_json(tmp_path / "out" / "check_report.json")
    assert report["summary"]["passed"]
    names = [c["name"] for c in report["conditions"]]
    assert "admissibility" in names


def test_check_fails_for_rotation(tmp_path):
    cfg = write_config(
        tmp_path,
        "rot.json",
        {
            "constants": CONSTANTS,
            "map": {"name": "rotation", "params": {"alpha": 0.2}},
            "grid": {"box": [[-0.3, 0.3], [-0.3, 0.3]], "n": 21},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["check", "--config", cfg]) == 1
    report = io.read_json(tmp_path / "out" / "check_report.json")
    failing = [c for c in report["conditions"] if not c["passed"]]
    assert any("S x D|S|^2" in c["details"] or "curl S" in c["details"]
               for c in failing)


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       {"constants": CONSTANTS, "bogus": 1})
    assert main(["check", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["check", "--config", str(p)]) == 2
    capsys.readouterr()


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_design_imaging_artifacts(dilation_cfg, tmp_path):
    assert main(["design-imaging", "--config", dilation_cfg]) == 0
    out = tmp_path / "out"
    for name in ["rho.csv", "design.json", "phase.csv", "phase.json",
                 "verdict.json", "trace_report.csv", "trace_aggregates.json"]:
        assert (out / name).exists(), name
    verdict = io.read_json(out / "verdict.json")
    assert verdict["existence_verdict"]["passed"]
    agg = io.read_json(out / "trace_aggregates.json")
    assert agg["max_landing_error"] < 1e-4
    assert agg["outside_patch"] == 0


def test_design_imaging_rotation_blocked(tmp_path):
    cfg = write_config(
        tmp_path,
        "rot.json",
        {
            "constants": CONSTANTS,
            "map": {"name": "rotation", "params": {"alpha": 0.2}},
            "grid": {"box": [[-0.3, 0.3], [-0.3, 0.3]], "n": 21},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["design-imaging", "--config", cfg]) == 1


def test_trace_on_emitted_design(dilation_cfg, tmp_path):
    assert main(["design-imaging", "--config", dilation_cfg]) == 0
    out = str(tmp_path / "out")
    assert main(["trace", "--design", out, "--out",
                 str(tmp_path / "retrace")]) == 0
    assert (tmp_path / "retrace" / "trace_report.csv").exists()


def test_grid_override(dilation_cfg, tmp_path):
    assert main(["design-imaging", "--config", dilation_cfg, "--grid", "21"]) == 0
    meta = io.read_json(tmp_path / "out" / "design.json")
    assert meta["grid"]["shape"] == [21, 21]


def test_plot2d_curves(tmp_path):
    cfg = write_config(
        tmp_path,
        "plot.json",
        {
            "constants": {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 100.0,
                          "c": 150.0},
            "alphas": [-0.3, 0.0, 0.3],
            "z0": 70.0,
            "t_range": [-1.0, 1.0],
            "step": 0.01,
            "output_dir": str(tmp_path / "curves"),
        },
    )
    assert main(["plot2d", "--config", cfg]) == 0
    files = sorted(Path(tmp_path / "curves").glob("profile_alpha_*.csv"))
    assert len(files) == 3
    _, flat_cols = io.read_csv(tmp_path / "curves" / "profile_alpha_+0.csv")
    assert np.max(np.abs(flat_cols["rho"] - 30.0)) < 1e-12


def test_plot2d_infeasible_exit_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "plot.json",
        {
            "constants": {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 100.0,
                          "c": 150.0},
            "alphas": [0.3],
            "z0": 120.0,
            "step": 0.01,
            "output_dir": str(tmp_path / "curves"),
        },
    )
    assert main(["plot2d", "--config", cfg]) == 1
    capsys.readouterr()


def test_lemma_check(tmp_path):
    cfg = write_config(tmp_path, "lemma.json",
                       {"constants": CONSTANTS,
                        "output_dir": str(tmp_path / "out")})
    assert main(["lemma-check", "--config", cfg]) == 0
    report = io.read_json(tmp_path / "out" / "lemma_report.json")
    assert report["max_residual"] <= report["tol"]


@pytest.mark.parametrize("argv", [
    ["design-imaging", "--config", "cfg.json"],
    ["design-farfield", "--config", "cfg.json"],
    ["trace", "--design", "out"],
])
def test_gradient_mode_defaults_to_fd(argv):
    assert build_parser().parse_args(argv).gradient_mode == "fd"
