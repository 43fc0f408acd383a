import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridlens
from hybridlens import io
from hybridlens.cli import build_parser, main
from hybridlens.imaging import lemma_identity_check

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


@pytest.mark.parametrize("command", ["design-imaging", "design-farfield"])
def test_grid_too_small_to_trace_exit_2(command, dilation_cfg, tmp_path, capsys):
    cfg = dilation_cfg if command == "design-imaging" else write_config(
        tmp_path,
        "point.json",
        {
            "constants": CONSTANTS,
            "field": {"name": "point_source",
                      "params": {"source": [0.0, 0.0, -5.0]}},
            "surface": {"name": "polynomial",
                        "params": {"coeffs": [[0.5, 0, 0.3], [0, 0, 0],
                                              [0.3, 0, 0]]}},
            "grid": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 41},
            "output_dir": str(tmp_path / "out"),
        },
    )
    for nodes in ("2", "3", "10"):
        assert main([command, "--config", cfg, "--grid", nodes]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least 11 nodes per axis" in err
        assert not (tmp_path / "out").exists()
    assert main([command, "--config", cfg, "--grid", "11"]) == 0


def test_trace_missing_design_exit_2(tmp_path, capsys):
    assert main(["trace", "--design", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "design.json" in err


def _truncate_mid_row(path):
    """Cut the file inside a row, as an interrupted write would."""
    text = path.read_bytes()
    path.write_bytes(text[:len(text) // 2])


def _drop_last_rows(path):
    """Remove whole rows: every column parses, the grid has too few."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-7]))


def _rename_first_column(path):
    text = path.read_bytes()
    path.write_bytes(b"renamed" + text[text.index(b","):])


@pytest.mark.parametrize("name", ["rho.csv", "phase.csv"])
@pytest.mark.parametrize("damage", [_truncate_mid_row, _drop_last_rows,
                                    _rename_first_column])
def test_trace_on_a_malformed_artifact_exit_2_with_one_line(
        name, damage, dilation_cfg, tmp_path, capsys):
    assert main(["design-imaging", "--config", dilation_cfg]) == 0
    out = tmp_path / "out"
    damage(out / name)
    capsys.readouterr()
    assert main(["trace", "--design", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert name in err


def _edit_middle_row(edit):
    """Damage a CSV by calling ``edit`` on the cells of its middle row, given
    the header's names too."""
    def damage(path):
        lines = path.read_bytes().split(b"\n")
        names = lines[0].decode().split(",")
        row = len(lines) // 2
        cells = lines[row].split(b",")
        edit(names, cells)
        lines[row] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
    return damage


def _letter_in(column):
    def edit(names, cells):
        i = names.index(column)
        cells[i] = cells[i][:2] + b"x" + cells[i][2:]
    return _edit_middle_row(edit)


def _extra_comma(names, cells):
    cells.append(b"0")


def _missing_comma_after(column):
    def edit(names, cells):
        i = names.index(column)
        cells[i:i + 2] = [cells[i] + cells[i + 1]]
    return _edit_middle_row(edit)


def _swap_columns(a, b):
    def damage(path):
        header, _, body = path.read_bytes().partition(b"\n")
        names = header.decode().split(",")
        i, j = names.index(a), names.index(b)
        names[i], names[j] = names[j], names[i]
        path.write_bytes(",".join(names).encode() + b"\n" + body)
    return damage


@pytest.mark.parametrize("name, damage, mode", [
    ("rho.csv", _letter_in("z"), "fd"),
    ("phase.csv", _letter_in("dphi_du1"), "fd"),
    ("phase.csv", _letter_in("Q1"), "analytic"),
    ("rho.csv", _edit_middle_row(_extra_comma), "fd"),
    ("phase.csv", _edit_middle_row(_extra_comma), "analytic"),
    ("rho.csv", _missing_comma_after("drho1"), "fd"),
    ("phase.csv", _missing_comma_after("Q1"), "analytic"),
    ("rho.csv", _swap_columns("rho", "z"), "fd"),
    ("phase.csv", _swap_columns("Q1", "Q2"), "fd"),
], ids=["letter-in-z", "letter-in-dphi_du1-fd", "letter-in-Q1-analytic",
        "extra-comma-rho", "extra-comma-phase", "missing-comma-rho",
        "missing-comma-phase", "swapped-rho-z", "swapped-Q1-Q2"])
def test_trace_on_damage_in_a_column_it_does_not_read_exit_2_with_one_line(
        name, damage, mode, dilation_cfg, tmp_path, capsys):
    """``trace`` parses only the columns of its gradient mode, but damage
    anywhere in rho.csv or phase.csv still exits 2 naming the file."""
    assert main(["design-imaging", "--config", dilation_cfg]) == 0
    out = tmp_path / "out"
    damage(out / name)
    capsys.readouterr()
    assert main(["trace", "--design", str(out), "--gradient-mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert name in err


def _edit_json(edit):
    """Damage a JSON artifact by calling ``edit`` on its parsed object."""
    def damage(path):
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
    return damage


def _set_grid_shape(shape):
    return _edit_json(lambda m: m["grid"].update(shape=shape))


@pytest.mark.parametrize("name, damage", [
    ("design.json", _edit_json(lambda m: m["constants"].update(k=-1.0))),
    ("design.json", _edit_json(lambda m: m["constants"].update(a=float("nan")))),
    ("design.json", _edit_json(lambda m: m["map"].update(name="no-such-map"))),
    ("design.json", _edit_json(lambda m: m.pop("constants"))),
    ("design.json", _truncate_mid_row),
    ("phase.json", _truncate_mid_row),
    ("design.json", _edit_json(lambda m: m["constants"].update(n2=0.9))),
    ("design.json", _edit_json(lambda m: m["constants"].update(c=0.5))),
    ("design.json", _set_grid_shape([41.0, 41])),
    ("design.json", _set_grid_shape("ab")),
    ("design.json", _set_grid_shape([41, 41, 1])),
    ("design.json", _set_grid_shape([1, 41 * 41])),
    ("design.json", _edit_json(lambda m: m["grid"].update(box="ab"))),
    ("design.json", _edit_json(lambda m: m["grid"].update(
        box=[[-0.5, float("inf")], [-0.5, 0.5]]))),
    ("design.json", _edit_json(lambda m: m["grid"].update(
        box=[[0.7, -0.7], [-0.7, 0.7]]))),
    ("design.json", _edit_json(lambda m: m.update(z0=True))),
    ("design.json", _edit_json(lambda m: m.update(z0="0.5"))),
    ("design.json", _edit_json(lambda m: m.update(x0=[0, 0, 0]))),
    ("design.json", _edit_json(lambda m: m.update(x0=None))),
    ("design.json", _edit_json(lambda m: m.update(path_residual="nan"))),
    ("design.json", _edit_json(lambda m: m.update(path_residual=True))),
    ("design.json", _edit_json(lambda m: m.update(kind="farfield"))),
    ("phase.json", lambda path: path.write_text("[1, 2]")),
    ("phase.json", _edit_json(lambda m: m.pop("warnings"))),
    ("phase.json", _edit_json(lambda m: m.update(k=2.0))),
    ("phase.json", _edit_json(lambda m: m.update(a=0.5))),
    ("phase.json", _edit_json(lambda m: m.update(kappa2=0.5))),
    ("design.json", _edit_json(lambda m: m.update(z0=10**400))),
    ("design.json", _edit_json(lambda m: m.update(x0=[0, -10**400]))),
    ("design.json", _edit_json(lambda m: m["constants"].update(n2=10**400))),
    ("design.json", lambda path: path.write_bytes(path.read_bytes() + b"\xff")),
    ("phase.json", lambda path: path.write_bytes(path.read_bytes() + b"\xff")),
    ("design.json", lambda path: (path.unlink(), path.mkdir())),
], ids=["negative-k", "nan-constant", "unknown-map", "no-constants",
        "cut-design", "cut-phase", "n2-below-n1", "c-below-a",
        "float-shape", "string-shape", "three-axis-shape", "one-row-shape",
        "string-box", "infinite-box", "reversed-box", "z0-true",
        "z0-string", "x0-three-numbers", "x0-null", "path_residual-string",
        "path_residual-true", "kind-farfield", "phase-not-an-object",
        "no-warnings", "other-k", "other-a", "other-kappa2", "z0-huge-int",
        "x0-huge-int", "n2-huge-int", "design-0xff", "phase-0xff",
        "design-a-directory"])
def test_trace_on_a_damaged_json_artifact_exit_2_with_one_line(
        name, damage, dilation_cfg, tmp_path, capsys):
    assert main(["design-imaging", "--config", dilation_cfg]) == 0
    out = tmp_path / "out"
    damage(out / name)
    capsys.readouterr()
    retrace = tmp_path / "retrace"
    assert main(["trace", "--design", str(out), "--out", str(retrace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert name in err
    assert not retrace.exists()


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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("command, config, extra", [
    ("design-imaging", "dilation_design.json", ["--grid", "31"]),
    ("plot2d", "profiles_2d.json", []),
])
def test_shipped_configs_run(command, config, extra, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]
                + extra) == 0
    if command == "design-imaging":
        _, cols = io.read_csv(out / "rho.csv", sum(io.RHO_COLUMNS.values(), ()),
                              ["x1", "x2"], rows=31 * 31)
        assert np.unique(cols["x1"]).size == np.unique(cols["x2"]).size == 31
        assert io.read_json(out / "verdict.json")["existence_verdict"]["passed"]
    else:
        alphas = io.read_json(CONFIGS / config)["alphas"]
        assert len(list(out.glob("profile_alpha_*.csv"))) == len(alphas)


def test_trace_samples_are_the_strided_interior_nodes():
    from hybridlens.cli import _trace_samples
    from hybridlens.geometry import Grid2D

    grid = Grid2D.from_box(((-0.7, 0.7), (-0.4, 0.7)), 101, 104)
    ii, jj = np.arange(5, 96), np.arange(5, 99)
    stride = 3  # ceil(sqrt(91 * 94 / 1024))
    nodes = np.array([grid.node(i, j) for i in ii[::stride] for j in jj[::stride]])
    assert np.array_equal(_trace_samples(grid), nodes)


def test_lemma_check(tmp_path):
    cfg = write_config(tmp_path, "lemma.json",
                       {"constants": CONSTANTS,
                        "output_dir": str(tmp_path / "out")})
    assert main(["lemma-check", "--config", cfg]) == 0
    report = io.read_json(tmp_path / "out" / "lemma_report.json")
    assert report["max_residual"] <= report["tol"]
    # the command's one batch against a rejection loop over the same draws
    kappa1 = CONSTANTS["n2"] / CONSTANTS["n1"]
    rng = np.random.default_rng(0)
    radius = 0.95 * np.sqrt(kappa1**2 - 1.0)
    worst, count = 0.0, 0
    while count < 1000:
        y = rng.uniform(-radius, radius, 2)
        if np.linalg.norm(y) > radius:
            continue
        worst = max(worst, float(lemma_identity_check(y, kappa1)))
        count += 1
    assert report["max_residual"] == worst


@pytest.mark.parametrize("argv", [
    ["design-imaging", "--config", "cfg.json"],
    ["design-farfield", "--config", "cfg.json"],
    ["trace", "--design", "out"],
])
def test_gradient_mode_defaults_to_fd(argv):
    assert build_parser().parse_args(argv).gradient_mode == "fd"


FLAG_TABLE = {
    "check": {"--config", "--out", "--grid", "--tol"},
    "design-imaging": {"--config", "--out", "--grid", "--force",
                       "--gradient-mode"},
    "design-farfield": {"--config", "--out", "--grid", "--force",
                        "--gradient-mode"},
    "trace": {"--design", "--out", "--gradient-mode"},
    "plot2d": {"--config", "--out"},
    "lemma-check": {"--config", "--out", "--tol"},
}


@pytest.mark.parametrize("command", FLAG_TABLE)
def test_each_command_has_only_the_flags_it_reads(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - {"--help"} == FLAG_TABLE[command]


@pytest.mark.parametrize("command, flag", [
    ("design-imaging", ["--tol", "1"]),
    ("design-farfield", ["--tol", "1"]),
    ("plot2d", ["--grid", "11"]),
    ("trace", ["--force"]),
    ("trace", ["--grid", "3"]),
    ("check", ["--force"]),
    ("lemma-check", ["--grid", "3"]),
])
def test_a_flag_the_command_does_not_read_is_usage_error(command, flag, capsys):
    source = ["--design", "out"] if command == "trace" else ["--config", "c.json"]
    assert main([command] + source + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


IMAGING = {
    "constants": CONSTANTS,
    "map": {"name": "dilation", "params": {"alpha": 0.2}},
    "grid": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 11},
}
FARFIELD = {
    "constants": CONSTANTS,
    "field": {"name": "point_source", "params": {"source": [0.0, 0.0, -5.0]}},
    "surface": {"name": "polynomial",
                "params": {"coeffs": [[0.5, 0, 0.3], [0, 0, 0], [0.3, 0, 0]]}},
    "grid": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 11},
}
PROFILES = {
    "constants": {**CONSTANTS, "a": 100.0, "c": 150.0},
    "alphas": [0.2],
    "z0": 70.0,
    "step": 0.01,
}
NO_LENS = {**CONSTANTS, "n2": 0.9}


MALFORMED = {
    "alphas-not-a-list": ("plot2d", PROFILES, {"alphas": 0.3}),
    "map-not-an-object": ("check", IMAGING, {"map": 5}),
    "z0-not-a-number": ("plot2d", PROFILES, {"z0": "abc"}),
    "step-not-a-number": ("plot2d", PROFILES, {"step": "x"}),
    "step-zero": ("plot2d", PROFILES, {"step": 0}),
    "step-negative": ("plot2d", PROFILES, {"step": -0.1}),
    "step-nan": ("plot2d", PROFILES, {"step": "nan"}),
    "t_range-without-0": ("plot2d", PROFILES, {"t_range": [0.5, 1.0]}),
    "tolerance-not-a-number": ("check", IMAGING,
                               {"tolerances": {"curl": "x"}}),
    "thickness-tolerance": ("check", IMAGING,
                            {"tolerances": {"thickness": 0.0}}),
    "x0-not-numbers": ("design-imaging", IMAGING, {"x0": ["a", "b"]}),
    "dilation-alpha-1": ("check", IMAGING, {"map": {
        "name": "dilation", "params": {"alpha": -1}}}),
    "source-above-plane": ("design-farfield", FARFIELD, {"field": {
        "name": "point_source", "params": {"source": [0, 0, 1]}}}),
    "imaging-n2-below-n1": ("design-imaging", IMAGING, {"constants": NO_LENS}),
    "imaging-c-at-a": ("design-imaging", IMAGING,
                       {"constants": {**CONSTANTS, "c": 1.0}}),
    "farfield-n2-below-n1": ("design-farfield", FARFIELD,
                             {"constants": NO_LENS}),
    "check-n2-below-n1": ("check", IMAGING, {"constants": NO_LENS}),
    "plot2d-n2-below-n1": ("plot2d", PROFILES, {"constants": NO_LENS}),
    "lemma-n2-below-n1": ("lemma-check", IMAGING, {"constants": NO_LENS}),
    "check-field-n2-below-n1": ("check", FARFIELD, {"constants": NO_LENS}),
    "grid-n-0": ("check", IMAGING, {"grid": {**IMAGING["grid"], "n": 0}}),
    "grid-n-1": ("check", IMAGING, {"grid": {**IMAGING["grid"], "n": 1}}),
    "grid-n-1-by-11": ("design-imaging", IMAGING,
                       {"grid": {**IMAGING["grid"], "n": [1, 11]}}),
    "tolerance-negative": ("check", IMAGING,
                           {"tolerances": {"admissibility": -1}}),
    "alphas-one-file-name": ("plot2d", PROFILES,
                             {"alphas": [0.1234561, 0.1234562]}),
    "alphas-repeated": ("plot2d", PROFILES, {"alphas": [0.2, 0.2]}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_exits_2_with_one_line(case, tmp_path, capsys):
    command, base, change = MALFORMED[case]
    cfg = write_config(tmp_path, "bad.json",
                       {**base, **change, "output_dir": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, nodes", [
    ("check", "0"), ("check", "1"), ("check", "-3"), ("design-imaging", "0"),
])
def test_too_few_grid_nodes_exit_2_with_one_line(command, nodes, tmp_path,
                                                 capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {**IMAGING, "output_dir": str(tmp_path / "out")})
    assert main([command, "--config", cfg, "--grid", nodes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "at least 2 nodes per axis" in err


def _assert_retrace_is_the_design_trace(config, tmp_path, mode):
    out = tmp_path / "out"
    assert main(["design-imaging", "--config", config,
                 "--gradient-mode", mode]) == 0
    retrace = tmp_path / "retrace"
    assert main(["trace", "--design", str(out), "--out", str(retrace),
                 "--gradient-mode", mode]) == 0
    for name in ["trace_report.csv", "trace_aggregates.json"]:
        assert (retrace / name).read_bytes() == (out / name).read_bytes(), name


def test_retrace_writes_the_design_trace_byte_for_byte(dilation_cfg, tmp_path):
    """`trace --gradient-mode fd` on a design's artifacts rebuilds the same
    lens and writes the same report as `design-imaging` did."""
    _assert_retrace_is_the_design_trace(dilation_cfg, tmp_path, "fd")


def test_analytic_retrace_writes_the_design_trace_byte_for_byte(
        dilation_cfg, tmp_path):
    """The same in ``analytic`` mode, which reads phase.csv's dphi columns
    and none of the fd mode's."""
    _assert_retrace_is_the_design_trace(dilation_cfg, tmp_path, "analytic")


SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import hybridlens.cli as cli
imaging, farfield, profiles, out = sys.argv[1:]
for argv in [
    ["check", "--config", imaging, "--out", out + "/check"],
    ["design-imaging", "--config", imaging, "--out", out + "/imaging"],
    ["trace", "--design", out + "/imaging", "--gradient-mode", "fd"],
    ["trace", "--design", out + "/imaging", "--gradient-mode", "analytic"],
    ["design-farfield", "--config", farfield, "--out", out + "/farfield"],
    ["plot2d", "--config", profiles, "--out", out + "/profiles"],
    ["lemma-check", "--config", imaging, "--out", out + "/lemma"],
]:
    assert cli.main(argv) == 0, argv
print("no scipy")
"""

NUMPY_MA_PROBE = """
import sys
import hybridlens.cli as cli
imaging, farfield, out = sys.argv[1:]
assert cli.main(["design-imaging", "--config", imaging, "--out", out]) == 0
assert cli.main(["design-farfield", "--config", farfield, "--out", out]) == 0
assert "numpy.ma" not in sys.modules
print("no numpy.ma")
"""


def test_design_and_trace_never_import_scipy(tmp_path):
    """Every command runs with scipy unimportable, in a fresh interpreter
    so that no other test's import counts."""
    imaging = write_config(tmp_path, "dilation31.json", {
        "constants": CONSTANTS,
        "map": {"name": "dilation", "params": {"alpha": 0.2}},
        "grid": {"box": [[-0.7, 0.7], [-0.7, 0.7]], "n": 31},
        "x0": [0.0, 0.0],
    })
    farfield = write_config(tmp_path, "farfield31.json",
                            {**FARFIELD, "grid": {**FARFIELD["grid"], "n": 31}})
    profiles = write_config(tmp_path, "profiles.json", PROFILES)
    src = str(Path(hybridlens.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, imaging, farfield, profiles,
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().endswith("no scipy")


def test_design_commands_never_import_numpy_ma(tmp_path):
    """``np.median`` imports ``numpy.ma``; no design command needs it."""
    box = {"box": [[-0.5, 0.5], [-0.5, 0.5]], "n": 31}
    imaging = write_config(tmp_path, "imaging.json", {
        "constants": CONSTANTS,
        "map": {"name": "dilation", "params": {"alpha": 0.2}},
        "grid": box,
        "x0": [0.0, 0.0],
    })
    farfield = write_config(tmp_path, "farfield.json", {
        "constants": CONSTANTS,
        "field": {"name": "point_source", "params": {"source": [0.0, 0.0, -5.0]}},
        "surface": {"name": "polynomial",
                    "params": {"coeffs": [[0.5, 0, 0.3], [0, 0, 0], [0.3, 0, 0]]}},
        "grid": box,
    })
    src = str(Path(hybridlens.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, imaging, farfield,
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().endswith("no numpy.ma")
