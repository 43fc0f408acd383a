"""Batch front-end: check -> solve -> build-phase -> trace -> report.

Exit codes: 0 all requested checks/designs pass, 1 a domain condition
fails or a solver error occurs, 2 usage or configuration error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import farfield, imaging, io, raytrace
from .config import DesignConfig, read_tolerance
from .errors import ConfigError, HybridLensError
from .fields import curl_condition, vertical
from .geometry import Grid2D
from .maps import admissibility
from .reports import combine
from .surfaces import from_design

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2

#: Verification traces skip this many cells at each edge of the grid
#: and take at most this many interior nodes.
TRACE_MARGIN = 5
TRACE_RAYS = 1024


def _out_dir(args, cfg):
    out = args.out or cfg.output_dir or "out"
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _load_config(args):
    cfg = DesignConfig.from_file(args.config)
    if args.grid is not None and cfg.grid is not None:
        try:
            cfg.grid = Grid2D.from_box(cfg.grid.box, args.grid)
        except ValueError as exc:
            raise ConfigError(f"bad --grid: {exc}") from exc
    return cfg


def _x0(cfg):
    """The configured design anchor, else the centre of the grid."""
    return cfg.x0 if cfg.x0 is not None else np.array(
        [np.mean(cfg.grid.x1), np.mean(cfg.grid.x2)])


def _mode(args):
    return "fd_phase" if args.gradient_mode == "fd" else args.gradient_mode


def _run_checks(cfg):
    """The checks of the config's map and field, whichever it has."""
    reports = []
    tols = cfg.tolerances
    if cfg.target_map is not None:
        reports.append(admissibility(cfg.target_map, cfg.grid, tols["admissibility"]))
        reports.append(
            imaging.thickness_check(cfg.target_map, cfg.constants, cfg.grid)
        )
    if cfg.incident_field is not None:
        reports.append(curl_condition(cfg.incident_field, cfg.grid, tols["curl"]))
    return reports


def cmd_check(args):
    cfg = _load_config(args)
    if cfg.grid is None:
        raise ConfigError("check requires a 'grid' section")
    if cfg.target_map is None and cfg.incident_field is None:
        raise ConfigError("check requires a 'map' or 'field' section")
    if args.tol is not None:
        tol = read_tolerance(args.tol, "--tol")
        cfg.tolerances.update(admissibility=tol, curl=tol)
    reports = _run_checks(cfg)
    summary = combine("check", reports)
    out = _out_dir(args, cfg)
    io.write_json(
        out / "check_report.json",
        {"summary": summary.to_dict(),
         "conditions": [r.to_dict() for r in reports]},
    )
    print(summary.details)
    return EXIT_OK if summary.passed else EXIT_DOMAIN


def _trace_samples(grid):
    """Interior node subsample for verification tracing, taken first."""
    n1, n2 = grid.shape
    if min(n1, n2) <= 2 * TRACE_MARGIN:
        raise ConfigError(
            f"a {n1}x{n2} grid has no interior nodes to trace; use at least "
            f"{2 * TRACE_MARGIN + 1} nodes per axis"
        )
    ii = np.arange(TRACE_MARGIN, n1 - TRACE_MARGIN)
    jj = np.arange(TRACE_MARGIN, n2 - TRACE_MARGIN)
    stride = max(1, int(np.ceil(np.sqrt(ii.size * jj.size / TRACE_RAYS))))
    i, j = np.meshgrid(ii[::stride], jj[::stride], indexing="ij")
    return np.column_stack([grid.x1[i.ravel()], grid.x2[j.ravel()]])


def _trace_to_files(args, lens, field, constants, samples, out):
    """Trace ``samples`` through the lens, write trace_report.csv and
    trace_aggregates.json to ``out``; the report."""
    report = raytrace.trace_through(lens, field, constants, samples,
                                    gradient_mode=_mode(args))
    io.trace_report_to_files(report, out)
    return report


def _refused(args, cfg, name, report, failure):
    """Unless ``report`` passed or --force is set, write it to verdict.json
    under ``name``, say ``failure`` on stderr and return True."""
    if report.passed or args.force:
        return False
    io.write_json(_out_dir(args, cfg) / "verdict.json", {name: report.to_dict()})
    print(f"{failure}; rerun with --force to proceed", file=sys.stderr)
    return True


def _verify_and_write(args, cfg, field, mid, surface, det_check, samples,
                      reports, target_map=None):
    """Build the phase over ``mid`` and write phase.csv and phase.json,
    trace ``samples`` through ``_trace_to_files``, and write verdict.json:
    ``reports`` (name -> report), ``det_check`` and the phase warnings.
    Returns the trace report."""
    phase = farfield.build_phase(field, mid, cfg.constants,
                                 check_condition=det_check)
    out = _out_dir(args, cfg)
    io.phase_to_files(phase, out, cfg.constants)
    lens = raytrace.TraceableLens(surface=surface, phase=phase, grid=mid.grid,
                                  target_map=target_map)
    report = _trace_to_files(args, lens, field, cfg.constants, samples, out)
    io.write_json(out / "verdict.json", {
        **{name: r.to_dict() for name, r in reports.items()},
        det_check.name: det_check.to_dict(),
        "phase_warnings": list(phase.warnings),
    })
    return report


def cmd_design_imaging(args):
    cfg = _load_config(args)
    cfg.require("map", "grid")
    samples = _trace_samples(cfg.grid)
    pre = combine("pre_checks", _run_checks(cfg))
    if _refused(args, cfg, "pre_checks", pre,
                f"pre-checks failed ({pre.details})"):
        return EXIT_DOMAIN
    design = imaging.solve_rho(
        cfg.target_map, cfg.constants, cfg.grid, _x0(cfg), cfg.z0
    )
    verdict = imaging.existence_verdict(design, tol=cfg.tolerances["verdict"])
    mid = farfield.midfield_vertical(
        cfg.grid, design.rho, design.drho, cfg.constants
    )
    surface = from_design(design)
    det_check = farfield.sufficient_det_vertical(
        surface, cfg.constants, design.x0
    )
    report = _verify_and_write(
        args, cfg, vertical(), mid, surface, det_check, samples,
        {"pre_checks": pre, "existence_verdict": verdict},
        target_map=design.target_map,
    )
    io.design_to_files(design, _out_dir(args, cfg))
    print(f"existence verdict: {'pass' if verdict.passed else 'fail'} "
          f"({verdict.details}); max landing error "
          f"{report.aggregates.get('max_landing_error'):.3e}")
    return EXIT_OK if verdict.passed and pre.passed else EXIT_DOMAIN


def cmd_design_farfield(args):
    cfg = _load_config(args)
    cfg.require("field", "surface", "grid")
    samples = _trace_samples(cfg.grid)
    field = cfg.incident_field
    curl = curl_condition(field, cfg.grid, cfg.tolerances["curl"])
    if _refused(args, cfg, "curl_condition", curl, "curl condition failed"):
        return EXIT_DOMAIN
    mid = farfield.midfield_general(field, cfg.surface, cfg.constants, cfg.grid)
    det_check = farfield.sufficient_det_general(
        field, cfg.surface, cfg.constants, _x0(cfg)
    )
    report = _verify_and_write(args, cfg, field, mid, cfg.surface, det_check,
                               samples, {"curl_condition": curl})
    print(f"max exit-direction error "
          f"{report.aggregates['max_direction_error']:.3e}")
    return EXIT_OK if curl.passed and det_check.passed else EXIT_DOMAIN


def cmd_trace(args):
    try:
        lens, constants = io.load_lens(args.design, _mode(args))
    except FileNotFoundError as exc:
        raise ConfigError(f"design artifact not found: {exc.filename}") from exc
    samples = _trace_samples(lens.grid)
    report = _trace_to_files(args, lens, vertical(), constants, samples,
                             Path(args.out or args.design))
    print(f"traced {len(report)} rays; aggregates: {report.aggregates}")
    return EXIT_OK


def cmd_plot2d(args):
    cfg = DesignConfig.from_file(args.config)
    if cfg.alphas is None:
        raise ConfigError("plot2d requires an 'alphas' list")
    if cfg.z0 is None:
        raise ConfigError("plot2d requires 'z0'")
    t_range = cfg.t_range or (-1.0, 1.0)
    step = 1e-3 if cfg.step is None else cfg.step
    files = {f"profile_alpha_{alpha:+g}.csv": alpha for alpha in cfg.alphas}
    if len(files) < len(cfg.alphas):
        raise ConfigError(f"alphas {cfg.alphas} name only {len(files)} "
                          f"distinct files profile_alpha_{{alpha:+g}}.csv")
    out = _out_dir(args, cfg)
    failures = []
    for name, alpha in files.items():
        try:
            t, rho = imaging.solve_rho_2d(
                lambda tt, alpha=alpha: alpha * tt,
                cfg.constants, t_range, cfg.z0, step,
            )
        except HybridLensError as exc:
            failures.append((alpha, str(exc)))
            continue
        io.write_csv(out / name, ["t", "rho"], [t, rho])
    if failures:
        for alpha, msg in failures:
            print(f"alpha = {alpha}: {msg}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"wrote {len(cfg.alphas)} profile curves to {out}")
    return EXIT_OK


def cmd_lemma_check(args):
    cfg = DesignConfig.from_file(args.config)
    tol = 1e-11 if args.tol is None else read_tolerance(args.tol, "--tol")
    kappa1 = cfg.constants.kappa1
    radius = 0.95 * np.sqrt(kappa1**2 - 1.0)
    n = 1000
    # uniform in the square, kept in the disc: about 1570 of these 2000
    y = np.random.default_rng(0).uniform(-radius, radius, (2 * n, 2))
    y = y[np.linalg.norm(y, axis=-1) <= radius][:n]
    worst = float(np.max(imaging.lemma_identity_check(y, kappa1)))
    out = _out_dir(args, cfg)
    io.write_json(
        out / "lemma_report.json",
        {"kappa1": kappa1, "samples": n, "max_residual": worst, "tol": tol},
    )
    print(f"max factorization residual over {n} samples: {worst:.3e}")
    return EXIT_OK if worst <= tol else EXIT_DOMAIN


#: Each flag of the CLI, and the flags each command reads.
FLAGS = {
    "--config": dict(required=True, help="JSON config path"),
    "--design": dict(required=True, help="directory with design artifacts"),
    "--out": dict(default=None, help="output directory"),
    "--grid": dict(type=int, default=None,
                   help="override the grid's nodes per axis"),
    "--tol": dict(type=float, default=None,
                  help="override the tolerance of the checks"),
    "--force": dict(action="store_true",
                    help="proceed despite failed pre-checks"),
    "--gradient-mode": dict(choices=["analytic", "fd"], default="fd",
                            help="phase gradient for verification tracing: "
                                 "finite differences of the interpolated "
                                 "phase (default) or the stored gradient at "
                                 "the nearest node"),
}
_DESIGN_FLAGS = ("--config", "--out", "--grid", "--force", "--gradient-mode")
COMMANDS = {
    "check": (cmd_check, ("--config", "--out", "--grid", "--tol")),
    "design-imaging": (cmd_design_imaging, _DESIGN_FLAGS),
    "design-farfield": (cmd_design_farfield, _DESIGN_FLAGS),
    "trace": (cmd_trace, ("--design", "--out", "--gradient-mode")),
    "plot2d": (cmd_plot2d, ("--config", "--out")),
    "lemma-check": (cmd_lemma_check, ("--config", "--out", "--tol")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridlens",
        description="Design and verify hybrid freeform/metasurface lenses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HybridLensError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
