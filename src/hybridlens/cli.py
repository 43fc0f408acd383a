"""Batch front-end: check -> solve -> build-phase -> trace -> report.

Exit codes: 0 all requested checks/designs pass, 1 a domain condition
fails or a solver error occurs, 2 usage or configuration error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import farfield, imaging, io, raytrace
from .config import DesignConfig
from .errors import ConfigError, HybridLensError
from .fields import curl_condition, recover_potential
from .maps import admissibility
from .reports import combine
from .surfaces import from_design

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2


def _out_dir(args, cfg):
    out = args.out or cfg.output_dir or "out"
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _load_config(args):
    cfg = DesignConfig.from_file(args.config)
    if args.grid is not None and cfg.grid is not None:
        (b1, b2) = cfg.grid.box
        from .geometry import Grid2D

        cfg.grid = Grid2D.from_box((b1, b2), args.grid)
    return cfg


def _mode(args):
    return "fd_phase" if args.gradient_mode == "fd" else args.gradient_mode


def _run_checks(cfg, tol_override=None):
    reports = []
    tols = dict(cfg.tolerances)
    if tol_override is not None:
        tols = {k: tol_override for k in tols}
        tols["thickness"] = cfg.tolerances["thickness"]
    if cfg.target_map is not None and cfg.grid is not None:
        reports.append(admissibility(cfg.target_map, cfg.grid, tols["admissibility"]))
        reports.append(
            imaging.thickness_check(cfg.target_map, cfg.constants, cfg.grid)
        )
    if cfg.incident_field is not None and cfg.grid is not None:
        reports.append(curl_condition(cfg.incident_field, cfg.grid, tols["curl"]))
    return reports


def cmd_check(args):
    cfg = _load_config(args)
    if cfg.grid is None:
        raise ConfigError("check requires a 'grid' section")
    if cfg.target_map is None and cfg.incident_field is None:
        raise ConfigError("check requires a 'map' or 'field' section")
    reports = _run_checks(cfg, args.tol)
    summary = combine("check", reports)
    out = _out_dir(args, cfg)
    io.write_json(
        out / "check_report.json",
        {"summary": summary.to_dict(),
         "conditions": [r.to_dict() for r in reports]},
    )
    print(summary.details)
    return EXIT_OK if summary.passed else EXIT_DOMAIN


def _trace_samples(grid, margin_cells=5, limit=1024):
    """Interior node subsample for verification tracing."""
    n1, n2 = grid.shape
    ii = np.arange(margin_cells, n1 - margin_cells)
    jj = np.arange(margin_cells, n2 - margin_cells)
    stride = max(1, int(np.ceil(np.sqrt(ii.size * jj.size / limit))))
    pts = [grid.node(i, j) for i in ii[::stride] for j in jj[::stride]]
    return np.array(pts)


def cmd_design_imaging(args):
    cfg = _load_config(args)
    cfg.require("map", "grid")
    checks = _run_checks(cfg)
    pre = combine("pre_checks", checks)
    if not pre.passed and not args.force:
        out = _out_dir(args, cfg)
        io.write_json(out / "verdict.json", {"pre_checks": pre.to_dict()})
        print(f"pre-checks failed ({pre.details}); rerun with --force to proceed",
              file=sys.stderr)
        return EXIT_DOMAIN

    x0 = cfg.x0 if cfg.x0 is not None else np.array(
        [np.mean(cfg.grid.x1), np.mean(cfg.grid.x2)]
    )
    design = imaging.solve_rho(
        cfg.target_map, cfg.constants, cfg.grid, x0, cfg.z0
    )
    verdict = imaging.existence_verdict(design, tol=cfg.tolerances["verdict"])
    mid = farfield.midfield_vertical(
        cfg.grid, design.rho, design.drho, cfg.constants
    )
    det_check = farfield.sufficient_det_vertical(
        from_design(design), cfg.constants, design.x0
    )
    from .fields import vertical

    phase = farfield.build_phase(
        vertical(), mid, cfg.constants, check_condition=det_check
    )
    lens = raytrace.TraceableLens.from_design(design, phase)
    report = raytrace.trace_through(
        lens, vertical(), cfg.constants, _trace_samples(cfg.grid),
        gradient_mode=_mode(args),
    )

    out = _out_dir(args, cfg)
    io.design_to_files(design, out)
    io.phase_to_files(phase, out, cfg.constants)
    io.trace_report_to_files(report, out)
    io.write_json(
        out / "verdict.json",
        {
            "pre_checks": pre.to_dict(),
            "existence_verdict": verdict.to_dict(),
            "sufficient_det_vertical": det_check.to_dict(),
            "phase_warnings": list(phase.warnings),
        },
    )
    print(f"existence verdict: {'pass' if verdict.passed else 'fail'} "
          f"({verdict.details}); max landing error "
          f"{report.aggregates.get('max_landing_error'):.3e}")
    return EXIT_OK if verdict.passed and pre.passed else EXIT_DOMAIN


def cmd_design_farfield(args):
    cfg = _load_config(args)
    cfg.require("field", "surface", "grid")
    curl = curl_condition(cfg.incident_field, cfg.grid, cfg.tolerances["curl"])
    if not curl.passed and not args.force:
        out = _out_dir(args, cfg)
        io.write_json(out / "verdict.json", {"curl_condition": curl.to_dict()})
        print("curl condition failed; rerun with --force to proceed",
              file=sys.stderr)
        return EXIT_DOMAIN
    x0 = cfg.x0 if cfg.x0 is not None else np.array(
        [np.mean(cfg.grid.x1), np.mean(cfg.grid.x2)]
    )
    mid = farfield.midfield_general(
        cfg.incident_field, cfg.surface, cfg.constants, cfg.grid
    )
    det_check = farfield.sufficient_det_general(
        cfg.incident_field, cfg.surface, cfg.constants, x0
    )
    h_grid = None
    if cfg.incident_field.potential is None:
        h_grid, _ = recover_potential(cfg.incident_field, cfg.grid, x0)
    phase = farfield.build_phase(
        cfg.incident_field, mid, cfg.constants, h_grid=h_grid,
        check_condition=det_check,
    )
    lens = raytrace.TraceableLens(
        surface=cfg.surface, phase=phase, grid=cfg.grid, target_map=None
    )
    report = raytrace.trace_through(
        lens, cfg.incident_field, cfg.constants, _trace_samples(cfg.grid),
        gradient_mode=_mode(args),
    )
    out = _out_dir(args, cfg)
    io.phase_to_files(phase, out, cfg.constants)
    io.trace_report_to_files(report, out)
    io.write_json(
        out / "verdict.json",
        {
            "curl_condition": curl.to_dict(),
            "sufficient_det_general": det_check.to_dict(),
            "phase_warnings": list(phase.warnings),
        },
    )
    print(f"max exit-direction error "
          f"{report.aggregates['max_direction_error']:.3e}")
    return EXIT_OK if curl.passed and det_check.passed else EXIT_DOMAIN


def cmd_trace(args):
    design = io.load_design(args.design)
    phase = io.load_phase(args.design, design.grid.shape)
    lens = raytrace.TraceableLens.from_design(design, phase)
    from .fields import vertical

    n = args.grid or 0
    if n > 0:
        samples = _trace_samples(design.grid, limit=n * n)
    else:
        samples = _trace_samples(design.grid)
    report = raytrace.trace_through(
        lens, vertical(), design.constants, samples,
        gradient_mode=_mode(args),
    )
    out = Path(args.out or args.design)
    io.trace_report_to_files(report, out)
    print(f"traced {len(report)} rays; aggregates: {report.aggregates}")
    return EXIT_OK


def cmd_plot2d(args):
    cfg = _load_config(args)
    if cfg.alphas is None:
        raise ConfigError("plot2d requires an 'alphas' list")
    if cfg.z0 is None:
        raise ConfigError("plot2d requires 'z0'")
    t_range = cfg.t_range or (-1.0, 1.0)
    step = cfg.step or 1e-3
    out = _out_dir(args, cfg)
    failures = []
    for alpha in cfg.alphas:
        try:
            t, rho = imaging.solve_rho_2d(
                lambda tt, alpha=alpha: alpha * tt,
                cfg.constants, t_range, cfg.z0, step,
            )
        except HybridLensError as exc:
            failures.append((alpha, str(exc)))
            continue
        io.write_csv(out / f"profile_alpha_{alpha:+g}.csv", ["t", "rho"], [t, rho])
    if failures:
        for alpha, msg in failures:
            print(f"alpha = {alpha}: {msg}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"wrote {len(cfg.alphas)} profile curves to {out}")
    return EXIT_OK


def cmd_lemma_check(args):
    cfg = _load_config(args)
    kappa1 = cfg.constants.kappa1
    rng = np.random.default_rng(0)
    radius = 0.95 * np.sqrt(kappa1**2 - 1.0)
    worst = 0.0
    n = 1000
    count = 0
    while count < n:
        y = rng.uniform(-radius, radius, 2)
        if np.linalg.norm(y) > radius:
            continue
        worst = max(worst, imaging.lemma_identity_check(y, kappa1))
        count += 1
    tol = args.tol if args.tol is not None else 1e-11
    out = _out_dir(args, cfg)
    io.write_json(
        out / "lemma_report.json",
        {"kappa1": kappa1, "samples": n, "max_residual": worst, "tol": tol},
    )
    print(f"max factorization residual over {n} samples: {worst:.3e}")
    return EXIT_OK if worst <= tol else EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridlens",
        description="Design and verify hybrid freeform/metasurface lenses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check": cmd_check,
        "design-imaging": cmd_design_imaging,
        "design-farfield": cmd_design_farfield,
        "trace": cmd_trace,
        "plot2d": cmd_plot2d,
        "lemma-check": cmd_lemma_check,
    }
    for name, handler in commands.items():
        p = sub.add_parser(name)
        if name != "trace":
            p.add_argument("--config", required=True, help="JSON config path")
        else:
            p.add_argument("--design", required=True,
                           help="directory with design artifacts")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="override grid resolution")
        p.add_argument("--tol", type=float, default=None,
                       help="override check tolerances")
        p.add_argument("--force", action="store_true",
                       help="proceed despite failed pre-checks")
        p.add_argument("--gradient-mode", choices=["analytic", "fd"],
                       default="fd",
                       help="phase gradient for verification tracing: finite "
                            "differences of the interpolated phase (default) "
                            "or the stored gradient at the nearest node")
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
