"""The benchmark's workloads: configurations, ray sets and the stages of
one round.

Every workload runs the same four stages in each round, so that every
end-to-end metric is measured in every workload; the workloads differ
in the sizes of the stages, and the name of each workload is its
dominant stage:

* ``design-imaging`` through ``hybridlens.cli.main`` (``design_imaging_s``),
* ``trace --gradient-mode fd`` on its artifacts (``retrace_s``),
* ``design-farfield --gradient-mode fd`` (``design_farfield_s``),
* ``raytrace.trace_through`` on a lens built in set-up, once per
  gradient mode (``trace_*_rays_per_s``, ``landing_error_fd_max``).

A metric is compared only within one workload: a stage that is not
the workload's own runs at a small size (31^2 designs, a 61^2 lens),
which bypasses the hot paths of the dominant stage.

Each stage time is recorded twice: as measured (``raw:<metric>``) and
scaled to the nominal machine speed by the reference runs that bracket
the stage (``<metric>``; see ``reference.py``).
"""

import contextlib
import io as text_io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference

ALPHA = 0.2
CONSTANTS = {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 1.0, "c": 1.5}
KAPPA1 = CONSTANTS["n2"] / CONSTANTS["n1"]
IMAGING_HALF_WIDTH = 0.7
FARFIELD_HALF_WIDTH = 0.5
FARFIELD_SOURCE = [0.0, 0.0, -5.0]
FARFIELD_FACE = [[0.5, 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]
#: Rays start in the disc of this radius, inside the +-0.7 design box.
RAY_DISC_RADIUS = 0.6
#: Rays traced per gradient mode in every round of every workload.
RAYS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    imaging_n: int      # grid of the CLI design-imaging and its re-trace
    farfield_n: int     # grid of the CLI design-farfield
    lens_n: int         # grid of the in-process lens of the trace stage
    analytic_offnode: bool  # analytic rays at fixed cell centres, else at
                            # seeded grid nodes


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "imaging-201",
            "near-field design at the README's 201^2: per-node admissibility "
            "loop, solve_rho and about 9 MB of CSV written and read back",
            imaging_n=201, farfield_n=31, lens_n=61, analytic_offnode=False,
        ),
        Workload(
            "farfield-point-101",
            "far-field design for a point source at 101^2: one brentq "
            "intersection and one scalar refraction per node, curl loop",
            imaging_n=31, farfield_n=101, lens_n=61, analytic_offnode=False,
        ),
        Workload(
            "trace-offnode-201",
            "per-ray tracing through a 201^2 lens from points between grid "
            "nodes, where spline evaluation and scalar snell calls dominate",
            imaging_n=31, farfield_n=31, lens_n=201, analytic_offnode=True,
        ),
    ]
}


def imaging_config(n):
    h = IMAGING_HALF_WIDTH
    return {
        "constants": CONSTANTS,
        "map": {"name": "dilation", "params": {"alpha": ALPHA}},
        "grid": {"box": [[-h, h], [-h, h]], "n": n},
        "x0": [0.0, 0.0],
    }


def farfield_config(n):
    h = FARFIELD_HALF_WIDTH
    return {
        "constants": CONSTANTS,
        "field": {"name": "point_source", "params": {"source": FARFIELD_SOURCE}},
        "surface": {"name": "polynomial", "params": {"coeffs": FARFIELD_FACE}},
        "grid": {"box": [[-h, h], [-h, h]], "n": n},
    }


def disc_rays(rng, count):
    """Uniform draws from the disc of radius ``RAY_DISC_RADIUS``."""
    r = RAY_DISC_RADIUS * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def cell_centre_rays(x1, x2, count):
    """``count`` distinct cell centres spread evenly over the disc.

    A sunflower spiral, snapped to the centre of the cell it falls in;
    it does not depend on the seed, so the analytic-mode fault (the
    stored gradient of the nearest node) shows on the same rays in
    every run.
    """
    k = np.arange(count) + 0.5
    h = max(x1[1] - x1[0], x2[1] - x2[0])
    r = (RAY_DISC_RADIUS - h) * np.sqrt(k / count)
    theta = k * math.pi * (3.0 - math.sqrt(5.0))
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    i = np.clip(np.searchsorted(x1, pts[:, 0]) - 1, 0, x1.size - 2)
    j = np.clip(np.searchsorted(x2, pts[:, 1]) - 1, 0, x2.size - 2)
    centres = np.column_stack([0.5 * (x1[i] + x1[i + 1]), 0.5 * (x2[j] + x2[j + 1])])
    if len(np.unique(centres, axis=0)) != count:
        raise ValueError("cell-centre rays are not distinct; use a finer grid")
    return centres


def node_rays(rng, x1, x2, count):
    """``count`` distinct grid nodes in the disc, chosen by ``rng``."""
    n1, n2 = np.meshgrid(x1, x2, indexing="ij")
    nodes = np.column_stack([n1.ravel(), n2.ravel()])
    nodes = nodes[np.hypot(nodes[:, 0], nodes[:, 1]) <= RAY_DISC_RADIUS]
    return nodes[np.sort(rng.choice(len(nodes), size=count, replace=False))]


class Record:
    """Operations, failures and metric samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []      # failed checks outside the known fault
        self.samples = {}     # metric -> one value per round

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def add_time(self, metric, timing, per=None):
        """Record a stage's ``(seconds, scaled seconds)`` under ``metric``
        (the scaled value) and ``raw:metric``; with ``per`` given, record
        ``per`` divided by each time instead."""
        raw, norm = timing if per is None else (per / timing[0], per / timing[1])
        self.add(metric, norm)
        self.add("raw:" + metric, raw)

    def operation(self, label, check_list):
        """Count one operation; it fails if any of its checks fails."""
        self.attempted += 1
        bad = [c for c in check_list if not c.passed]
        if bad:
            self.failed += 1
            self.errors += [f"{label}: {c.describe()}" for c in bad]

    def crashed(self, label, count, message):
        self.attempted += count
        self.failed += count
        self.errors.append(f"{label}: {message}")


def build_lens(hl, cfg):
    """The imaging design of ``cfg`` and its lens, built in process."""
    report = hl.imaging.thickness_check(cfg.target_map, cfg.constants, cfg.grid)
    design = hl.imaging.solve_rho(cfg.target_map, cfg.constants, cfg.grid, cfg.x0)
    verdict = hl.imaging.existence_verdict(design)
    if not (report.passed and verdict.passed):
        raise RuntimeError(f"lens design rejected: {report.details}; "
                           f"{verdict.details}")
    mid = hl.farfield.midfield_vertical(cfg.grid, design.rho, design.drho,
                                        cfg.constants)
    phase = hl.farfield.build_phase(hl.fields.vertical(), mid, cfg.constants)
    return hl.raytrace.TraceableLens.from_design(design, phase)


class Session:
    """Set-up state of one run and the stages of one round.

    While ``tracer`` is set, each CLI command runs inside a
    ``cli.<command>`` span of it.
    """

    def __init__(self, hl, workload, seed, work_dir):
        self.hl = hl
        self.workload = workload
        self.work = Path(work_dir)
        self.tracer = None
        self.work.mkdir(parents=True, exist_ok=True)
        self.imaging_cfg, _ = self._config("imaging.json",
                                           imaging_config(workload.imaging_n))
        self.farfield_cfg, _ = self._config("farfield.json",
                                            farfield_config(workload.farfield_n))
        _, lens_cfg = self._config("lens.json", imaging_config(workload.lens_n))
        self.lens = build_lens(hl, lens_cfg)
        self.constants = lens_cfg.constants
        grid = self.lens.grid
        rng = np.random.default_rng(seed)
        self.fd_rays = disc_rays(rng, RAYS)
        if workload.analytic_offnode:
            self.analytic_rays = cell_centre_rays(grid.x1, grid.x2, RAYS)
        else:
            self.analytic_rays = node_rays(rng, grid.x1, grid.x2, RAYS)

    def _config(self, name, raw):
        """Write a config for the CLI; parsing it here rejects a bad one
        before any timing starts."""
        path = self.work / name
        path.write_text(json.dumps(raw))
        return path, self.hl.config.DesignConfig.from_file(path)

    def _cli(self, command, args):
        """Run one CLI command; returns (exit code, timing, captured
        output), the timing being (seconds, scaled seconds)."""
        out = text_io.StringIO()
        span = (self.tracer.span(f"cli.{command}") if self.tracer is not None
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            before = reference.sample()
            t0 = perf_counter()
            try:
                with span:
                    code = self.hl.cli.main([command] + args)
            except Exception:  # a crash is a failed operation, not the end
                code = "crash"
                traceback.print_exc(file=out)
            seconds = perf_counter() - t0
            after = reference.sample()
        return code, (seconds, reference.scaled(seconds, before, after)), out.getvalue()

    def run_round(self, rec):
        self.stage_imaging(rec)
        self.stage_farfield(rec)
        self.stage_trace(rec)

    def stage_imaging(self, rec):
        design_dir = self.work / "imaging"
        retrace_dir = self.work / "retrace"
        code, timing, text = self._cli(
            "design-imaging",
            ["--config", str(self.imaging_cfg), "--out", str(design_dir)])
        if code != 0:
            rec.crashed("design-imaging", 2, f"exit {code}: {text.strip()}")
            return
        rec.add_time("design_imaging_s", timing)
        rho = checks.read_csv(design_dir / "rho.csv")
        phase = checks.read_csv(design_dir / "phase.csv")
        rec.operation("design-imaging", [
            checks.footprint(rho, phase, ALPHA),
            checks.z_row(rho, ALPHA, KAPPA1),
        ])
        code, timing, text = self._cli(
            "trace", ["--design", str(design_dir), "--out", str(retrace_dir),
                      "--gradient-mode", "fd"])
        if code != 0:
            rec.crashed("trace", 1, f"exit {code}: {text.strip()}")
            return
        rec.add_time("retrace_s", timing)
        rec.operation("trace", [checks.retrace(
            checks.read_csv(retrace_dir / "trace_report.csv"), ALPHA)])

    def stage_farfield(self, rec):
        out_dir = self.work / "farfield"
        code, timing, text = self._cli(
            "design-farfield",
            ["--config", str(self.farfield_cfg), "--out", str(out_dir),
             "--gradient-mode", "fd"])
        if code != 0:
            rec.crashed("design-farfield", 1, f"exit {code}: {text.strip()}")
            return
        rec.add_time("design_farfield_s", timing)
        n = self.workload.farfield_n
        h = 2.0 * FARFIELD_HALF_WIDTH / (n - 1)
        rec.operation("design-farfield", [
            checks.farfield_verdict(json.loads((out_dir / "verdict.json").read_text())),
            checks.exit_vertical(checks.read_csv(out_dir / "trace_report.csv")),
            checks.phase_gradient(checks.read_csv(out_dir / "phase.csv"),
                                  (n, n), (h, h)),
        ])

    def stage_trace(self, rec):
        hl = self.hl
        for mode, rays, metric in [
            ("analytic", self.analytic_rays, "trace_analytic_rays_per_s"),
            ("fd_phase", self.fd_rays, "trace_fd_rays_per_s"),
        ]:
            label = f"trace_through[{mode}]"
            before = reference.sample()
            t0 = perf_counter()
            try:
                report = hl.raytrace.trace_through(
                    self.lens, hl.fields.vertical(), self.constants, rays,
                    gradient_mode=mode)
            except Exception:  # every ray of the batch fails
                rec.crashed(label, len(rays), traceback.format_exc())
                continue
            seconds = perf_counter() - t0
            after = reference.sample()
            rec.add_time(metric, (seconds, reference.scaled(seconds, before, after)),
                         per=len(rays))
            land = checks.landing_errors(rays, report.landings, ALPHA)
            unit = checks.unit_errors(report.exit_directions)
            if mode == "fd_phase":
                rec.add("landing_error_fd_max", float(np.max(land)))
            missed = ~(land <= checks.LANDING_TOL)
            rec.attempted += len(rays)
            rec.failed += int(np.count_nonzero(missed | ~(unit <= checks.UNIT_TOL)))
            # The one kept fault: in analytic mode the stored gradient of
            # the nearest node is used, so rays between nodes miss by O(h).
            known_fault = mode == "analytic" and self.workload.analytic_offnode
            if missed.any() and not known_fault:
                rec.errors.append(f"{label}: {np.count_nonzero(missed)} rays land "
                                  f"over {checks.LANDING_TOL:g} off, worst "
                                  f"{np.max(land):.3e}")
            if not (unit <= checks.UNIT_TOL).all():
                rec.errors.append(f"{label}: exit direction not unit, worst "
                                  f"{np.max(unit):.3e}")
