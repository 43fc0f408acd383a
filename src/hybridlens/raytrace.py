"""Independent ray-trace verification of a constructed lens.

Each ray is propagated from the source plane through the lower face
(standard refraction), across the lens to the metasurface (generalized
refraction with the stored phase), and on to the target plane; the
report compares exit directions with (0,0,1) and landings with the
prescribed image points.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .farfield import PhaseMap, intersect_ray
from .geometry import Grid2D
from .maps import TargetMap
from .snell import refract_metasurface, refract_standard
from .surfaces import Surface, from_design

VERTICAL = np.array([0.0, 0.0, 1.0])


@dataclass
class TraceableLens:
    """A lens ready for tracing: lower face, phase map, and design grid."""

    surface: Surface
    phase: PhaseMap
    grid: Grid2D
    target_map: Optional[TargetMap] = None

    @staticmethod
    def from_design(design, phase, spline_order=3):
        return TraceableLens(
            surface=from_design(design, order=spline_order),
            phase=phase,
            grid=design.grid,
            target_map=design.target_map,
        )


@dataclass
class TraceReport:
    """Per-ray records plus error aggregates."""

    samples: np.ndarray       # (n, 2)
    hits: np.ndarray          # (n, 3) on the lower face
    mid_directions: np.ndarray  # (n, 3) in medium II
    meta_points: np.ndarray   # (n, 2) on {x3 = a}
    exit_directions: np.ndarray  # (n, 3)
    landings: np.ndarray      # (n, 2) on {x3 = c}
    targets: Optional[np.ndarray] = None
    aggregates: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        dir_err = np.linalg.norm(self.exit_directions - VERTICAL, axis=1)
        self.aggregates["max_direction_error"] = float(np.max(dir_err))
        self.aggregates["mean_direction_error"] = float(np.mean(dir_err))
        if self.targets is not None:
            land_err = np.linalg.norm(self.landings - self.targets, axis=1)
            self.aggregates["max_landing_error"] = float(np.max(land_err))
            self.aggregates["mean_landing_error"] = float(np.mean(land_err))

    def __len__(self):
        return self.samples.shape[0]


class _PhaseGradient:
    """Phase-gradient lookup for a batch of rays: stored analytic samples
    or numeric differentiation of the interpolated phase samples.

    The numeric route never touches the stored tangential gradient: the
    phase and footprint samples are fit with splines over the design
    grid and the surface gradient is recovered through the chain rule
    grad_Q(phi) = (DQ)^-T grad_x(phi(Q(x))).
    """

    def __init__(self, lens, mode):
        self.lens = lens
        self.mode = mode
        if mode == "fd_phase":
            g = lens.grid
            order = min(5, g.shape[0] - 1, g.shape[1] - 1)
            mk = lambda z: RectBivariateSpline(g.x1, g.x2, z, kx=order, ky=order)
            self._phi = mk(lens.phase.phi)
            self._q1 = mk(lens.phase.Q[..., 0])
            self._q2 = mk(lens.phase.Q[..., 1])
        elif mode != "analytic":
            raise ValueError(f"unknown gradient mode {mode!r}")

    def __call__(self, x_samples):
        """(n, 2) tangential gradients at the rays started from ``x_samples``."""
        if self.mode == "analytic":
            i, j = self.lens.grid.nearest_index(x_samples)
            return self.lens.phase.grad_tan[i, j]
        x1, x2 = x_samples[:, 0], x_samples[:, 1]
        d = lambda sp, dx, dy: sp.ev(x1, x2, dx=dx, dy=dy)
        gx = np.stack([d(self._phi, 1, 0), d(self._phi, 0, 1)], axis=-1)
        jac_t = np.empty((len(x1), 2, 2))  # (DQ)^T, row-major per ray
        jac_t[:, 0, 0] = d(self._q1, 1, 0)
        jac_t[:, 1, 0] = d(self._q1, 0, 1)
        jac_t[:, 0, 1] = d(self._q2, 1, 0)
        jac_t[:, 1, 1] = d(self._q2, 0, 1)
        return np.linalg.solve(jac_t, gx[..., None])[..., 0]


def trace_through(lens, incident_field, constants, samples,
                  gradient_mode="analytic"):
    """Trace rays from the given source samples through the lens.

    All rays go through each step together, as (n, 2) and (n, 3) arrays.
    ``gradient_mode`` selects the stored tangential gradient at the
    nearest design node ("analytic") or finite differences of the
    interpolated phase samples ("fd_phase").  Samples outside the design
    box are traced through the extrapolated splines and counted in
    ``aggregates["outside_patch"]``.
    """
    constants.require_lens_geometry()
    k1, k2 = constants.kappa1, constants.kappa2
    a, c = constants.a, constants.c
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    grad_phi = _PhaseGradient(lens, gradient_mode)
    n = samples.shape[0]

    # Own copy of farfield.ray_to_metasurface, so that the verifier does
    # not share code with the design it checks.
    e = incident_field.direction(samples)
    t = intersect_ray(lens.surface, samples, e, a)
    hits = np.empty((n, 3))
    hits[:, :2] = samples + t[:, None] * e[:, :2]
    hits[:, 2] = t * e[:, 2]
    nu = lens.surface.normal(hits[:, :2])
    mids = refract_standard(e, nu, k1).direction
    metas = hits[:, :2] + ((a - hits[:, 2]) / mids[:, 2])[:, None] * mids[:, :2]
    g3 = np.zeros((n, 3))
    g3[:, :2] = grad_phi(samples)
    exits = refract_metasurface(mids, VERTICAL, k2, g3, constants.k).direction
    lands = metas + ((c - a) / exits[:, 2])[:, None] * exits[:, :2]

    (lo1, hi1), (lo2, hi2) = lens.grid.box
    outside = ((samples[:, 0] < lo1) | (samples[:, 0] > hi1)
               | (samples[:, 1] < lo2) | (samples[:, 1] > hi2))
    targets = None
    if lens.target_map is not None:
        targets = lens.target_map.target(samples)
    return TraceReport(
        samples=samples,
        hits=hits,
        mid_directions=mids,
        meta_points=metas,
        exit_directions=exits,
        landings=lands,
        targets=targets,
        aggregates={"outside_patch": int(np.count_nonzero(outside))},
    )


def spot_diagram(report):
    """Landing-point scatter with error quantiles, CSV-ready."""
    if len(report) == 0:
        raise ValueError("empty report")
    ref = report.targets if report.targets is not None else report.landings.mean(
        axis=0
    )
    err = np.linalg.norm(report.landings - ref, axis=1)
    qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    return {
        "points": report.landings,
        "errors": err,
        "quantiles": {f"q{int(100 * q)}": float(np.quantile(err, q)) for q in qs},
        "spot_radius": float(np.max(err)),
    }
