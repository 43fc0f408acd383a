"""Independent ray-trace verification of a constructed lens.

Each ray is propagated from the source plane through the lower face
(standard refraction), across the lens to the metasurface (generalized
refraction with the stored phase), and on to the target plane; the
report compares exit directions with (0,0,1) and landings with the
prescribed image points.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .farfield import PhaseMap, intersect_ray
from .geometry import Grid2D
from .maps import TargetMap
from .snell import refract_metasurface, refract_standard
from .splines import GRADIENT, GridSpline
from .surfaces import Surface, from_design

VERTICAL = np.array([0.0, 0.0, 1.0])
#: The ``PhaseMap`` fields that a trace in each gradient mode reads.
PHASE_FIELDS = {"analytic": ("grad_tan",), "fd_phase": ("Q", "phi")}


@dataclass(frozen=True)
class TraceableLens:
    """A lens ready for tracing: lower face, phase map, and design grid.

    The lens is frozen.  Its ``fd_phase`` spline (phi, Q1 and Q2 as one
    three-column fit) is fit on its first ``fd_phase`` trace and reused
    by every later one; ``analytic`` traces never fit it.
    """

    surface: Surface
    phase: PhaseMap
    grid: Grid2D
    target_map: Optional[TargetMap] = None

    @staticmethod
    def from_design(design, phase):
        return TraceableLens(
            surface=from_design(design),
            phase=phase,
            grid=design.grid,
            target_map=design.target_map,
        )

    @cached_property
    def _fd_phase_gradient(self):
        # Holds the spline, not the lens: with no reference cycle a lens
        # is freed as soon as its last reference goes.
        return _PhaseGradient(self.grid, self.phase)

    def phase_gradient(self, mode):
        """The tangential phase gradient of ``mode``: a function from (n, 2)
        samples to (n, 2) gradients.  "analytic" takes the stored gradient
        at the nearest design node, "fd_phase" differentiates the
        interpolated phase samples.  A mode whose phase fields are None
        (see ``io.load_lens``) raises ``ValueError`` naming them."""
        if mode not in PHASE_FIELDS:
            raise ValueError(f"unknown gradient mode {mode!r}")
        missing = [name for name in PHASE_FIELDS[mode]
                   if getattr(self.phase, name) is None]
        if missing:
            raise ValueError(f"gradient mode {mode!r} needs the phase's "
                             f"{' and '.join(missing)}, which were not loaded")
        if mode == "analytic":
            return lambda x: self.phase.grad_tan[self.grid.nearest_index(x)]
        return self._fd_phase_gradient


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
    """Numeric phase gradient for a batch of rays.

    It never touches the stored tangential gradient: the phase and the
    footprint samples (phi, Q1, Q2) are fit as one three-column spline
    over the design grid and the surface gradient is recovered through
    the chain rule grad_Q(phi) = (DQ)^-T grad_x(phi(Q(x))).
    """

    def __init__(self, grid, phase):
        order = min(5, grid.shape[0] - 1, grid.shape[1] - 1)
        self._spline = GridSpline(
            grid, np.concatenate([phase.phi[..., None], phase.Q], axis=-1), order)

    def __call__(self, x_samples):
        """(n, 2) tangential gradients at the rays started from ``x_samples``."""
        # d/dx1 and d/dx2 of (phi, Q1, Q2), each (n, 3)
        d1, d2 = self._spline(x_samples, *GRADIENT)
        gx = np.stack([d1[:, 0], d2[:, 0]], axis=-1)
        jac_t = np.stack([d1[:, 1:], d2[:, 1:]], axis=1)  # (DQ)^T per ray
        return np.linalg.solve(jac_t, gx[..., None])[..., 0]


def trace_through(lens, incident_field, constants, samples,
                  gradient_mode="analytic"):
    """Trace rays from the given source samples through the lens.

    All rays go through each step together, as (n, 2) and (n, 3) arrays.
    ``gradient_mode`` selects the stored tangential gradient at the
    nearest design node ("analytic") or finite differences of the
    interpolated phase samples ("fd_phase").  Samples outside the design
    box are counted in ``aggregates["outside_patch"]`` and traced through
    splines that clamp each coordinate to the box: outside it, the face
    and the phase take the values and derivatives of the nearest point
    of the box; nothing is extrapolated.
    """
    k1, k2 = constants.kappa1, constants.kappa2
    a, c = constants.a, constants.c
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    grad_phi = lens.phase_gradient(gradient_mode)
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

