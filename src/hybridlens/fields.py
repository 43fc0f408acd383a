"""Incident-field abstraction, the curl test, and potential recovery.

A field assigns to every source point x in the plane a unit direction
e(x) = (e'(x), e3(x)) with e3 > 0.  A collimated beam leaves the lens
along (0,0,1) only if e' is a gradient; ``curl_condition`` measures the
scalar curl of e' and ``recover_potential`` rebuilds h with grad h = e'.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotIntegrable
from .geometry import FDStencil, fd_jacobian, scalar_curl, staircase
from .reports import ConditionReport


@dataclass(frozen=True)
class IncidentField:
    """Unit direction field with optional analytic derivatives.

    ``e`` maps a point (2,) to a direction (3,); to be traced in batch
    (``midfield_general``, ``trace_through``) or integrated by
    ``recover_potential`` it also maps an (n, 2) array of points to
    (n, 3) directions, as the builtin fields do.
    ``jac`` is the 3x2 Jacobian of e; ``potential`` is h with grad h = e'
    when known in closed form; ``hess_potential`` is D^2 h.
    """

    name: str
    e: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    potential: Optional[Callable[[np.ndarray], float]] = None
    hess_potential: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def direction(self, x):
        x = np.asarray(x, dtype=float)
        e = np.asarray(self.e(x), dtype=float)
        if e.shape != x.shape[:-1] + (3,):
            raise ValueError(
                f"field {self.name!r} gave directions of shape {e.shape} "
                f"for points of shape {x.shape}"
            )
        return e

    def eprime(self, x):
        return self.direction(x)[..., :2]

    def jacobian(self, x, stencil=None):
        """3x2 Jacobian of e, analytic when available, else central FD."""
        x = np.asarray(x, dtype=float)
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        return fd_jacobian(self.e, x, stencil)

    def curl_eprime(self, x, stencil=None):
        if self.jac is not None:
            j = np.asarray(self.jac(np.asarray(x, dtype=float)), dtype=float)
            return j[1, 0] - j[0, 1]
        return scalar_curl(lambda u: self.e(u)[:2], x, stencil)


def vertical():
    """e = (0, 0, 1) everywhere."""
    return IncidentField(
        name="vertical",
        e=lambda x: np.broadcast_to([0.0, 0.0, 1.0], x.shape[:-1] + (3,)).copy(),
        jac=lambda x: np.zeros((3, 2)),
        potential=lambda x: 0.0,
        hess_potential=lambda x: np.zeros((2, 2)),
    )


def collimated(direction):
    """Constant unit field with positive vertical component."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if d[2] <= 0:
        raise ValueError("collimated field needs e3 > 0")
    return IncidentField(
        name="collimated",
        e=lambda x, d=d: np.broadcast_to(d, x.shape[:-1] + (3,)).copy(),
        jac=lambda x: np.zeros((3, 2)),
        potential=lambda x, d=d: d[0] * x[0] + d[1] * x[1],
        hess_potential=lambda x: np.zeros((2, 2)),
    )


def point_source(source):
    """Rays emitted from a point R strictly below the source plane.

    e(x) = ((x,0) - R)/|(x,0) - R| and e' = grad |(x,0) - R|, so the
    curl condition holds identically.
    """
    r = np.asarray(source, dtype=float)
    if r[2] >= 0:
        raise ValueError("point source must lie below the plane {x3 = 0}")

    def evaluate(x):
        w = np.empty(x.shape[:-1] + (3,))
        w[..., :2] = x - r[:2]
        w[..., 2] = -r[2]
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    def jac(x):
        u = np.array([x[0] - r[0], x[1] - r[1]])
        ell = np.hypot(np.hypot(u[0], u[1]), -r[2])
        j = np.zeros((3, 2))
        j[:2, :] = np.eye(2) / ell - np.outer(u, u) / ell**3
        j[2, :] = r[2] * u / ell**3
        return j

    def h(x):
        return float(np.hypot(np.hypot(x[0] - r[0], x[1] - r[1]), -r[2]))

    def d2h(x):
        j = jac(x)
        return np.array(j[:2, :])

    return IncidentField(
        name="point_source", e=evaluate, jac=jac, potential=h, hess_potential=d2h
    )


def curl_condition(field, grid, tol, stencil=None):
    """Max |curl e'| over the grid; passes iff below ``tol``."""
    worst = 0.0
    worst_node = None
    if stencil is None and field.jac is None:
        stencil = FDStencil(
            h1=max(1e-5, 0.01 * grid.spacing[0]),
            h2=max(1e-5, 0.01 * grid.spacing[1]),
        )
    for x in grid.nodes():
        c = abs(field.curl_eprime(x, stencil))
        if c > worst:
            worst, worst_node = c, x
    return ConditionReport(
        name="curl_condition",
        passed=worst <= tol,
        margins={"max_abs_curl": worst, "tol": tol},
        details=f"max |curl e'| = {worst:.3e}"
        + (f" at {tuple(worst_node)}" if worst_node is not None else ""),
    )


def recover_potential(field, grid, basepoint, tol=None):
    """Line-integrate e' along staircase paths to rebuild h, h(basepoint)=0.

    Integrates x1 then x2 and x2 then x1 (RK4 on a slope that ignores
    the state, i.e. Simpson's rule, with one batched field call per
    stage), returns their mean and reports the worst disagreement as
    the path-independence residual.
    """
    anchor = grid.nearest_index(basepoint)
    if tol is None:
        tol = 1e-6 * grid.diameter

    def slope(x, z):
        return field.eprime(x)

    h_row, h_col = (staircase(grid, anchor, 0.0, slope, axis) for axis in (0, 1))
    residual = float(np.max(np.abs(h_row - h_col)))
    if residual > 10.0 * tol:
        raise NotIntegrable(
            f"staircase paths disagree by {residual:.3e} > {10 * tol:.3e}"
        )
    return 0.5 * (h_row + h_col), residual
