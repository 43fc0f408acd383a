"""Incident-field abstraction, the curl test, and potential recovery.

A field assigns to every source point x in the plane a unit direction
e(x) = (e'(x), e3(x)) with e3 > 0.  A collimated beam leaves the lens
along (0,0,1) only if e' is a gradient; ``curl_condition`` measures the
scalar curl of e' and ``recover_potential`` rebuilds h with grad h = e'
for a field that gives no closed-form h.  Since grad h = e', D^2 h is
the e' rows of the Jacobian De, so no field supplies it separately.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotIntegrable
from .geometry import (
    FDStencil,
    batch_eval,
    constant_over,
    fd_jacobian,
    staircase,
)
from .reports import ConditionReport


@dataclass(frozen=True)
class IncidentField:
    """Unit direction field with optional analytic derivatives.

    Every callback takes points (..., 2), a single point being the
    batch ``()``: ``e`` gives directions (..., 3); ``jac``, the Jacobian
    of e, gives (..., 3, 2); ``potential``, h with grad h = e' when known
    in closed form, gives (...).  A callback that returns another shape
    makes the call that uses it raise ``ValueError``.
    """

    name: str
    e: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def direction(self, x):
        x = np.asarray(x, dtype=float)
        return batch_eval(self.e, x, (3,), f"field {self.name!r} e")

    def eprime(self, x):
        return self.direction(x)[..., :2]

    def jacobian(self, x, stencil=None):
        """Jacobian (..., 3, 2) of e, analytic when available, else
        central differences."""
        x = np.asarray(x, dtype=float)
        if self.jac is not None:
            return batch_eval(self.jac, x, (3, 2), f"field {self.name!r} jac")
        return fd_jacobian(self.direction, x, stencil)

    def curl_eprime(self, x, stencil=None):
        j = self.jacobian(x, stencil)
        return j[..., 1, 0] - j[..., 0, 1]


def vertical():
    """e = (0, 0, 1) everywhere."""
    return IncidentField(
        name="vertical",
        e=lambda x: constant_over(x, [0.0, 0.0, 1.0]),
        jac=lambda x: constant_over(x, np.zeros((3, 2))),
        potential=lambda x: constant_over(x, 0.0),
    )


def collimated(direction):
    """Constant unit field with positive vertical component."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if d[2] <= 0:
        raise ValueError("collimated field needs e3 > 0")
    return IncidentField(
        name="collimated",
        e=lambda x, d=d: constant_over(x, d),
        jac=lambda x: constant_over(x, np.zeros((3, 2))),
        potential=lambda x, d=d: d[0] * x[..., 0] + d[1] * x[..., 1],
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

    def h(x):
        return np.hypot(np.hypot(x[..., 0] - r[0], x[..., 1] - r[1]), -r[2])

    def jac(x):
        u = x - r[:2]
        ell = np.asarray(h(x))[..., None]
        # a power of arrays, never of numpy scalars, whose ** rounds
        # differently: one point then rounds as a batch row does
        ell3 = ell**3
        j = np.empty(x.shape[:-1] + (3, 2))
        j[..., :2, :] = (np.eye(2) / ell[..., None]
                         - (u[..., :, None] * u[..., None, :]) / ell3[..., None])
        j[..., 2, :] = r[2] * u / ell3
        return j

    return IncidentField(name="point_source", e=evaluate, jac=jac, potential=h)


def curl_condition(field, grid, tol):
    """Max |curl e'| over the grid nodes; passes iff below ``tol``, so a
    non-finite value at any node fails.  The details name the first node
    reaching the maximum, unless it is 0."""
    stencil = FDStencil(  # used only when the field has no jac
        h1=max(1e-5, 0.01 * grid.spacing[0]),
        h2=max(1e-5, 0.01 * grid.spacing[1]),
    )
    x = grid.nodes()
    curl = np.abs(field.curl_eprime(x, stencil))
    k = int(np.argmax(curl))  # the first maximum, or the first NaN
    worst = float(curl[k])
    return ConditionReport(
        name="curl_condition",
        passed=worst <= tol,
        margins={"max_abs_curl": worst, "tol": tol},
        details=f"max |curl e'| = {worst:.3e}"
        + (f" at {tuple(x[k].tolist())}" if worst != 0.0 else ""),
    )


def recover_potential(field, grid, basepoint, tol=None):
    """Line-integrate e' along staircase paths to rebuild h, h(basepoint)=0.

    One ``staircase`` call integrates x1 then x2 and x2 then x1 (RK4 on
    a slope that ignores the state, i.e. Simpson's rule, with one
    batched field call per stage of each sweep), returns their mean and
    reports the worst disagreement as the path-independence residual.
    """
    anchor = grid.nearest_index(basepoint)
    if tol is None:
        tol = 1e-6 * grid.diameter

    def slope(x, z):
        return field.eprime(x)

    h_row, h_col = staircase(grid, anchor, 0.0, slope)
    residual = float(np.max(np.abs(h_row - h_col)))
    if residual > 10.0 * tol:
        raise NotIntegrable(
            f"staircase paths disagree by {residual:.3e} > {10 * tol:.3e}"
        )
    return 0.5 * (h_row + h_col), residual
