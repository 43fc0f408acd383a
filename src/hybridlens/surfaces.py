"""Lower-face surface representations: analytic graphs and spline fits."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import batch_eval, fd_gradient, fd_hessian, mat2
from .splines import GRADIENT, HESSIAN, GridSpline


_poly = np.polynomial.polynomial


@dataclass(frozen=True)
class Surface:
    """Graph surface x3 = r(x1, x2) with optional analytic derivatives.

    ``value``, ``grad`` and ``hess`` map points (..., 2) to r (...), its
    gradient (..., 2) and its Hessian (..., 2, 2); a single point is
    the batch ``()``.  Without ``grad`` or ``hess`` the derivatives are
    central differences of ``value`` at the default step.
    """

    name: str
    value: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def height(self, x):
        """r(x): a float for a point (2,), an (n,) array for (n, 2)."""
        x = np.asarray(x, dtype=float)
        r = self.value(x)
        return float(r) if x.ndim == 1 else np.asarray(r, dtype=float)

    def gradient(self, x):
        """Dr(x): (2,) for a point, (n, 2) for a batch of points."""
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return batch_eval(self.grad, x, (2,), f"surface {self.name!r} grad")
        return fd_gradient(self.value, x)

    def hessian(self, x):
        """D^2 r(x): (2, 2) for a point, (n, 2, 2) for a batch of points."""
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            return batch_eval(self.hess, x, (2, 2), f"surface {self.name!r} hess")
        return fd_hessian(self.value, x)

    def normal(self, x):
        """Unit normal with positive vertical component: (3,) for a point,
        (n, 3) for a batch of points."""
        g = self.gradient(x)
        n = np.empty(g.shape[:-1] + (3,))
        n[..., :2] = -g
        n[..., 2] = 1.0
        return n / np.linalg.norm(n, axis=-1, keepdims=True)


def flat(r0):
    r0 = float(r0)
    return Surface(
        name="flat",
        value=lambda x: np.full(x.shape[:-1], r0),
        grad=lambda x: np.zeros(x.shape),
        hess=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
    )


def polynomial(coeffs):
    """r(x) = sum c_{ij} x1^i x2^j for a dict {(i, j): c} or nested list."""
    if isinstance(coeffs, dict):
        imax = max(i for i, _ in coeffs) + 1
        jmax = max(j for _, j in coeffs) + 1
        c = np.zeros((imax, jmax))
        for (i, j), v in coeffs.items():
            c[i, j] = v
    else:
        c = np.asarray(coeffs, dtype=float)

    def der(cc, axis):
        return _poly.polyder(cc, axis=axis) if cc.shape[axis] > 1 else np.zeros((1, 1))

    c1, c2 = der(c, 0), der(c, 1)
    c11, c12, c22 = der(c1, 0), der(c1, 1), der(c2, 1)

    def ev(cc, x):
        return _poly.polyval2d(x[..., 0], x[..., 1], cc)

    return Surface(
        name="polynomial",
        value=lambda x: ev(c, x),
        grad=lambda x: np.stack([ev(c1, x), ev(c2, x)], axis=-1),
        hess=lambda x: mat2(ev(c11, x), ev(c12, x), ev(c12, x), ev(c22, x)),
    )


def from_design(design, order=3):
    """Spline fit of a solved lens design (C^1 normals between cells)."""
    return from_grid(design.grid, design.rho, order=order)


def from_grid(grid, rho, order=3):
    """Interpolating spline through the heights ``rho`` on ``grid``; a
    point outside the grid's box takes the value and derivatives of the
    nearest point of the box (see ``splines``)."""
    sp = GridSpline(grid, rho, order)

    def hess(x):
        h11, h12, h22 = sp(x, *HESSIAN)
        return mat2(h11, h12, h12, h22)

    return Surface(
        name="spline",
        value=lambda x: sp(x)[0],
        grad=lambda x: np.stack(sp(x, *GRADIENT), axis=-1),
        hess=hess,
    )


BUILTIN_SURFACES = {
    "flat": lambda params: flat(**params),
    "polynomial": lambda params: polynomial(**params),
}
