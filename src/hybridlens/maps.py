"""Target maps for the imaging problem: S = T - I and its structure.

A map is admissible when curl S = 0 and S is parallel to the gradient
of |S|^2 wherever S != 0; these two conditions are exactly what makes
the lens PDE integrable.  At points with S != 0, S^t and its rotation
are then eigenvectors of DS; ``eigen_structure`` extracts the pair of
eigenvalues the non-singularity test needs.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NotEigenvector
from .geometry import (
    batch_eval,
    constant_over,
    cross2,
    fd_jacobian,
    perp,
)
from .reports import ConditionReport


@dataclass(frozen=True)
class FixedPoint:
    """Marker result of ``eigen_structure`` at a fixed point of T."""

    ds: np.ndarray


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of DS along S^t (zeta) and along S_perp^t (zeta_perp)."""

    zeta: float
    zeta_perp: float


@dataclass(frozen=True)
class TargetMap:
    """Planar target map T with displacement S = T - I.

    ``T`` maps points (..., 2) to targets (..., 2); ``jac_S``, the
    analytic Jacobian of S when available, maps them to (..., 2, 2).
    A single point is the batch ``()``.
    """

    name: str
    T: Callable[[np.ndarray], np.ndarray]
    jac_S: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = None

    def target(self, x):
        return np.asarray(self.T(np.asarray(x, dtype=float)), dtype=float)

    def S(self, x):
        x = np.asarray(x, dtype=float)
        return self.target(x) - x

    def DS(self, x):
        """DS (..., 2, 2) at points (..., 2): ``jac_S`` when given, else
        central differences of S at the default step."""
        x = np.asarray(x, dtype=float)
        if self.jac_S is not None:
            return batch_eval(self.jac_S, x, (2, 2), f"map {self.name!r} jac_S")
        return fd_jacobian(self.S, x)

    def grad_norm_sq(self, x):
        """D|S|^2 = 2 S DS by the chain rule (row-vector convention)."""
        s2 = 2.0 * self.S(x)
        # a stacked (1, 2) @ (2, 2) matmul rounds each row as s2 @ DS of
        # one point does
        return (s2[..., None, :] @ self.DS(x))[..., 0, :]

    def curl_S(self, x):
        ds = self.DS(x)
        return ds[..., 1, 0] - ds[..., 0, 1]


def identity():
    return TargetMap(name="identity", T=lambda x: np.array(x, dtype=float, copy=True),
                     jac_S=lambda x: constant_over(x, np.zeros((2, 2))),
                     params={})


def dilation(alpha):
    """T x = (1 + alpha) x; dilation for alpha > 0, contraction for -1 < alpha < 0."""
    if alpha == -1.0:
        raise ValueError("alpha = -1 collapses T to zero (not injective)")
    return TargetMap(
        name="dilation",
        T=lambda x: (1.0 + alpha) * np.asarray(x, dtype=float),
        jac_S=lambda x: constant_over(x, alpha * np.eye(2)),
        params={"alpha": alpha},
    )


def horizontal(h, hprime):
    """T x = (h(x1), x2) for an injective one-variable function h with
    derivative ``hprime``."""

    def T(x):
        x = np.asarray(x, dtype=float)
        out = np.array(x, copy=True)
        out[..., 0] = h(x[..., 0])
        return out

    def jac(x):
        j = np.zeros(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = hprime(x[..., 0]) - 1.0
        return j

    return TargetMap(name="horizontal", T=T, jac_S=jac, params={})


def eikonal_distance(gamma):
    """S = grad |x - gamma|, a unit-length gradient field (|S| = 1)."""
    g = np.asarray(gamma, dtype=float)
    if np.allclose(g, 0.0):
        raise ValueError("gamma must be nonzero so that 0 is in the domain")

    def T(x):
        x = np.asarray(x, dtype=float)
        u = x - g
        ell = np.linalg.norm(u, axis=-1, keepdims=True)
        return x + u / ell

    def jac(x):
        u = np.asarray(x, dtype=float) - g
        # |u|^2 by matmul, which rounds like np.dot(u, u) of one point
        ell = np.sqrt(u[..., None, :] @ u[..., :, None])
        return np.eye(2) / ell - (u[..., :, None] * u[..., None, :]) / ell**3

    return TargetMap(name="eikonal", T=T, jac_S=jac, params={"gamma": tuple(g)})


def rotation(alpha):
    """S = alpha (-x2, x1): curl S = 2 alpha, deliberately inadmissible."""

    def T(x):
        x = np.asarray(x, dtype=float)
        s = alpha * np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return x + s

    return TargetMap(
        name="rotation",
        T=T,
        jac_S=lambda x: constant_over(x, [[0.0, -alpha], [alpha, 0.0]]),
        params={"alpha": alpha},
    )


def horizontal_poly(coeffs):
    """Horizontal map with h given by polynomial coefficients, low order first."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)

    def h(t):
        return np.polynomial.polynomial.polyval(t, c)

    def hp(t):
        return np.polynomial.polynomial.polyval(t, dc)

    return replace(horizontal(h, hp), params={"coeffs": list(map(float, c))})


BUILTIN_MAPS = {
    "identity": lambda params: identity(),
    "dilation": lambda params: dilation(**params),
    "eikonal": lambda params: eikonal_distance(**params),
    "rotation": lambda params: rotation(**params),
    "horizontal": lambda params: horizontal_poly(**params),
}


def admissibility(target_map, grid, tol):
    """Max |curl S| and |S x D|S|^2| over the grid nodes; passes iff both
    are <= tol, so a non-finite value at any node fails."""
    x = grid.nodes()
    # np.max propagates NaN, so a node where S or DS is undefined fails
    worst_curl = float(np.max(np.abs(target_map.curl_S(x))))
    worst_cross = float(np.max(np.abs(
        cross2(target_map.S(x), target_map.grad_norm_sq(x))
    )))
    failed = [name for name, worst in
              [("curl S", worst_curl), ("S x D|S|^2", worst_cross)]
              if not worst <= tol]
    return ConditionReport(
        name="admissibility",
        passed=not failed,
        margins={
            "max_abs_curl_S": worst_curl,
            "max_abs_S_cross_grad_normsq": worst_cross,
            "tol": tol,
        },
        details=" and ".join(failed) or "both conditions hold",
    )


def eigen_structure(target_map, x):
    """Eigenvalues of DS along S^t and S_perp^t, or FixedPoint when S = 0.

    The Rayleigh quotients are validated against the eigenvector residual
    |DS S^t - zeta S^t|; a large residual signals an inadmissible map.
    """
    x = np.asarray(x, dtype=float)
    s = target_map.S(x)
    ds = target_map.DS(x)
    norm_s = np.linalg.norm(s)
    if norm_s <= 1e-10:
        return FixedPoint(ds=ds)
    u = s / norm_s
    u_perp = perp(u)
    zeta = float(u @ ds @ u)
    zeta_perp = float(u_perp @ ds @ u_perp)
    scale = max(np.linalg.norm(ds), 1.0)
    resid = max(
        np.linalg.norm(ds @ u - zeta * u),
        np.linalg.norm(ds @ u_perp - zeta_perp * u_perp),
    )
    if resid > 1e-8 * scale:
        raise NotEigenvector(
            f"S^t is not an eigenvector of DS at {tuple(x)}: residual {resid:.3e}"
        )
    return EigenPair(zeta=zeta, zeta_perp=zeta_perp)
