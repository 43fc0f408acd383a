"""Lens lower-face solver for the near-field imaging problem.

The lower face rho is determined by the gradient system
D(a - rho) = V(x, a - rho) with
V(x, z) = kappa1 (S/z) / (kappa1 - sqrt(|S/z|^2 + 1)),
valid on the slab a > z > |S|/sqrt(kappa1^2 - 1).  The solver integrates
the system with RK4 along axis-aligned paths; admissibility of the map
guarantees path independence, which is re-checked at runtime by
integrating in both axis orders.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FeasibilityViolation, PathInconsistency
from .geometry import Grid2D, march_both_ways, outer, staircase
from .maps import EigenPair, FixedPoint, TargetMap, eigen_structure
from .reports import ConditionReport
from .snell import OpticalConstants

FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True)
class VarphiProfile:
    """The scalar profile kappa1 / (kappa1 - sqrt(y + 1)) on [0, kappa1^2 - 1).

    Positive and strictly increasing; its derivative has the closed form
    varphi^2 / (2 kappa1 sqrt(y + 1)).
    """

    kappa1: float

    @property
    def y_max(self):
        return self.kappa1**2 - 1.0

    def _check(self, y):
        if np.any(np.asarray(y) < 0.0) or np.any(np.asarray(y) >= self.y_max):
            raise FeasibilityViolation(
                f"argument outside [0, {self.y_max}) for kappa1 = {self.kappa1}"
            )

    def value(self, y):
        self._check(y)
        return self.kappa1 / (self.kappa1 - np.sqrt(np.asarray(y) + 1.0))

    def deriv(self, y):
        self._check(y)
        v = self.value(y)
        return v * v / (2.0 * self.kappa1 * np.sqrt(np.asarray(y) + 1.0))


def feasible_z_interval(s_norm, kappa1, a):
    """Open interval of admissible z at a point with |S| = s_norm."""
    return (s_norm / math.sqrt(kappa1**2 - 1.0), a)


def thickness_check(target_map, constants, grid):
    """a > |S(x)|/sqrt(kappa1^2 - 1) at every node; reports worst margin."""
    k1 = constants.kappa1
    s = target_map.S(grid.nodes())
    smin = np.linalg.norm(s, axis=-1) / math.sqrt(k1**2 - 1.0)
    worst = float(constants.a - np.max(smin))
    return ConditionReport(
        name="thickness",
        passed=worst > 0.0,
        margins={"worst_margin": worst, "a": constants.a,
                 "max_lower_bound": float(np.max(smin))},
        details=f"a - max |S|/sqrt(kappa1^2-1) = {worst:.6g}",
    )


def _check_feasible(x, s, z, kappa1, a):
    slack = FEASIBILITY_SLACK * max(a, 1.0)
    # |S| as np.linalg.norm(s, axis=-1) computes it, in fewer numpy calls
    sq = s * s
    lower = np.sqrt(sq[..., 0] + sq[..., 1]) / math.sqrt(kappa1**2 - 1.0)
    bad = (z >= a - slack) | (z <= lower + slack)
    if bad.any():
        k = int(np.argmax(bad))
        z, lower = np.broadcast_arrays(z, lower)
        x1, x2 = np.reshape(x, (-1, 2))[k]
        raise FeasibilityViolation(
            f"z = {z.flat[k]:.6g} outside ({lower.flat[k]:.6g}, {a:.6g}) at "
            f"x = ({x1:.6g}, {x2:.6g}) (slab inequality violated)"
        )


def rhs_V(x, z, target_map, kappa1, a):
    """Right-hand side V(x, z) of the gradient system; equals -D rho.

    Broadcasts over a leading batch axis in ``x`` and ``z``.  The
    denominator is positive precisely on the admissible slab, which is
    enforced (with relative slack) rather than clamped; a violation
    names the first failing point of the batch.  A state inside the
    slab has |S/z|^2 < (kappa1^2 - 1)(1 - FEASIBILITY_SLACK), since the
    slack of ``_check_feasible`` is at least FEASIBILITY_SLACK z.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    s = target_map.S(x)
    _check_feasible(x, s, z, kappa1, a)
    ratio = s / z[..., None]
    r2 = ratio * ratio
    y = r2[..., 0] + r2[..., 1]
    phi = kappa1 / (kappa1 - np.sqrt(y + 1.0))
    return phi[..., None] * ratio


def delta_from_drho(drho, kappa1):
    """Delta = sqrt(kappa1^2 + (kappa1^2 - 1)|D rho|^2)."""
    drho = np.asarray(drho, dtype=float)
    return np.sqrt(kappa1**2 + (kappa1**2 - 1.0) * np.sum(drho * drho, axis=-1))


def delta_nice(s, z, kappa1):
    """Closed form (kappa1^2 |(S, z)| - kappa1 z) / (kappa1 z - |(S, z)|)."""
    s = np.asarray(s, dtype=float)
    r = np.sqrt(np.sum(s * s, axis=-1) + z * z)
    return (kappa1**2 * r - kappa1 * z) / (kappa1 * z - r)


@dataclass
class LensDesign:
    """Grid-sampled solution of the lens PDE (z = a - rho).

    A design that ``io.load_lens`` reads back for a trace holds None in
    ``z`` and ``drho``, which tracing does not use.
    """

    grid: Grid2D
    rho: np.ndarray
    z: Optional[np.ndarray]
    drho: Optional[np.ndarray]
    target_map: TargetMap
    constants: OpticalConstants
    x0: np.ndarray
    z0: float
    path_residual: float = 0.0

    def node_state(self, i, j):
        """(x, z) at a grid node."""
        return self.grid.node(i, j), float(self.z[i, j])


def default_z0(target_map, constants, x0):
    """Midpoint of the admissible z interval at x0."""
    lo, hi = feasible_z_interval(
        float(np.linalg.norm(target_map.S(np.asarray(x0, dtype=float)))),
        constants.kappa1,
        constants.a,
    )
    if lo >= hi:
        raise FeasibilityViolation(f"empty admissible interval ({lo}, {hi}) at x0")
    return 0.5 * (lo + hi)


def solve_rho(target_map, constants, grid, x0, z0=None):
    """Integrate the lens PDE over the grid from the anchor (x0, z0).

    One ``staircase`` call integrates both axis orders, and the x1-first
    one is kept; for admissible maps the two agree to RK4 accuracy, and
    a larger disagreement raises ``PathInconsistency`` (the
    integrability test is an iff).  A march that leaves the slab raises
    ``FeasibilityViolation`` at the point the staircase meets first.
    """
    k1, a = constants.kappa1, constants.a
    i0, j0 = grid.nearest_index(x0)
    x0 = grid.node(i0, j0)
    if z0 is None:
        z0 = default_z0(target_map, constants, x0)
    lo, hi = feasible_z_interval(
        float(np.linalg.norm(target_map.S(x0))), k1, a
    )
    if not (lo < z0 < hi):
        raise FeasibilityViolation(f"z0 = {z0} outside admissible ({lo}, {hi})")

    def slope(x, z):
        return rhs_V(x, z, target_map, k1, a)

    z_a, z_b = staircase(grid, (i0, j0), z0, slope)
    residual = float(np.max(np.abs(z_a - z_b)))
    h = float(np.max(grid.spacing))
    path_tol = 100.0 * h**4 * max(1.0, a)
    if residual > path_tol:
        raise PathInconsistency(
            f"axis-order disagreement {residual:.3e} > {path_tol:.3e} "
            "(map is not admissible)"
        )

    nodes = grid.nodes()
    z_flat = z_a.ravel()
    drho = -rhs_V(nodes, z_flat, target_map, k1, a).reshape(grid.shape + (2,))
    rho = a - z_a
    return LensDesign(
        grid=grid,
        rho=rho,
        z=z_a,
        drho=drho,
        target_map=target_map,
        constants=constants,
        x0=x0,
        z0=float(z0),
        path_residual=residual,
    )


def _profile_terms(design, x0, z0):
    k1 = design.constants.kappa1
    s = design.target_map.S(np.asarray(x0, dtype=float))
    ds = design.target_map.DS(np.asarray(x0, dtype=float))
    prof = VarphiProfile(k1)
    y = float(np.dot(s, s)) / z0**2
    phi = float(prof.value(y))
    dphi = float(prof.deriv(y))
    ss = outer(s, s)
    bulge = np.eye(2) + (2.0 / z0**2) * (dphi / phi) * ss
    return s, ds, phi, dphi, ss, bulge


def _state_at(design, x0, z0):
    """(x0, z0), defaulting to the design's anchor, or to the node
    nearest ``x0`` when only ``x0`` is given."""
    if x0 is None:
        return design.x0, design.z0
    if z0 is None:
        return design.node_state(*design.grid.nearest_index(x0))
    return x0, z0


def hessian_closed_form(design, x0=None, z0=None):
    """Closed-form D^2 rho at a point of a solved design."""
    x0, z0 = _state_at(design, x0, z0)
    _, ds, phi, _, ss, bulge = _profile_terms(design, x0, z0)
    return (phi / z0) * bulge @ ((phi / z0**2) * ss - ds)


def matA_closed_form(design, x0=None, z0=None):
    """The non-singularity matrix as the factored product with I + DS."""
    x0, z0 = _state_at(design, x0, z0)
    _, ds, _, _, _, bulge = _profile_terms(design, x0, z0)
    return bulge @ (np.eye(2) + ds)


def lemma_identity_check(y, kappa1):
    """Frobenius residual of the rank-1 factorization identity.

    The identity ties I + ((kappa1^2-1)/kappa1^2) varphi^2 (y (x) y) to
    the product (I + varphi (y (x) y))(I + 2 (varphi'/varphi) y (x) y);
    it should vanish for every |y| < sqrt(kappa1^2 - 1).  Takes points
    y (..., n), a single point being the batch ``()``, and gives the
    residuals (...).
    """
    y = np.asarray(y, dtype=float)
    prof = VarphiProfile(kappa1)
    row, col = y[..., None, :], y[..., :, None]
    # (1, n) @ (n, 1) matmuls round as np.dot of one point does
    q = (row @ col)[..., 0]
    phi = prof.value(q)[..., None]
    dphi = prof.deriv(q)[..., None]
    yy = col * row
    eye = np.eye(y.shape[-1])
    lhs = eye + ((kappa1**2 - 1.0) / kappa1**2) * phi**2 * yy
    rhs = (eye + phi * yy) @ (eye + 2.0 * (dphi / phi) * yy)
    diff = (lhs - rhs).reshape(y.shape[:-1] + (1, -1))
    return np.sqrt(diff @ np.swapaxes(diff, -1, -2))[..., 0, 0][()]


def existence_verdict(design, tol=1e-9):
    """Decide local existence of the phase discontinuity at the anchor.

    Requires det(I + DS) != 0 and an invertible D^2 rho: at a fixed point
    det DS != 0; otherwise zeta != (|S|^2/z0^2) varphi and zeta_perp != 0.
    """
    x0, z0 = design.x0, design.z0
    k1 = design.constants.kappa1
    s = design.target_map.S(np.asarray(x0, dtype=float))
    ds = design.target_map.DS(np.asarray(x0, dtype=float))
    det_t = float(np.linalg.det(np.eye(2) + ds))
    margins = {"det_I_plus_DS": det_t, "tol": tol}
    reasons = []
    if abs(det_t) <= tol:
        reasons.append("det(I + DS) = 0")
    structure = eigen_structure(design.target_map, x0)
    if isinstance(structure, FixedPoint):
        det_ds = float(np.linalg.det(structure.ds))
        margins["fixed_point"] = 1.0
        margins["det_DS"] = det_ds
        if abs(det_ds) <= tol:
            reasons.append("det DS = 0")
            if np.allclose(structure.ds, 0.0, atol=tol) and np.allclose(
                s, 0.0, atol=tol
            ):
                margins["flat_lens_case"] = 1.0
                reasons[-1] = (
                    "det DS = 0 (flat-lens special case: identity-like map, "
                    "a horizontal plane with constant phase achieves it)"
                )
    else:
        assert isinstance(structure, EigenPair)
        prof = VarphiProfile(k1)
        y = float(np.dot(s, s)) / z0**2
        threshold = y * float(prof.value(y))
        margins["fixed_point"] = 0.0
        margins["zeta"] = structure.zeta
        margins["zeta_perp"] = structure.zeta_perp
        margins["zeta_threshold"] = threshold
        if abs(structure.zeta - threshold) <= tol:
            reasons.append("zeta = (|S|^2/z0^2) varphi")
        if abs(structure.zeta_perp) <= tol:
            reasons.append("zeta_perp = 0")
    return ConditionReport(
        name="existence_verdict",
        passed=not reasons,
        margins=margins,
        details="; ".join(reasons) if reasons else "non-singularity holds",
    )


def solve_rho_2d(s_func, constants, t_range, z0, step):
    """RK4 solution of the one-dimensional lens ODE on [t_min, t_max].

    Returns (t, rho) with rho(0) = a - z0; feasibility is enforced at
    every RK4 stage and reported with the first offending t.
    """
    k1, a = constants.kappa1, constants.a
    t_min, t_max = t_range
    if not (t_min <= 0.0 <= t_max):
        raise ValueError("t_range must contain 0")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite number > 0, got {step}")
    lo, hi = feasible_z_interval(abs(float(s_func(0.0))), k1, a)
    if not (lo < z0 < hi):
        raise FeasibilityViolation(f"z0 = {z0} outside admissible ({lo}, {hi})")

    def deriv(t, z):
        s = float(s_func(t))
        slack = FEASIBILITY_SLACK * max(a, 1.0)
        lo_t = abs(s) / math.sqrt(k1**2 - 1.0)
        if not (lo_t + slack < z < a - slack):
            raise FeasibilityViolation(
                f"z = {z:.6g} outside ({lo_t:.6g}, {a:.6g}) at t = {t:.6g}"
            )
        ratio = s / z
        return k1 * ratio / (k1 - math.hypot(ratio, 1.0))

    n_pos = max(1, int(round(t_max / step))) if t_max > 0 else 0
    n_neg = max(1, int(round(-t_min / step))) if t_min < 0 else 0
    t = np.concatenate([np.linspace(0.0, t_min, n_neg + 1)[:0:-1],
                        np.linspace(0.0, t_max, n_pos + 1)])
    return t, a - march_both_ways(z0, t, n_neg, deriv)
