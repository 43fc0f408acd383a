"""Far-field machinery: mid-lens ray data, sufficient-condition
determinants, and construction of the metasurface phase.

The phase that straightens all rays to (0,0,1) is phi(Q(x)) = k f(x)
with f = h/kappa1 + rho/kappa1 + d; its tangential gradient equals
k (m1, m2), and a nonzero determinant of the second-order matrix built
from the field and the lower face guarantees phi exists locally.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (
    DerivativeUnavailable,
    MissedSurface,
    NonInjectiveFootprint,
    NonPositiveDepth,
)
from .geometry import (
    FDStencil,
    Grid2D,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    outer,
    sym_eig_2x2,
)
from .imaging import delta_from_drho
from .reports import ConditionReport
from .snell import refract_standard


@dataclass
class MidField:
    """Per-node ray data inside the lens: direction, travel distance,
    metasurface footprint, and (vertical case) the Delta profile."""

    grid: Grid2D
    m: np.ndarray          # (n1, n2, 3)
    d: np.ndarray          # (n1, n2)
    Q: np.ndarray          # (n1, n2, 2)
    rho: np.ndarray        # (n1, n2) path length in medium I
    delta: Optional[np.ndarray] = None


@dataclass
class PhaseMap:
    """Phase samples on the metasurface footprint.

    ``grad_tan`` holds the tangential gradient k (m1, m2) at each sample;
    the phase is independent of u3.
    """

    Q: np.ndarray          # (n1, n2, 2)
    phi: np.ndarray        # (n1, n2)
    grad_tan: np.ndarray   # (n1, n2, 2)
    k: float
    warnings: list = dc_field(default_factory=list)


def intersect_ray(surface, x, e, a, tol_scale=1e-12):
    """Path length t with t e3 = r(x + t e') on the lens lower face.

    ``x`` is a start point (2,) with direction ``e`` (3,), giving a float,
    or a batch (n, 2) with directions (n, 3) or (3,), giving (n,).  Each
    ray keeps its own bracket on [0, a/e3] and takes safeguarded Newton
    steps on g(t) = t e3 - r(x + t e'), bisecting whenever a step leaves
    the bracket, until |dt| <= tol_scale * a; a ray stops as soon as it
    converges, so its result does not depend on the rest of the batch.
    A vertical ray (e' = 0) needs no steps: t = r(x) / e3.
    The graph condition (nu3 > 0) makes the crossing unique in the patch.
    Raises ``MissedSurface`` if any ray has no bracketed crossing.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    e_rows = np.empty(x.shape[:-1] + (3,))
    e_rows[:] = e
    e3, ep = e_rows[:, 2], e_rows[:, :2]
    vert = (np.abs(ep[:, 0]) < 1e-15) & (np.abs(ep[:, 1]) < 1e-15)
    obl = np.flatnonzero(~vert)
    lo = np.zeros(len(x))
    hi = a / e3
    g_lo = -surface.height(x)
    g_hi = hi * e3 + g_lo  # a vertical ray meets r(x) all along
    if obl.size:
        g_hi[obl] = hi[obl] * e3[obl] - surface.height(
            x[obl] + hi[obl, None] * ep[obl])
    bad = (g_lo > 0.0) | (g_hi < 0.0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise MissedSurface(
            f"no bracketed crossing for the ray from {tuple(x[i].tolist())}: "
            f"g(0) = {g_lo[i]:.3e}, g(a/e3) = {g_hi[i]:.3e}"
        )
    # A vertical ray crosses at t = r(x) / e3 and a ray starting on the
    # face at t = 0; the others start from the secant inside the bracket.
    t = np.where(vert, -g_lo / e3, 0.0)
    act = obl[g_lo[obl] != 0.0]
    t[act] = hi[act] * (g_lo[act] / (g_lo[act] - g_hi[act]))
    tol = tol_scale * a
    for _ in range(100):  # bisection alone needs about 40
        if act.size == 0:
            break
        ta, ea, e3a = t[act], ep[act], e3[act]
        pa = x[act] + ta[:, None] * ea
        g = ta * e3a - surface.height(pa)
        dg = e3a - np.sum(surface.gradient(pa) * ea, axis=1)
        lo_a, hi_a = lo[act], hi[act]
        lo_a[g < 0.0] = ta[g < 0.0]
        hi_a[g > 0.0] = ta[g > 0.0]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = ta - g / dg
        # g = 0 gives new = ta and stops the ray; NaN steps fail the test
        out = ~((new >= lo_a) & (new <= hi_a))
        new[out] = 0.5 * (lo_a[out] + hi_a[out])
        t[act], lo[act], hi[act] = new, lo_a, hi_a
        act = act[(np.abs(new - ta) > tol) & (hi_a - lo_a > tol)]
    if act.size:
        raise RuntimeError(
            f"intersect_ray: {act.size} rays did not converge in 100 steps"
        )
    return float(t[0]) if single else t


def ray_to_metasurface(field, surface, constants, x):
    """Trace rays from source points ``x`` (2,) or (n, 2) to {x3 = a}.

    Intersects (x, 0) + t e(x) with the lower face, refracts with the
    standard law and advances to the metasurface plane.  Returns the
    path length t in medium I, the direction m in medium II, the
    distance d from the face to the plane and the footprint Q there.
    Raises ``NonPositiveDepth`` if a hit lies on or above the plane.
    """
    k1, a = constants.kappa1, constants.a
    x = np.asarray(x, dtype=float)
    e = field.direction(x)
    t = np.asarray(intersect_ray(surface, x, e, a))
    hit2 = x + t[..., None] * e[..., :2]
    nu = surface.normal(hit2)
    m = refract_standard(e, nu, k1).direction
    depth = a - t * e[..., 2]
    bad = np.flatnonzero(depth <= 0.0)
    if bad.size:
        i = bad[0]
        raise NonPositiveDepth(
            f"a - rho e3 = {depth.flat[i]:.3e} at "
            f"{tuple(x.reshape(-1, 2)[i].tolist())}"
        )
    d = depth / m[..., 2]
    return t, m, d, hit2 + d[..., None] * m[..., :2]


def midfield_general(field, surface, constants, grid):
    """Trace every grid ray to the metasurface plane through a surface,
    all nodes at once (see ``ray_to_metasurface``)."""
    constants.require_lens_geometry()
    t, m, d, q = ray_to_metasurface(field, surface, constants, grid.nodes())
    shape = grid.shape
    return MidField(grid=grid, m=m.reshape(shape + (3,)), d=d.reshape(shape),
                    Q=q.reshape(shape + (2,)), rho=t.reshape(shape))


def midfield_vertical(grid, rho, drho, constants):
    """Closed-form mid-lens data for the vertical incident field."""
    constants.require_lens_geometry()
    k1, a = constants.kappa1, constants.a
    rho = np.asarray(rho, dtype=float)
    drho = np.asarray(drho, dtype=float)
    delta = delta_from_drho(drho, k1)
    coef = (1.0 - k1**2) / (1.0 + delta)
    m = np.empty(rho.shape + (3,))
    m[..., :2] = coef[..., None] * drho / k1
    m[..., 2] = (1.0 + (k1**2 - 1.0) / (1.0 + delta)) / k1
    d = k1 * (a - rho) * (1.0 + delta) / (k1**2 + delta)
    x1, x2 = grid.meshgrid()
    q = np.stack([x1, x2], axis=-1) + d[..., None] * m[..., :2]
    return MidField(grid=grid, m=m, d=d, Q=q, rho=rho, delta=delta)


def sufficient_det_general(field, surface, constants, x0, fd_step=1e-4,
                           tol=None):
    """Second-order determinant deciding local existence of the phase.

    Assembles
    D^2 h + (1 - kappa1 e.m) D^2 rho
      - kappa1 (D rho (x) (m De) + (m De) (x) D rho)
      - kappa1 rho (D(m De) - De (x) Dm) + kappa1 d Dm (x) Dm
    with every derivative analytic when available, nested central
    differences otherwise (the D(m De) term is third-derivative
    territory and sets the noise budget for the tolerance).
    """
    k1 = constants.kappa1
    x0 = np.asarray(x0, dtype=float)
    if field.potential is None:
        raise DerivativeUnavailable(
            "field has no potential h; run the curl test and supply one"
        )
    stencil = FDStencil(fd_step, fd_step, order=4)
    if field.hess_potential is not None:
        d2h = np.asarray(field.hess_potential(x0), dtype=float)
    else:
        d2h = fd_hessian(field.potential, x0, stencil)

    trace = lambda x: ray_to_metasurface(field, surface, constants, x)
    rho0, m0, d0, _ = trace(x0)
    e0 = field.direction(x0)
    de0 = field.jacobian(x0, stencil)

    rho_f = lambda x: trace(x)[0]
    m_f = lambda x: trace(x)[1]
    mde_f = lambda x: m_f(x) @ field.jacobian(x, stencil)

    drho = fd_gradient(rho_f, x0, stencil)
    d2rho = fd_hessian(rho_f, x0, stencil)
    dm = fd_jacobian(m_f, x0, stencil)
    d_mde = fd_jacobian(mde_f, x0, stencil)
    mde0 = m0 @ de0

    matrix = (
        d2h
        + (1.0 - k1 * float(np.dot(e0, m0))) * d2rho
        - k1 * (outer(drho, mde0) + outer(mde0, drho))
        - k1 * rho0 * (d_mde - de0.T @ dm)
        + k1 * d0 * (dm.T @ dm)
    )
    det = float(np.linalg.det(matrix))
    norm = float(np.linalg.norm(matrix))
    if tol is None:
        tol = 1e-6 * max(norm**2, 1e-300)
    return ConditionReport(
        name="sufficient_det_general",
        passed=abs(det) > tol,
        margins={"det": det, "tol": tol, "matrix_norm": norm},
        details=f"|det| = {abs(det):.6g} vs tol {tol:.3g}",
    )


def _vertical_terms(surface, constants, x0):
    k1, a = constants.kappa1, constants.a
    x0 = np.asarray(x0, dtype=float)
    r = surface.height(x0)
    g = surface.gradient(x0)
    hess = surface.hessian(x0)
    delta = float(delta_from_drho(g, k1))
    return r, g, hess, delta, k1, a


def sufficient_det_vertical(surface, constants, x0, tol=1e-12):
    """Vertical-field reduction: det D^2 rho != 0 and the slab matrix
    I + ((kappa1^2-1)/kappa1^2) Drho (x) Drho
      + (a - rho)(1 - kappa1^2)/(kappa1^2 + Delta) D^2 rho
    invertible.  Also reports the reconstructed collimated determinant
    for cross-checking against the general assembly.
    """
    r, g, hess, delta, k1, a = _vertical_terms(surface, constants, x0)
    det_h = float(np.linalg.det(hess))
    mat_a = (
        np.eye(2)
        + ((k1**2 - 1.0) / k1**2) * outer(g, g)
        + ((a - r) * (1.0 - k1**2) / (k1**2 + delta)) * hess
    )
    det_a = float(np.linalg.det(mat_a))
    w = np.eye(2) - ((k1**2 - 1.0) / delta**2) * outer(g, g)
    m_factor = ((1.0 - k1**2) / (1.0 + delta)) * (w @ mat_a)
    det_big = det_h * float(np.linalg.det(m_factor))
    passed = abs(det_h) > tol and abs(det_a) > tol
    return ConditionReport(
        name="sufficient_det_vertical",
        passed=passed,
        margins={
            "det_hessian": det_h,
            "det_A": det_a,
            "det_big_reconstructed": det_big,
            "tol": tol,
        },
        details="both determinants nonzero" if passed else (
            "det D^2 rho = 0" if abs(det_h) <= tol else "det A = 0"
        ),
    )


def eigenvalue_sufficient(surface, constants, x0, singular_tol=1e-12):
    """Eigenvalue bounds sufficient for the vertical-field determinant.

    Passing either strict inequality implies the determinant condition;
    failing both decides nothing (the bounds are sufficient only).
    """
    from .errors import SingularHessian

    r, g, hess, delta, k1, a = _vertical_terms(surface, constants, x0)
    if abs(np.linalg.det(hess)) <= singular_tol:
        raise SingularHessian(f"det D^2 rho = {np.linalg.det(hess):.3e} at {tuple(x0)}")
    lam, _ = sym_eig_2x2(hess)
    lam1, lam2 = lam
    thresh1 = delta**2 * (k1**2 + delta) / (k1**2 * (k1**2 - 1.0) * (a - r))
    thresh2 = (k1**2 + delta) / ((k1**2 - 1.0) * (a - r))
    first = lam2 > thresh1
    second = lam1 < thresh2
    return ConditionReport(
        name="eigenvalue_sufficient",
        passed=first or second,
        margins={
            "lambda1": lam1,
            "lambda2": lam2,
            "first_margin": lam2 - thresh1,
            "second_margin": thresh2 - lam1,
        },
        details="first inequality" if first else (
            "second inequality" if second else "neither inequality (inconclusive)"
        ),
    )


def footprint_fold_check(midfield, tol=1e-10):
    """Detect self-overlap of the Q footprint via its grid Jacobian."""
    q = midfield.Q
    dq1 = (q[2:, 1:-1] - q[:-2, 1:-1]) / (2.0 * midfield.grid.spacing[0])
    dq2 = (q[1:-1, 2:] - q[1:-1, :-2]) / (2.0 * midfield.grid.spacing[1])
    det = dq1[..., 0] * dq2[..., 1] - dq1[..., 1] * dq2[..., 0]
    if det.size == 0:
        return
    scale = max(float(np.median(np.abs(det))), tol)
    if np.min(det) * np.max(det) <= 0.0 or np.min(np.abs(det)) < tol * scale:
        raise NonInjectiveFootprint(
            f"footprint Jacobian determinant crosses zero "
            f"(range [{np.min(det):.3e}, {np.max(det):.3e}])"
        )


def build_phase(field, midfield, constants, h_grid=None, center=None,
                check_condition=None):
    """Sample the phase phi = k f on the metasurface footprint.

    ``h_grid`` supplies the potential on the grid when the field has no
    closed-form one (e.g. output of ``recover_potential``).  The additive
    constant is pinned so phi vanishes at the patch-center sample.
    ``check_condition`` may carry a failed sufficient-determinant report,
    in which case construction proceeds with an attached warning.
    """
    grid = midfield.grid
    k1 = constants.kappa1
    n1, n2 = grid.shape
    if h_grid is None:
        if field.potential is None:
            raise DerivativeUnavailable(
                "no potential available; pass h_grid from recover_potential"
            )
        h_grid = np.array(
            [[field.potential(grid.node(i, j)) for j in range(n2)] for i in range(n1)]
        )
    f = (np.asarray(h_grid, dtype=float) + midfield.rho) / k1 + midfield.d
    if center is None:
        center = (n1 // 2, n2 // 2)
    phi = constants.k * (f - f[center])
    footprint_fold_check(midfield)
    warnings = []
    if check_condition is not None and not check_condition.passed:
        warnings.append(
            f"sufficient condition failed at patch center: {check_condition.details}"
        )
    return PhaseMap(
        Q=midfield.Q,
        phi=phi,
        grad_tan=constants.k * midfield.m[..., :2],
        k=constants.k,
        warnings=warnings,
    )
