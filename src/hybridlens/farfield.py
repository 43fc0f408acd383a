"""Far-field machinery: mid-lens ray data, sufficient-condition
determinants, and construction of the metasurface phase.

The phase that straightens all rays to (0,0,1) is phi(Q(x)) = k f(x)
with f = h/kappa1 + rho/kappa1 + d; its tangential gradient equals
k (m1, m2), and a nonzero determinant of the second-order matrix built
from the field and the lower face guarantees phi exists locally.  The
potential h is the field's closed form when it has one, else it is
recovered from e' by ``fields.recover_potential``; D^2 h is always the
e' rows of the field's Jacobian, since grad h = e'.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (
    MissedSurface,
    NonInjectiveFootprint,
    NonPositiveDepth,
    SingularHessian,
)
from .fields import recover_potential
from .geometry import (
    FDStencil,
    Grid2D,
    batch_eval,
    fd_hessian,
    fd_jacobian,
    outer,
)
from .imaging import delta_from_drho
from .reports import ConditionReport
from .snell import refract_standard


@dataclass
class MidField:
    """Per-node ray data inside the lens: direction, travel distance and
    metasurface footprint."""

    grid: Grid2D
    m: np.ndarray          # (n1, n2, 3)
    d: np.ndarray          # (n1, n2)
    Q: np.ndarray          # (n1, n2, 2)
    rho: np.ndarray        # (n1, n2) path length in medium I


@dataclass
class PhaseMap:
    """Phase samples on the metasurface footprint.

    ``grad_tan`` holds k (m1, m2) at each sample, k the lens's
    ``constants.k``; the phase is independent of u3.  A phase that
    ``io.load_lens`` reads back for a trace holds None in the fields
    that its gradient mode does not use.
    """

    Q: Optional[np.ndarray]         # (n1, n2, 2)
    phi: Optional[np.ndarray]       # (n1, n2)
    grad_tan: Optional[np.ndarray]  # (n1, n2, 2)
    warnings: list = dc_field(default_factory=list)


def intersect_ray(surface, x, e, a):
    """Path length t with t e3 = r(x + t e') on the lens lower face.

    ``x`` is a start point (2,) with direction ``e`` (3,), giving a float,
    or a batch (n, 2) with directions (n, 3) or (3,), giving (n,).  Each
    ray keeps its own bracket on [0, a/e3] and takes safeguarded Newton
    steps on g(t) = t e3 - r(x + t e'), bisecting whenever a step leaves
    the bracket, until |dt| <= 1e-12 a; a ray stops as soon as it
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
    tol = 1e-12 * a
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
    t, m, d, q = ray_to_metasurface(field, surface, constants, grid.nodes())
    shape = grid.shape
    return MidField(grid=grid, m=m.reshape(shape + (3,)), d=d.reshape(shape),
                    Q=q.reshape(shape + (2,)), rho=t.reshape(shape))


def midfield_vertical(grid, rho, drho, constants):
    """Closed-form mid-lens data for the vertical incident field."""
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
    return MidField(grid=grid, m=m, d=d, Q=q, rho=rho)


def sufficient_det_general(field, surface, constants, x0):
    """Second-order determinant deciding local existence of the phase.

    Assembles
    D^2 h + (1 - kappa1 e.m) D^2 rho
      - kappa1 (D rho (x) (m De) + (m De) (x) D rho)
      - kappa1 rho (D(m De) - De (x) Dm) + kappa1 d Dm (x) Dm
    with D^2 h the e' rows of De (grad h = e'), so the field needs no
    potential.  rho, m and m De of the traced rays, and De of a field
    without ``jac``, take order-4 central differences at step 1e-4 (the
    D(m De) term is third-derivative territory and sets the noise budget
    for the tolerance); D^2 rho takes the 9-point second-order stencil
    at the same step.  Rays are traced in three batches: x0, the
    Jacobian's stencil of (rho, m, m De) and the Hessian's stencil of rho.
    """
    k1 = constants.kappa1
    x0 = np.asarray(x0, dtype=float)
    stencil = FDStencil(1e-4, 1e-4, order=4)

    def trace(x):
        return ray_to_metasurface(field, surface, constants, x)

    def de(x):  # nested in D(m De), so a jac-less De takes this stencil too
        return (field.jacobian(x) if field.jac is not None
                else fd_jacobian(field.direction, x, stencil))

    def rho_m_mde(x):
        rho, m, _, _ = trace(x)
        mde = (m[..., None, :] @ de(x))[..., 0, :]
        return np.concatenate([rho[..., None], m, mde], axis=-1)

    rho0, m0, d0, _ = trace(x0)
    e0 = field.direction(x0)
    de0 = de(x0)
    mde0 = m0 @ de0
    jac = fd_jacobian(rho_m_mde, x0, stencil)
    drho, dm, d_mde = jac[0], jac[1:4], jac[4:]
    d2rho = fd_hessian(lambda x: trace(x)[0], x0, FDStencil(1e-4, 1e-4))

    matrix = (
        de0[:2]
        + (1.0 - k1 * float(np.dot(e0, m0))) * d2rho
        - k1 * (outer(drho, mde0) + outer(mde0, drho))
        - k1 * rho0 * (d_mde - de0.T @ dm)
        + k1 * d0 * (dm.T @ dm)
    )
    det = float(np.linalg.det(matrix))
    norm = float(np.linalg.norm(matrix))
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


def sufficient_det_vertical(surface, constants, x0):
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
    tol = 1e-12
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


def eigenvalue_sufficient(surface, constants, x0):
    """Eigenvalue bounds sufficient for the vertical-field determinant.

    Passing either strict inequality implies the determinant condition;
    failing both decides nothing (the bounds are sufficient only).
    """
    r, g, hess, delta, k1, a = _vertical_terms(surface, constants, x0)
    if abs(np.linalg.det(hess)) <= 1e-12:
        raise SingularHessian(f"det D^2 rho = {np.linalg.det(hess):.3e} at {tuple(x0)}")
    lam2, lam1 = np.linalg.eigvalsh(hess)
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


def _median(values):
    """``np.median`` of a 1-D array, bit for bit, without the import of
    ``numpy.ma`` that ``np.median`` makes on its first call."""
    k = values.size // 2
    if values.size % 2:
        return np.partition(values, k)[k]
    part = np.partition(values, (k - 1, k))
    return (part[k - 1] + part[k]) / 2


def footprint_fold_check(midfield):
    """Detect self-overlap of the Q footprint via its grid Jacobian."""
    q = midfield.Q
    dq1 = (q[2:, 1:-1] - q[:-2, 1:-1]) / (2.0 * midfield.grid.spacing[0])
    dq2 = (q[1:-1, 2:] - q[1:-1, :-2]) / (2.0 * midfield.grid.spacing[1])
    det = dq1[..., 0] * dq2[..., 1] - dq1[..., 1] * dq2[..., 0]
    if det.size == 0:
        return
    bad = np.count_nonzero(~np.isfinite(det))
    if bad:
        raise NonInjectiveFootprint(
            f"footprint Jacobian determinant is not finite at {bad} of "
            f"{det.size} interior nodes"
        )
    tol = 1e-10
    scale = max(float(_median(np.abs(det).ravel())), tol)
    if np.min(det) * np.max(det) <= 0.0 or np.min(np.abs(det)) < tol * scale:
        raise NonInjectiveFootprint(
            f"footprint Jacobian determinant crosses zero "
            f"(range [{np.min(det):.3e}, {np.max(det):.3e}])"
        )


def build_phase(field, midfield, constants, check_condition=None):
    """Sample the phase phi = k f on the metasurface footprint.

    The potential h is the field's closed form when it has one; else
    ``recover_potential`` integrates e' from the patch-center node,
    raising ``NotIntegrable`` if e' is not a gradient.  The additive
    constant is pinned so phi vanishes at the patch-center sample.
    ``check_condition`` may carry a failed sufficient-determinant report,
    in which case construction proceeds with an attached warning.
    """
    grid = midfield.grid
    n1, n2 = grid.shape
    if field.potential is not None:
        h = batch_eval(field.potential, grid.nodes(), (),
                       f"field {field.name!r} potential").reshape(grid.shape)
    else:
        h, _ = recover_potential(field, grid, grid.node(n1 // 2, n2 // 2))
    f = (h + midfield.rho) / constants.kappa1 + midfield.d
    phi = constants.k * (f - f[n1 // 2, n2 // 2])
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
        warnings=warnings,
    )
