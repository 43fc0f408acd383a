"""Small fixed-dimension linear algebra, finite-difference machinery, the
grid, and RK4 integration over it from an anchor node.

Vectors are plain numpy arrays treated as row vectors; ``outer(u, v)``
is u^t v so that ``w @ outer(u, v) = (w . u) v`` for row vectors acting
on the left.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation

def cross2(a, b):
    """Scalar cross product a1*b2 - a2*b1 of two 2-vectors."""
    return a[0] * b[1] - a[1] * b[0]


def cross3(v, w):
    """Cross product of two 3-vectors.

    Written out by components rather than calling ``np.cross``, whose
    per-call axis handling costs more than a whole refraction on numpy 2.x.
    The arithmetic is the one ``np.cross`` performs, so results are
    bit-equal to it.  Raises ``ValueError`` unless both arguments have
    shape (3,).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (3,) or w.shape != (3,):
        raise ValueError(
            f"expected two 3-vectors, got shapes {v.shape} and {w.shape}"
        )
    v1, v2, v3 = v.tolist()
    w1, w2, w3 = w.tolist()
    return np.array([v2 * w3 - v3 * w2, v3 * w1 - v1 * w3, v1 * w2 - v2 * w1])


def perp(a):
    """Rotate a 2-vector by +90 degrees: (a1, a2) -> (-a2, a1)."""
    return np.array([-a[1], a[0]], dtype=float)


def outer(u, v):
    """Rank-1 matrix u^t v (row-vector convention)."""
    return np.outer(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def sym_eig_2x2(m):
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns (w, V) with w = [lam1, lam2], lam1 >= lam2, and V's columns
    the corresponding orthonormal eigenvectors.
    """
    m = np.asarray(m, dtype=float)
    a, b, d = m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]
    mid = 0.5 * (a + d)
    disc = np.hypot(0.5 * (a - d), b)
    lam1, lam2 = mid + disc, mid - disc
    # Eigenvector of lam1: pick the better-conditioned of the two rows of
    # (M - lam2 I), whose columns span the lam1 eigenspace.
    u = np.array([a - lam2, b])
    w = np.array([b, d - lam2])
    # Rescale both rows by one power of two (exact) so that the squared
    # norms below neither underflow nor overflow for tiny or huge entries.
    top = max(np.abs(u).max(), np.abs(w).max())
    if top > 0.0:
        e = np.frexp(top)[1]
        u, w = np.ldexp(u, -e), np.ldexp(w, -e)
    v1 = u if np.dot(u, u) >= np.dot(w, w) else w
    n = np.linalg.norm(v1)
    if n == 0.0:  # multiple of identity
        v1 = np.array([1.0, 0.0])
    else:
        v1 = v1 / n
    v2 = perp(v1)
    return np.array([lam1, lam2]), np.column_stack([v1, v2])


@dataclass(frozen=True)
class FDStencil:
    """Central-difference step sizes for 2-D differentiation."""

    h1: float = 1e-5
    h2: float = 1e-5
    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        if self.h1 <= 0 or self.h2 <= 0:
            raise ValueError("step sizes must be positive")

    @staticmethod
    def for_point(x, scale=1e-5, order=2):
        """Default step max(scale, scale*|x_i|) balancing truncation and roundoff."""
        x = np.asarray(x, dtype=float)
        return FDStencil(
            h1=max(scale, scale * abs(x[0])),
            h2=max(scale, scale * abs(x[1])),
            order=order,
        )

    @property
    def steps(self):
        return np.array([self.h1, self.h2])

    @property
    def reach(self):
        r = 1 if self.order == 2 else 2
        return r * self.steps


def _check_domain(x, stencil, domain):
    if domain is None:
        return
    lo, hi = np.asarray(domain[0], float), np.asarray(domain[1], float)
    reach = stencil.reach
    if np.any(x - reach < lo) or np.any(x + reach > hi):
        raise DomainViolation(f"stencil around {x} leaves domain [{lo}, {hi}]")


def fd_partial(f, x, axis, stencil, domain=None):
    """Central-difference partial derivative of a scalar or vector map."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, stencil, domain)
    h = stencil.steps[axis]
    e = np.zeros_like(x)
    e[axis] = 1.0
    if stencil.order == 2:
        return (np.asarray(f(x + h * e)) - np.asarray(f(x - h * e))) / (2 * h)
    fp1, fm1 = np.asarray(f(x + h * e)), np.asarray(f(x - h * e))
    fp2, fm2 = np.asarray(f(x + 2 * h * e)), np.asarray(f(x - 2 * h * e))
    return (8 * (fp1 - fm1) - (fp2 - fm2)) / (12 * h)


def fd_gradient(f, x, stencil=None, domain=None):
    """Gradient (2,) of a scalar map on R^2 by central differences."""
    x = np.asarray(x, dtype=float)
    stencil = stencil or FDStencil.for_point(x)
    return np.array([fd_partial(f, x, i, stencil, domain) for i in (0, 1)])


def fd_jacobian(f, x, stencil=None, domain=None):
    """Jacobian (m, 2) of a map R^2 -> R^m by central differences."""
    x = np.asarray(x, dtype=float)
    stencil = stencil or FDStencil.for_point(x)
    cols = [fd_partial(f, x, i, stencil, domain) for i in (0, 1)]
    return np.column_stack([np.atleast_1d(c) for c in cols])


def scalar_curl(f, x, stencil=None, jac=None, domain=None):
    """Scalar curl d(a2)/dx1 - d(a1)/dx2 of a planar field.

    Uses the analytic Jacobian when supplied, else central differences.
    """
    x = np.asarray(x, dtype=float)
    if jac is not None:
        j = np.asarray(jac(x), dtype=float)
    else:
        j = fd_jacobian(f, x, stencil, domain)
    return j[1, 0] - j[0, 1]


def fd_hessian(f, x, stencil=None, domain=None):
    """Symmetric Hessian (2, 2) of a scalar map on a 9-point stencil."""
    x = np.asarray(x, dtype=float)
    stencil = stencil or FDStencil.for_point(x)
    _check_domain(x, stencil, domain)
    h1, h2 = stencil.steps
    e1 = np.array([h1, 0.0])
    e2 = np.array([0.0, h2])
    f00 = f(x)
    d11 = (f(x + e1) - 2 * f00 + f(x - e1)) / h1**2
    d22 = (f(x + e2) - 2 * f00 + f(x - e2)) / h2**2
    d12 = (f(x + e1 + e2) - f(x + e1 - e2) - f(x - e1 + e2) + f(x - e1 - e2)) / (
        4 * h1 * h2
    )
    return np.array([[d11, d12], [d12, d22]])


def _nearest(axis, u):
    """Index of the entry of sorted ``axis`` nearest to each ``u``."""
    i = np.clip(np.searchsorted(axis, u), 1, axis.size - 1)
    return i - (np.abs(axis[i - 1] - u) <= np.abs(axis[i] - u))


@dataclass(frozen=True)
class Grid2D:
    """Regular tensor grid over a rectangular box, 'ij' indexing."""

    x1: np.ndarray
    x2: np.ndarray

    @staticmethod
    def from_box(box, n1, n2=None):
        (a1, b1), (a2, b2) = box
        n2 = n1 if n2 is None else n2
        return Grid2D(np.linspace(a1, b1, n1), np.linspace(a2, b2, n2))

    @property
    def shape(self):
        return (self.x1.size, self.x2.size)

    @property
    def spacing(self):
        return np.array(
            [
                self.x1[1] - self.x1[0] if self.x1.size > 1 else 0.0,
                self.x2[1] - self.x2[0] if self.x2.size > 1 else 0.0,
            ]
        )

    @property
    def box(self):
        return ((self.x1[0], self.x1[-1]), (self.x2[0], self.x2[-1]))

    @property
    def diameter(self):
        return float(
            np.hypot(self.x1[-1] - self.x1[0], self.x2[-1] - self.x2[0])
        )

    def meshgrid(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def nodes(self):
        """All grid nodes as an (n1*n2, 2) array, row-major in (i, j)."""
        X1, X2 = self.meshgrid()
        return np.column_stack([X1.ravel(), X2.ravel()])

    def nearest_index(self, x):
        """Indices (i, j) of the node nearest to a point (2,), or arrays of
        them for points (n, 2); a point halfway between two nodes goes to
        the lower index."""
        x = np.asarray(x, dtype=float)
        i = _nearest(self.x1, x[..., 0])
        j = _nearest(self.x2, x[..., 1])
        return (int(i), int(j)) if x.ndim == 1 else (i, j)

    def node(self, i, j):
        return np.array([self.x1[i], self.x2[j]])


def _rk4_sweep(z_init, positions, deriv):
    """March z along a 1-D chain of positions with classical RK4.

    ``z_init`` may be scalar or a vector of independent states; ``deriv``
    takes (t, z) with matching shapes.  Returns states at every position.
    """
    states = [np.array(z_init, dtype=float, copy=True)]
    for t0, t1 in zip(positions[:-1], positions[1:]):
        h = t1 - t0
        z = states[-1]
        k1 = deriv(t0, z)
        k2 = deriv(t0 + 0.5 * h, z + 0.5 * h * k1)
        k3 = deriv(t0 + 0.5 * h, z + 0.5 * h * k2)
        k4 = deriv(t1, z + h * k3)
        states.append(z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


def march_both_ways(z_init, positions, k, deriv):
    """RK4-march from ``positions[k]`` to both ends of the chain.

    Returns the states at every position, in the order of ``positions``.
    """
    ahead = _rk4_sweep(z_init, positions[k:], deriv)
    behind = _rk4_sweep(z_init, positions[k::-1], deriv)
    return np.concatenate([behind[:0:-1], ahead])


def staircase(grid, anchor, z0, slope, first_axis):
    """Integrate dz = slope(x, z) . dx over the grid from an anchor node.

    ``slope`` maps points (n, 2) and states (n,) to (n, 2).  RK4 marches
    z from node ``anchor`` = (i, j) along the grid line through it on
    ``first_axis``, then from every node of that line along the other
    axis.  Returns z on the grid, shape ``grid.shape``.  When the slope
    is a gradient field the result does not depend on ``first_axis`` up
    to RK4 accuracy; a slope that ignores z is integrated by Simpson's
    rule.
    """
    a, b = first_axis, 1 - first_axis
    axes = (grid.x1, grid.x2)

    def along_line(t, z):
        x = np.empty((1, 2))
        x[0, a], x[0, b] = t, axes[b][anchor[b]]
        return slope(x, z)[:, a]

    z_line = march_both_ways(np.atleast_1d(z0), axes[a], anchor[a], along_line)

    def across(t, z):
        x = np.empty((axes[a].size, 2))
        x[:, a], x[:, b] = axes[a], t
        return slope(x, z)[:, b]

    z = march_both_ways(z_line[:, 0], axes[b], anchor[b], across)
    return z.T if first_axis == 0 else z
