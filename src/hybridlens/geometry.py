"""Small fixed-dimension linear algebra, finite-difference machinery, the
grid, and RK4 integration over it from an anchor node.

Vectors are plain numpy arrays treated as row vectors; ``outer(u, v)``
is u^t v so that ``w @ outer(u, v) = (w . u) v`` for row vectors acting
on the left.
"""

from dataclasses import dataclass

import numpy as np


def cross2(a, b):
    """Scalar cross product a1*b2 - a2*b1 of 2-vectors (..., 2)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


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


def batch_eval(f, x, tail, what):
    """``f(x)`` as a float array of shape ``x.shape[:-1] + tail``.

    ``x`` holds points (..., 2); a single point is the batch ``()``.
    With ``tail=None`` only the leading batch axes are checked.  Raises
    ``ValueError`` naming ``what`` when a callback breaks this contract,
    e.g. one written for a single point and called on a batch.
    """
    v = np.asarray(f(x), dtype=float)
    batch = x.shape[:-1]
    if v.shape[:len(batch)] != batch or (
        tail is not None and v.shape[len(batch):] != tail
    ):
        raise ValueError(
            f"{what} gave shape {v.shape} for points of shape {x.shape}"
        )
    return v


def constant_over(x, value):
    """``value`` repeated at every point of ``x`` (..., 2)."""
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, np.shape(x)[:-1] + value.shape).copy()


def mat2(a, b, c, d):
    """Matrices [[a, b], [c, d]] of shape (..., 2, 2) from entries (...)."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack(
        [np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2
    )


@dataclass(frozen=True)
class FDStencil:
    """Central-difference step sizes for 2-D differentiation.

    ``h1`` and ``h2`` are floats, or arrays (...) of per-point steps for
    a batch of points (..., 2), as ``for_point`` makes them.
    """

    h1: float = 1e-5
    h2: float = 1e-5
    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        if np.any(np.asarray(self.h1) <= 0) or np.any(np.asarray(self.h2) <= 0):
            raise ValueError("step sizes must be positive")

    @staticmethod
    def for_point(x, order=2):
        """Default step max(1e-5, 1e-5 |x_i|) at each point of ``x``
        (..., 2), balancing truncation and roundoff."""
        h = np.maximum(1e-5, 1e-5 * np.abs(np.asarray(x, dtype=float)))
        return FDStencil(h1=h[..., 0], h2=h[..., 1], order=order)

    @property
    def steps(self):
        """Steps (2,), or (..., 2) for per-point steps."""
        return np.stack(np.broadcast_arrays(self.h1, self.h2), axis=-1)


def _on_stencil(f, x, steps, offsets, tail):
    """f at the points x + o * steps for every offset o (k, 2), given in
    units of the steps (..., 2): one call on points (k, ..., 2), giving
    values (k, ..., *tail)."""
    o = np.reshape(offsets, (len(offsets),) + (1,) * (x.ndim - 1) + (2,))
    return batch_eval(f, x + o * steps, tail, "f")


def fd_jacobian(f, x, stencil=None):
    """Derivative (..., *tail, 2) of a map from points (..., 2) to values
    (..., *tail) by central differences: the gradient (..., 2) of a
    scalar map, the Jacobian (..., m, 2) of a map into R^m.

    f is called once, on every stencil point of every point of ``x``.
    """
    x = np.asarray(x, dtype=float)
    stencil = stencil or FDStencil.for_point(x)
    reach = (1,) if stencil.order == 2 else (1, 2)
    offsets = [sign * r * np.eye(2)[axis]
               for r in reach for sign in (1, -1) for axis in (0, 1)]
    v = _on_stencil(f, x, stencil.steps, offsets, None)
    v = v.reshape((len(reach), 2, 2) + v.shape[1:])  # reach, sign, axis
    h = np.moveaxis(stencil.steps, -1, 0)
    if stencil.order == 2:
        diff, denom = v[0, 0] - v[0, 1], 2 * h
    else:
        diff = 8 * (v[0, 0] - v[0, 1]) - (v[1, 0] - v[1, 1])
        denom = 12 * h
    denom = denom.reshape(denom.shape + (1,) * (diff.ndim - denom.ndim))
    # stacked, not a moved-axis view: numpy's matmul rounds a strided
    # operand differently from a contiguous one
    return np.stack(tuple(diff / denom), axis=-1)


# The gradient of a scalar map is its Jacobian under the batch contract.
fd_gradient = fd_jacobian

_HESSIAN_OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                    (1, 1), (1, -1), (-1, 1), (-1, -1)]


def fd_hessian(f, x, stencil=None):
    """Symmetric Hessian (..., 2, 2) of a scalar map on a 9-point stencil,
    calling f once, on every stencil point of every point of ``x``."""
    x = np.asarray(x, dtype=float)
    stencil = stencil or FDStencil.for_point(x)
    h1, h2 = stencil.steps[..., 0], stencil.steps[..., 1]
    f00, fp0, fm0, f0p, f0m, fpp, fpm, fmp, fmm = _on_stencil(
        f, x, stencil.steps, _HESSIAN_OFFSETS, ())
    d11 = (fp0 - 2 * f00 + fm0) / h1**2
    d22 = (f0p - 2 * f00 + f0m) / h2**2
    d12 = (fpp - fpm - fmp + fmm) / (4 * h1 * h2)
    return mat2(d11, d12, d12, d22)


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
        if min(n1, n2) < 2:
            raise ValueError(
                f"a grid needs at least 2 nodes per axis, got {n1}x{n2}")
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
