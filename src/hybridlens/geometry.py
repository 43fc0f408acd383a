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


def _rk4_sweep(z_init, t, deriv, steps=None):
    """March states with classical RK4 through a chain of positions.

    ``t`` (L + 1,) is one chain, from its start in the scalar state
    ``z_init``; ``deriv(t, z)`` then takes and gives scalars, so a
    single march pays no per-step array overhead.  Or ``t``
    (L + 1, n) holds in column r the chain of row r, which starts in
    state ``z_init[r]`` and takes ``steps[r]`` steps.  The step counts
    must not increase along the rows, so the rows still marching at
    step s are a prefix and no finished row is evaluated:
    ``deriv(t, z)`` takes positions and states (m,) of the first m rows
    and gives their slopes (m,).  Each row does the float operations of
    a march on its own.  Returns the states at the positions of ``t``;
    entries past a row's last step are unset.
    """
    h = t[1:] - t[:-1]
    half = 0.5 * h
    mid = t[:-1] + half
    sixth = h / 6.0
    z = np.empty(t.shape)
    z[0] = z_init
    if steps is None:
        prefixes = [()] * len(h)
    else:
        active = np.count_nonzero(steps[:, None] > np.arange(len(h)), axis=0)
        prefixes = [(slice(m),) for m in active.tolist()]
    for s, rows in enumerate(prefixes):
        now = (s,) + rows
        zs, hs = z[now], half[now]
        k1 = deriv(t[now], zs)
        k2 = deriv(mid[now], zs + hs * k1)
        k3 = deriv(mid[now], zs + hs * k2)
        k4 = deriv(t[(s + 1,) + rows], zs + h[now] * k3)
        z[(s + 1,) + rows] = zs + sixth[now] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def march_both_ways(z0, positions, k, deriv):
    """RK4-march a scalar state from ``positions[k]`` to both ends of the
    chain, ahead first, then behind; ``deriv(t, z)`` takes and gives
    scalars.  Returns the states at every position, in the order of
    ``positions``.
    """
    ahead = _rk4_sweep(z0, positions[k:], deriv)
    behind = _rk4_sweep(z0, positions[k::-1], deriv)
    return np.concatenate([behind[:0:-1], ahead])


def _march_lines(slope, axes, anchor, fixed, z_init):
    """RK4-march z along grid lines from the anchor's node to both ends
    of each axis, every line in one batch.

    The lines along axis a lie at the other coordinates ``fixed[a]``
    and start in the states ``z_init[a]``.  The batch holds the marches
    along x1 ahead (towards the last node), x1 behind, x2 ahead and x2
    behind, the lines of each by ascending start node, stably sorted by
    descending step count.  Returns per axis the states
    (axes[a].size, fixed[a].size).
    """
    marches = [(axis, chain) for axis in (0, 1)
               for chain in (axes[axis][anchor[axis]:],
                             axes[axis][anchor[axis]::-1])]
    order = sorted(range(4), key=lambda g: -marches[g][1].size)
    n = sum(fixed[axis].size for axis, _ in marches)
    t = np.empty((marches[order[0]][1].size, n))
    steps, z = np.empty(n, dtype=int), np.empty(n)
    along = np.zeros((n, 2), dtype=bool)
    x = np.empty((n, 2))
    cols, stop = [None] * 4, 0
    for g in order:
        axis, chain = marches[g]
        c = cols[g] = slice(stop, stop + fixed[axis].size)
        stop = c.stop
        t[:chain.size, c] = chain[:, None]
        t[chain.size:, c] = chain[-1]  # a finished line steps by 0
        steps[c], z[c] = chain.size - 1, z_init[axis]
        along[c, axis] = True
        x[c, 1 - axis] = fixed[axis]
    # a line's own component: x[r, axis] is its position, slope[r, axis]
    # its slope along the line
    own = np.flatnonzero(along)

    def deriv(tm, zm):
        m = tm.size
        xm = x[:m].copy()
        xm.ravel()[own[:m]] = tm  # a view: xm is contiguous
        return slope(xm, zm).take(own[:m])

    z = _rk4_sweep(z, t, deriv, steps)

    def both_ways(axis):
        ahead, behind = (z[:marches[g][1].size, cols[g]]
                         for g in (2 * axis, 2 * axis + 1))
        return np.concatenate([behind[:0:-1], ahead])

    return [both_ways(0), both_ways(1)]


def staircase(grid, anchor, z0, slope):
    """Integrate dz = slope(x, z) . dx over the grid from an anchor node,
    in both axis orders.

    ``slope`` maps points (n, 2) and states (n,) to (n, 2).  From node
    ``anchor`` = (i, j) in state ``z0``, RK4 marches z along the two
    grid lines through the anchor (the line sweep), then from every
    node of each line along the other axis (the across sweep).  Returns
    ``(z_x1_first, z_x2_first)``, each of shape ``grid.shape``.  When
    the slope is a gradient field the two agree up to RK4 accuracy; a
    slope that ignores z is integrated by Simpson's rule.

    Each sweep is one batched march, which makes 4 slope calls per step
    of its longest line; every line does the float operations it would
    do on its own.  A sweep's batch holds the marches along x1 ahead
    (towards the last node), along x1 behind, along x2 ahead and along
    x2 behind, the across lines of each by ascending start node, stably
    sorted by descending step count.  So a slope that raises for some
    lines sees the first failing stage of the earlier sweep, and within
    it the first failing line in that order.
    """
    axes = (grid.x1, grid.x2)
    i, j = anchor
    start = np.array([z0], dtype=float)
    along_x1, along_x2 = _march_lines(
        slope, axes, anchor, (axes[1][j:j + 1], axes[0][i:i + 1]),
        (start, start))
    # across from the x2 line along x1 (x2 first), from the x1 line
    # along x2 (x1 first)
    x2_first, x1_first = _march_lines(
        slope, axes, anchor, (axes[1], axes[0]),
        (along_x2[:, 0], along_x1[:, 0]))
    return x1_first.T, x2_first
