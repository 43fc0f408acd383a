"""Tensor-product interpolating splines over a design grid, in numpy.

``GridSpline`` is the spline that FITPACK's ``regrid`` (scipy's
``RectBivariateSpline`` with ``s=0``) builds through samples on a
``Grid2D``, fit and evaluated as array code (Dierckx, *Curve and Surface
Fitting with Splines*, 1993):

* knots: for an odd order ``k`` the interior knots are the sites
  ``x[k//2+1 : m-k//2-1]``, for an even ``k`` the midpoints of the
  neighbouring sites, and both ends are ``k+1``-fold;
* fit: FITPACK's Givens reduction of the banded collocation rows, x1
  then x2, and its back-substitutions, x2 then x1; several fields on one
  grid share every rotation and are fit in one call;
* partials: the coefficients are differenced once per partial order and
  cached, and one Cox-de Boor pass per axis gives the bases of every
  degree a call asks for;
* a coordinate outside the knot span is clamped to the span, so the
  spline is constant along the outward normal of its box.

Every step does FITPACK's floating-point operations in FITPACK's order,
each as one elementwise numpy operation, so where FITPACK is compiled
without fused multiply-adds the results are scipy's, bit for bit.  (Two
steps of the fit can give a zero coefficient the other sign, and do
nothing else: a data row that FITPACK rotates into an empty triangle row
is stored there by the rotation before, and a zero pivot, which FITPACK
skips, is a rotation by angle 0.  No value or partial can show it, since
each sum starts from +0.)  Each evaluated row is computed by the same
operations whatever the batch, so a single point is bit-equal to its
row in any batch.
"""

import math

import numpy as np

VALUE = ((0, 0),)
GRADIENT = ((1, 0), (0, 1))
HESSIAN = ((2, 0), (1, 1), (0, 2))


def _interpolation_knots(x, k):
    """FITPACK's knots for the order-``k`` interpolating spline through
    the sites ``x``: ``k+1``-fold end knots around the interior knots."""
    x = np.asarray(x, dtype=float)
    h = k // 2
    if k % 2:
        inner = x[h + 1:x.size - h - 1]
    else:
        inner = (x[h + 1:x.size - h] + x[h:x.size - h - 1]) * 0.5
    return np.concatenate([np.full(k + 1, x[0]), inner, np.full(k + 1, x[-1])])


class GridSpline:
    """The order-``order`` interpolating tensor spline through samples
    ``values`` (n1, n2) or (n1, n2, c) on ``grid``.

    ``spline(x, *partials)`` evaluates the partials ``(nu1, nu2)``, each
    ``nu <= order``, at points ``x`` (..., 2) and returns one array (...)
    or (..., c) per partial, in the order asked; with no partials it
    returns the value.  A spline keeps a scratch buffer between
    evaluations, so one spline must not be evaluated from two threads at
    once.
    """

    def __init__(self, grid, values, order):
        self.order = k = int(order)
        if k < 1:
            raise ValueError(f"spline order {order} < 1")
        sites = (np.asarray(grid.x1, dtype=float), np.asarray(grid.x2, dtype=float))
        for name, s in zip(("x1", "x2"), sites):
            if s.size <= k:
                raise ValueError(
                    f"axis {name} has {s.size} nodes; an order-{k} spline "
                    f"needs at least {k + 1}")
            if not np.all(np.diff(s) > 0.0):
                raise ValueError(f"axis {name} is not strictly increasing")
        z = np.asarray(values, dtype=float)
        shape = tuple(s.size for s in sites)
        if z.shape[:2] != shape or z.ndim not in (2, 3):
            raise ValueError(f"values of shape {z.shape} on a {shape} grid")
        self._columns = z.shape[2:]
        self._knots = tuple(_interpolation_knots(s, k) for s in sites)
        # Both axes in one knot array, so that one gather serves both.
        self._flat_knots = np.concatenate(self._knots)
        self._knot_offset = np.array([[0], [self._knots[0].size]])
        self._interior = tuple(t[k + 1:t.size - k - 1] for t in self._knots)
        self._span = np.array([[t[k], t[-k - 1]] for t in self._knots])
        # FITPACK's fpgrre: rotate the x1 collocation rows into a
        # triangle, then the x2 rows, then back-substitute along x2 and
        # along x1.  Each column of the right-hand sides is one (node,
        # field) pair, so the fields of a stack share every rotation.
        n1, n2 = shape
        band1, rotations1 = _givens_rotations(*self._collocation(sites[0], 0))
        band2, rotations2 = ((band1, rotations1) if np.array_equal(sites[0], sites[1])
                             else _givens_rotations(*self._collocation(sites[1], 1)))
        q = _swap_axes(_rotate(rotations1, z.reshape(n1, -1)), n1, n2)
        q = _swap_axes(_back_substitute(band2, _rotate(rotations2, q)), n2, n1)
        coeffs = _back_substitute(band1, q)
        # (c, n1, n2): each field's coefficients in one block
        self._coeffs = {(0, 0): np.ascontiguousarray(
            coeffs.reshape(n1, n2, -1).transpose(2, 0, 1))}
        self._gathers = {}
        self._buffer = np.empty(0)

    def _collocation(self, sites, axis):
        """The k+1 nonzero B-splines at each site and the index of the
        first of them."""
        ell = self._intervals(sites, axis)
        k = self.order
        return self._bases(sites, ell + self._knot_offset[axis], k)[k].T, ell - k

    def __call__(self, x, *partials):
        partials = partials or VALUE
        k = self.order
        if any(not 0 <= nu <= k for p in partials for nu in p):
            raise ValueError(f"partials {partials} of an order-{k} spline")
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (2,):
            raise ValueError(f"points of shape {x.shape}, expected (..., 2)")
        batch = x.shape[:-1]
        # (2, n): one row per axis, each coordinate clamped to the span.
        pts = np.minimum(np.maximum(x.reshape(-1, 2).T, self._span[:, :1]),
                         self._span[:, 1:])
        return tuple(v.reshape(batch + self._columns)
                     for v in self._evaluate(pts, partials))

    def _evaluate(self, pts, partials):
        """The partials at the clamped points ``pts`` (2, n), each as an
        (n, c) array, or (n,) for a spline of one field."""
        k = self.order
        ell = np.array([self._intervals(pts[0], 0), self._intervals(pts[1], 1)])
        bases = self._bases(pts, ell + self._knot_offset,
                            k - min(nu for p in partials for nu in p))
        n, cols = pts.shape[1], self._coeffs[(0, 0)].shape[0]
        out = []
        # FITPACK's fpbisp sums (coefficient * B1_i) * B2_j over (i, j) in
        # order.
        for nu1, nu2 in partials:
            p1, p2 = k + 1 - nu1, k + 1 - nu2
            terms = self._scratch((1, cols, p1 * p2, n))
            g = terms.reshape(cols, p1, p2, n)
            coeffs, offsets, stride = self._gather(nu1, nu2)
            np.take(coeffs, (ell[0] - k) * stride + ell[1] - k + offsets,
                    axis=1, out=g, mode="clip")
            g *= bases[k - nu1][:, 0, None, :]
            g *= bases[k - nu2][:, 1]
            v = _sum_in_order(terms)[0]
            out.append(v.T if self._columns else v[0])
        return out

    def _scratch(self, shape):
        """An uninitialised array of ``shape`` in the buffer that the
        spline keeps and reuses.  The terms of one partial at 2000 points
        of a 3-field order-5 fit take 1.4 MB.  Taken fresh on every call,
        a trace's speed depended on whether the C heap had that much in
        one piece (in one benchmark run, 672 page faults per trace, and
        none with a kept buffer); kept inside the C heap, the buffer
        fragmented it (peak RSS 6.5 MB higher over a 40-s run).  So the
        buffer is an anonymous memory map, outside the heap."""
        size = math.prod(shape)
        if self._buffer.size < size:
            import mmap  # on first use: importing the package needs no mmap

            self._buffer = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
        return self._buffer[:size].reshape(shape)

    def _intervals(self, s, axis):
        """Index ``l`` of the knot interval [t_l, t_l+1) that holds each
        coordinate ``s`` of the knot span, the last interval for its
        right end."""
        return np.searchsorted(self._interior[axis], s, side="right") + self.order

    def _bases(self, s, ell, top):
        """The d+1 nonzero B-splines of every degree d <= ``top`` at the
        coordinates ``s`` in the intervals of flat knot index ``ell``, as
        arrays (d+1,) + s.shape (FITPACK's ``fpbspl``).  The degree-d
        splines on the full knots are those of the (k-d)-th derivative
        on its trimmed knots, so one pass serves every partial."""
        k = self.order
        knots = self._flat_knots[ell + np.arange(1 - k, k + 1).reshape((-1,) + (1,) * s.ndim)]
        right = knots[k:] - s   # t_{l+1} - s, ..., t_{l+k} - s
        left = s - knots[:k]    # s - t_{l+1-k}, ..., s - t_l
        h = np.ones((1,) + s.shape)
        out = {0: h}
        for j in range(1, top + 1):
            f = h / (knots[k:k + j] - knots[k - j:k])
            h = np.empty((j + 1,) + s.shape)
            h[:j] = f * right[:j]
            h[j] = 0.0
            h[1:] += f * left[k - j:]
            out[j] = h
        return out

    def _gather(self, nu1, nu2):
        """The coefficients of the (nu1, nu2) partial as (c, m1 * m2), with
        the flat offsets (p1, p2, 1) of a window of p1 x p2 of them and
        its row stride m2, computed once."""
        key = (nu1, nu2)
        if key not in self._gathers:
            c = self._partial_coeffs(nu1, nu2)
            p1, p2 = self.order + 1 - nu1, self.order + 1 - nu2
            offsets = np.arange(p1)[:, None, None] * c.shape[2] + np.arange(p2)[:, None]
            self._gathers[key] = (c.reshape(c.shape[0], -1), offsets, c.shape[2])
        return self._gathers[key]

    def _partial_coeffs(self, nu1, nu2):
        """B-spline coefficients (c, m1, m2) of the (nu1, nu2) partial, by
        differencing those of one order lower, x1 first (FITPACK's
        ``parder``)."""
        key = (nu1, nu2)
        if key not in self._coeffs:
            axis, nu = (2, nu2) if nu2 else (1, nu1)
            lower = self._partial_coeffs(nu1 - (axis == 1), nu2 - (axis == 2))
            t, k = self._knots[axis - 1], self.order
            i = np.arange(lower.shape[axis] - 1)
            span = np.expand_dims(t[k + 1 + i] - t[nu + i], (0, 3 - axis))
            self._coeffs[key] = np.diff(lower, axis=axis) * (k + 1 - nu) / span
        return self._coeffs[key]


def _swap_axes(q, rows, cols):
    """Right-hand sides (rows, cols * c) along one axis as (cols, rows *
    c) along the other."""
    return q.reshape(rows, cols, -1).transpose(1, 0, 2).reshape(cols, -1)


def _sum_in_order(terms):
    """FITPACK's sum over axis 2 of ``terms`` (g, c, p, n): 0 + t_0 + t_1
    + ..., one term at a time.

    ``np.add.reduce`` adds in index order along any axis but the fast one
    in memory, which is n when n > 1; for one point the last partial sum
    of ``np.add.accumulate``, which adds in order along any axis, is
    taken.  ``(t_0 + ...) + 0.0`` equals ``(0 + t_0) + ...`` bit for bit,
    -0.0 included.
    """
    if terms.shape[3] > 1:
        v = np.add.reduce(terms, axis=2)
    else:
        v = np.add.accumulate(terms, axis=2)[:, :, -1]
    v += 0.0
    return v


def _givens_rotations(basis, first):
    """The Givens rotations that reduce a banded collocation matrix to
    upper-triangular form, one row at a time (FITPACK's ``fpgrre``).

    Row i has the nonzero entries ``basis[i]`` (k+1 floats) in the
    columns from ``first[i]`` on.  Returns the band of the triangle,
    diagonal first, as an (m, k+1) array, and the rotations in the form
    ``_rotate`` applies them.  They depend on the sites alone, so
    they are found once, on floats, for every field.
    """
    m, width = basis.shape
    band = [[0.0] * width for _ in range(m)]
    chains = []
    for row, start in zip(basis.tolist(), first.tolist()):
        chain = []  # [triangle row, cos, sin, t, whether it fills the next row]
        for i, piv in enumerate(row):
            irot = start + i
            if piv == 0.0:
                if chain:  # FITPACK skips it: the data row passes unchanged
                    chain.append([irot, 1.0, 0.0, 1.0, False])
                continue
            tri = band[irot]
            ww = tri[0]
            if ww == 0.0:
                # An empty triangle row (cos 0, sin +-1) takes the rest
                # of the data row whole and leaves no pivot behind.
                sign = 1.0 if piv > 0.0 else -1.0
                tri[0] = abs(piv)
                tri[1:width - i] = [sign * h + 0.0 for h in row[i + 1:]]
                if chain:
                    chain[-1][3:] = sign, True
                else:
                    chain.append([irot, 0.0, sign, 1.0, False])
                break
            store = abs(piv)
            if store >= ww:
                dd = store * math.sqrt(1.0 + (ww / piv) * (ww / piv))
            else:
                dd = ww * math.sqrt(1.0 + (piv / ww) * (piv / ww))
            cos, sin = ww / dd, piv / dd
            tri[0] = dd
            for j in range(i + 1, width):
                b, h = tri[j - i], row[j]
                tri[j - i] = cos * b + sin * h
                row[j] = cos * h - sin * b
            chain.append([irot, cos, sin, 1.0, False])
        chains.append(chain)
    # A rotation at triangle row j takes (q_j, x), the row's right-hand
    # side and the data row on its way down, to (cos q_j + sin x,
    # t (cos x - sin q_j)), as FITPACK's fprota for t = 1, and x moves on
    # to row j + 1.  When row j + 1 is empty, FITPACK rotates x into it
    # by cos 0 and sin t = +-1, which stores 0 * 0 + t x; here the
    # rotation at j writes t x into row j + 1 itself ("fills" it).
    # The first rotation of a chain takes x from its data row, so its
    # coefficients of q_j and of x are kept apart, (m, 2, 1) each.
    firsts = [chain[0] for chain in chains]
    q_coefs = np.array([(cos, -t * sin) for _, cos, sin, t, _ in firsts])[..., None]
    x_coefs = np.array([(sin, t * cos) for _, cos, sin, t, _ in firsts])[..., None]
    later = iter(list(np.array(
        [((cos, sin), (-t * sin, t * cos)) for chain in chains
         for _, cos, sin, t, _ in chain[1:]]).reshape(-1, 2, 2, 1)))
    rows = [(chain[0][0], chain[0][4], first_q_coefs,
             [(j, next(later), fills) for j, _, _, _, fills in chain[1:]])
            for chain, first_q_coefs in zip(chains, q_coefs)]
    return np.array(band), (rows, x_coefs)


def _rotate(rotations, rhs):
    """Apply the rotations of ``_givens_rotations`` to the right-hand
    sides ``rhs`` (m, r), row i of them along chain i.  Returns the
    rotated right-hand sides (m, r)."""
    rows, x_coefs = rotations
    m, r = rhs.shape
    # work[j] holds (q_j, the data row on its way into row j).  A rotation
    # at row j writes (q_j, the data row on its way into row j + 1), or
    # (q_j, q_j+1) when it fills row j + 1: into[False] and into[True],
    # views with row strides of 3 r and 2 r.  Every view is made once.
    work = np.zeros((m + 1, 2, r))
    s0, s1, s2 = work.strides
    into = (list(np.lib.stride_tricks.as_strided(work, (m, 2, r), (s0, s0 + s1, s2))),
            list(np.lib.stride_tricks.as_strided(work, (m, 2, r), (s0, s0, s2))))
    q, pairs = list(work[:, 0]), list(work)
    # The first rotations' products with the data rows, all at once
    data_terms = list(x_coefs * rhs[:, None])
    prod = np.empty((2, 2, r))
    from_q, from_x = prod[:, 0], prod[:, 1]
    multiply, add = np.multiply, np.add
    for (j, fills, q_coefs, later), x_terms in zip(rows, data_terms):
        multiply(q[j], q_coefs, from_q)
        add(from_q, x_terms, into[fills][j])
        for j, coefs, fills in later:
            multiply(pairs[j], coefs, prod)
            add(from_q, from_x, into[fills][j])
    return work[:m, 0]


def _back_substitute(band, q):
    """Solve the banded upper-triangular system ``band`` (m, k+1),
    diagonal first, for the right-hand sides ``q`` (m, r), from the last
    row up (FITPACK's ``fpback``)."""
    m, width = band.shape
    r = q.shape[1]
    c = np.zeros((m + width, r))  # rows past m stay zero: the band's end
    # terms[i] = (q_i, then the band's entries of row i, which become the
    # products that row i subtracts from q_i, in turn); every operand is
    # a contiguous (.., r) block, and every view is made once.
    terms = np.empty((m, width, r))
    terms[:, 0] = q
    terms[:, 1:] = band[:, 1:, None]
    after = list(np.lib.stride_tricks.as_strided(
        c[1:], shape=(m, width - 1, r), strides=(c.strides[0],) + c.strides))
    diagonal = list(np.repeat(band[:, :1], r, axis=1))
    products, rows = list(terms[:, 1:]), list(c)
    terms = list(terms)
    store = np.empty(r)
    for i in range(m - 1, -1, -1):
        np.multiply(after[i], products[i], products[i])
        np.subtract.reduce(terms[i], axis=0, out=store)  # in order
        np.divide(store, diagonal[i], rows[i])
    return c[:m]
