import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridlens.fields import point_source, recover_potential
from hybridlens.geometry import (
    FDStencil,
    Grid2D,
    cross2,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    outer,
    perp,
    staircase,
    sym_eig_2x2,
)
from hybridlens.imaging import rhs_V
from hybridlens.maps import dilation

finite = st.floats(-10.0, 10.0, allow_nan=False)


def test_cross2_basis():
    assert cross2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert cross2(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -1.0


def test_perp_rotates_left():
    assert np.allclose(perp(np.array([1.0, 0.0])), [0.0, 1.0])
    v = np.array([0.3, -0.7])
    assert abs(np.dot(v, perp(v))) < 1e-16


def test_outer_row_vector_convention():
    u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    m = outer(u, v)
    w = np.array([5.0, 6.0])
    # w (u (x) v) = (w . u) v
    assert np.allclose(w @ m, np.dot(w, u) * v)


@given(st.lists(finite, min_size=3, max_size=3))
@example([0.0, 0.0, 1.0927395518758486e-160])  # squared norms underflow
def test_sym_eig_2x2_diagonalizes(entries):
    a, b, d = entries
    m = np.array([[a, b], [b, d]])
    lam, vecs = sym_eig_2x2(m)
    assert lam[0] >= lam[1]
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)
    scale = max(1.0, np.abs(m).max())
    for i in range(2):
        assert np.allclose(m @ vecs[:, i], lam[i] * vecs[:, i],
                           atol=1e-10 * scale)


def test_fd_gradient_quadratic_exact():
    f = lambda x: 2.0 * x[..., 0] ** 2 + 3.0 * x[..., 0] * x[..., 1] - x[..., 1] ** 2
    x = np.array([0.4, -0.2])
    g = fd_gradient(f, x, FDStencil(1e-5, 1e-5))
    assert np.allclose(g, [4 * x[0] + 3 * x[1], 3 * x[0] - 2 * x[1]], atol=1e-9)


def test_fd_order4_beats_order2():
    f = lambda x: np.sin(3.0 * x[..., 0]) * np.exp(x[..., 1])
    x = np.array([0.3, 0.1])
    exact = 3.0 * np.cos(3.0 * x[0]) * np.exp(x[1])
    e2 = abs(fd_gradient(f, x, FDStencil(1e-3, 1e-3, order=2))[0] - exact)
    e4 = abs(fd_gradient(f, x, FDStencil(1e-3, 1e-3, order=4))[0] - exact)
    assert e4 < 1e-2 * e2


def test_fd_jacobian_and_curl():
    f = lambda x: np.stack([x[..., 1] ** 2, np.sin(x[..., 0])], axis=-1)
    x = np.array([0.5, 0.25])
    j = fd_jacobian(f, x, FDStencil(1e-5, 1e-5))
    assert np.allclose(j, [[0.0, 2 * x[1]], [np.cos(x[0]), 0.0]], atol=1e-9)
    c = j[1, 0] - j[0, 1]  # the scalar curl of a planar field
    assert abs(c - (np.cos(x[0]) - 2 * x[1])) < 1e-9


def scalar_map(x):
    return np.sin(3.0 * x[..., 0]) * np.exp(x[..., 1])


def vector_map(x):
    return np.stack([x[..., 1] ** 2, np.sin(x[..., 0]), x[..., 0] * x[..., 1]],
                    axis=-1)


@pytest.mark.parametrize("stencil", [None, FDStencil(1e-4, 2e-4),
                                     FDStencil(1e-3, 1e-3, order=4)],
                         ids=["per-point", "order2", "order4"])
def test_fd_batch_matches_single_points(stencil, rng):
    x = rng.uniform(-2.0, 2.0, (40, 2))  # per-point steps differ here
    cases = [
        (lambda p: fd_jacobian(vector_map, p, stencil)[..., 1], (40, 3)),
        (lambda p: fd_gradient(scalar_map, p, stencil), (40, 2)),
        (lambda p: fd_jacobian(vector_map, p, stencil), (40, 3, 2)),
        (lambda p: fd_hessian(scalar_map, p, stencil), (40, 2, 2)),
    ]
    for fd, shape in cases:
        batch = fd(x)
        assert batch.shape == shape
        for i in range(len(x)):
            assert np.array_equal(batch[i], fd(x[i]))
        assert np.array_equal(fd(x.reshape(4, 10, 2)),
                              batch.reshape((4, 10) + shape[1:]))


def test_fd_calls_f_once_on_the_whole_stencil():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return scalar_map(x)

    for x in (np.zeros(2), np.zeros((25, 2))):
        shapes.clear()
        fd_jacobian(f, x, FDStencil(1e-3, 1e-3))
        fd_jacobian(f, x, FDStencil(1e-3, 1e-3, order=4))
        fd_hessian(f, x, FDStencil(1e-3, 1e-3))
        assert shapes == [(4,) + x.shape, (8,) + x.shape, (9,) + x.shape]


def pointwise(f, x, h, offset):
    """f at x + offset * h, evaluated one point at a time."""
    pts = x + np.asarray(offset, dtype=float) * h
    vals = [f(p) for p in pts.reshape(-1, 2)]
    return np.reshape(vals, pts.shape[:-1] + np.shape(vals[0]))


def reference_jacobian(f, x, stencil):
    """The central differences of ``fd_jacobian``, term for term."""
    cols = []
    for axis in (0, 1):
        e, h = np.eye(2)[axis], stencil.steps[..., axis]
        at = lambda k: pointwise(f, x, stencil.steps, k * e)
        if stencil.order == 2:
            diff, denom = at(1) - at(-1), 2 * h
        else:
            diff, denom = 8 * (at(1) - at(-1)) - (at(2) - at(-2)), 12 * h
        denom = np.reshape(denom, denom.shape + (1,) * (diff.ndim - denom.ndim))
        cols.append(diff / denom)
    return np.stack(cols, axis=-1)


def reference_hessian(f, x, stencil):
    """The 9-point differences of ``fd_hessian``, term for term."""
    h1, h2 = stencil.steps[..., 0], stencil.steps[..., 1]
    at = lambda o1, o2: pointwise(f, x, stencil.steps, (o1, o2))
    d11 = (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / h1**2
    d22 = (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / h2**2
    d12 = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h1 * h2)
    return np.stack([np.stack([d11, d12], -1), np.stack([d12, d22], -1)], -2)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("steps", ["per-point", "fixed"])
@pytest.mark.parametrize("n", [None, 30], ids=["one-point", "batch"])
def test_fd_one_call_equals_pointwise_differences(order, steps, n, rng):
    x = rng.uniform(-2.0, 2.0, (n or 1, 2))  # per-point steps differ here
    x = x if n else x[0]
    stencil = (FDStencil.for_point(x, order=order) if steps == "per-point"
               else FDStencil(1e-3, 2e-3, order=order))
    for f in (scalar_map, vector_map):
        assert np.array_equal(fd_jacobian(f, x, stencil),
                              reference_jacobian(f, x, stencil))
    assert np.array_equal(fd_hessian(scalar_map, x, stencil),
                          reference_hessian(scalar_map, x, stencil))


def test_fd_rejects_a_single_point_callback():
    f = lambda x: x[0] ** 2 - x[1]  # indexes one point, not a batch
    # even one point is a batch: its stencil points go to f in one call
    for x in (np.array([1.0, 2.0]), np.zeros((5, 2))):
        for fd in (fd_gradient, fd_jacobian, fd_hessian):
            with pytest.raises(ValueError):
                fd(f, x, FDStencil(1e-3, 1e-3))


def test_fd_hessian_symmetric_and_exact_for_quadratics():
    f = lambda x: x[..., 0] ** 2 - 4.0 * x[..., 0] * x[..., 1] + 2.5 * x[..., 1] ** 2
    h = fd_hessian(f, np.array([1.0, 2.0]), FDStencil(1e-4, 1e-4))
    assert np.allclose(h, h.T)
    assert np.allclose(h, [[2.0, -4.0], [-4.0, 5.0]], atol=1e-6)


class TestGrid2D:
    def test_from_box_shape_spacing(self):
        g = Grid2D.from_box(((-1.0, 1.0), (0.0, 2.0)), 5, 9)
        assert g.shape == (5, 9)
        assert np.allclose(g.spacing, [0.5, 0.25])
        assert g.box == ((-1.0, 1.0), (0.0, 2.0))

    @pytest.mark.parametrize("n1, n2", [(0, 0), (1, 1), (1, 5), (5, 1), (-2, 3)])
    def test_from_box_needs_two_nodes_per_axis(self, n1, n2):
        with pytest.raises(ValueError, match="at least 2 nodes per axis"):
            Grid2D.from_box(((0.0, 1.0), (0.0, 1.0)), n1, n2)

    def test_nodes_row_major(self):
        g = Grid2D.from_box(((0.0, 1.0), (0.0, 1.0)), 3)
        nodes = g.nodes()
        assert nodes.shape == (9, 2)
        assert np.allclose(nodes[0], [0.0, 0.0])
        assert np.allclose(nodes[1], [0.0, 0.5])
        assert np.allclose(nodes[3], [0.5, 0.0])

    def test_nearest_index_round_trip(self, rng):
        g = Grid2D.from_box(((-1.0, 1.0), (-1.0, 1.0)), 21)
        for _ in range(20):
            i, j = rng.integers(0, 21, 2)
            assert g.nearest_index(g.node(i, j)) == (i, j)

    def test_nearest_index_batch_matches_loop(self, rng):
        def reference(axis, u):  # the per-point rule, ties to the lower node
            i = int(np.clip(np.searchsorted(axis, u), 1, axis.size - 1))
            return i - 1 if abs(axis[i - 1] - u) <= abs(axis[i] - u) else i

        g = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 201)
        centres = 0.5 * (g.x1[:-1] + g.x1[1:])
        pts = np.concatenate([
            rng.uniform(-0.8, 0.8, (200, 2)),                     # in and out
            np.column_stack([centres, centres[::-1]]),            # ties
            np.column_stack([g.x1, g.x2[::-1]]),                  # nodes
        ])
        i, j = g.nearest_index(pts)
        assert np.array_equal(i, [reference(g.x1, p[0]) for p in pts])
        assert np.array_equal(j, [reference(g.x2, p[1]) for p in pts])
        assert g.nearest_index(pts[0]) == (int(i[0]), int(j[0]))

    def test_meshgrid_matches_nodes(self):
        g = Grid2D.from_box(((0.0, 1.0), (0.0, 2.0)), 4, 6)
        x1, x2 = g.meshgrid()
        assert x1.shape == (4, 6)
        assert np.allclose(x1[:, 0], g.x1)
        assert np.allclose(x2[0, :], g.x2)


CUBIC_GRID = Grid2D.from_box(((-0.3, 0.9), (-0.5, 0.2)), 13, 8)


def cubic_slope(x, z):
    """Gradient of h = x1^3 - 2 x1 x2^2 + x2^3 + 0.5 x1; ignores z."""
    return np.stack(
        [3.0 * x[:, 0] ** 2 - 2.0 * x[:, 1] ** 2 + 0.5,
         -4.0 * x[:, 0] * x[:, 1] + 3.0 * x[:, 1] ** 2], axis=-1)


@pytest.mark.parametrize("order", [0, 1])
def test_staircase_integrates_a_cubic_gradient_exactly(order):
    # Simpson's rule, which RK4 reduces to on a slope that ignores z, is
    # exact for cubics; a transposed or mirrored march would not be
    grid = CUBIC_GRID
    h = lambda x1, x2: x1**3 - 2.0 * x1 * x2**2 + x2**3 + 0.5 * x1
    z = staircase(grid, (9, 2), 1.0, cubic_slope)[order]
    x1, x2 = grid.meshgrid()
    exact = 1.0 + h(x1, x2) - h(grid.x1[9], grid.x2[2])
    assert z.shape == (13, 8)
    assert np.max(np.abs(z - exact)) < 1e-14


def sequential_staircase(grid, anchor, z0, slope, first_axis):
    """The staircase one line at a time, one point per slope call.

    RK4 marches z from the anchor along the grid line on ``first_axis``,
    ahead and then behind, then from each node of that line along the
    other axis.  Oracle for the batched ``staircase``.
    """
    axes = (grid.x1, grid.x2)

    def march(z, chain, axis, fixed):
        def f(t, z):
            x = np.empty((1, 2))
            x[0, axis], x[0, 1 - axis] = t, fixed
            return slope(x, np.array([z]))[0, axis]

        states = [z]
        for t0, t1 in zip(chain[:-1], chain[1:]):
            h = t1 - t0
            k1 = f(t0, z)
            k2 = f(t0 + 0.5 * h, z + 0.5 * h * k1)
            k3 = f(t0 + 0.5 * h, z + 0.5 * h * k2)
            k4 = f(t1, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(z)
        return states

    def both_ways(z, axis, fixed):
        k = anchor[axis]
        ahead = march(z, axes[axis][k:], axis, fixed)
        behind = march(z, axes[axis][k::-1], axis, fixed)
        return np.array(behind[:0:-1] + ahead)

    a, b = first_axis, 1 - first_axis
    line = both_ways(np.float64(z0), a, axes[b][anchor[b]])
    z = np.array([both_ways(line[i], b, axes[a][i])
                  for i in range(axes[a].size)])
    return z if first_axis == 0 else z.T


def dilation_slope(x, z):
    return rhs_V(x, z, dilation(0.05), 1.5, 1.0)


def point_source_slope(x, z):
    return point_source((0.3, -0.2, -4.0)).eprime(x)


GRID_2x7 = Grid2D.from_box(((-0.3, 0.9), (-0.5, 0.2)), 2, 7)
GRID_9x2 = Grid2D.from_box(((-0.3, 0.9), (-0.5, 0.2)), 9, 2)
# the four corners, two edges and an off-centre node, and grids with a
# 2-node axis
STAIRCASE_CASES = [
    (CUBIC_GRID, anchor) for anchor in
    [(0, 0), (12, 0), (0, 7), (12, 7), (0, 3), (6, 7), (9, 2)]
] + [(GRID_2x7, (0, 3)), (GRID_2x7, (1, 6)), (GRID_9x2, (4, 1))]
STAIRCASE_IDS = [f"{g.shape[0]}x{g.shape[1]}-{i}-{j}"
                 for g, (i, j) in STAIRCASE_CASES]


@pytest.mark.parametrize("grid, anchor", STAIRCASE_CASES, ids=STAIRCASE_IDS)
@pytest.mark.parametrize("slope, z0", [(dilation_slope, 0.6),
                                       (point_source_slope, 0.0)],
                         ids=["rhs_V", "simpson"])
def test_staircase_is_bit_equal_to_sequential_marches(grid, anchor, slope, z0):
    z = staircase(grid, anchor, z0, slope)
    for first_axis in (0, 1):
        expected = sequential_staircase(grid, anchor, z0, slope, first_axis)
        assert np.array_equal(z[first_axis], expected)


@pytest.mark.parametrize("grid, anchor", STAIRCASE_CASES, ids=STAIRCASE_IDS)
def test_recover_potential_is_bit_equal_to_sequential_marches(grid, anchor):
    field = point_source((0.3, -0.2, -4.0))
    h, residual = recover_potential(field, grid, grid.node(*anchor))
    h_row, h_col = (sequential_staircase(grid, anchor, 0.0,
                                         point_source_slope, first_axis)
                    for first_axis in (0, 1))
    assert np.array_equal(h, 0.5 * (h_row + h_col))
    assert residual == np.max(np.abs(h_row - h_col))


@pytest.mark.parametrize("grid, anchor, calls", [
    (Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 201), (100, 100), 800),
    (CUBIC_GRID, (9, 2), 72),
])
def test_staircase_makes_four_slope_calls_per_step_of_each_sweep(
        grid, anchor, calls):
    # a sweep steps as often as its longest line; each stage evaluates
    # only the lines still marching, so the points evaluated are four per
    # step of every line: the two lines through the anchor, and the
    # lines across from each of their nodes
    rows = []

    def counted(x, z):
        rows.append(z.size)
        return cubic_slope(x, z)

    staircase(grid, anchor, 1.0, counted)
    n1, n2 = grid.shape
    steps = (n1 - 1) + (n2 - 1) + n1 * (n2 - 1) + n2 * (n1 - 1)
    assert len(rows) == calls
    assert sum(rows) == 4 * steps
