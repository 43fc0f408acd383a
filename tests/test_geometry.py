import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridlens.errors import DomainViolation
from hybridlens.geometry import (
    FDStencil,
    Grid2D,
    cross2,
    cross3,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    outer,
    perp,
    scalar_curl,
    sym_eig_2x2,
    sym_part,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)


def test_cross2_basis():
    assert cross2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert cross2(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -1.0


def test_cross3_matches_numpy(rng):
    # bit-equal, not merely close: io artifacts are 17-digit and bit-stable
    vs, ws = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))
    for v, w in zip(vs, ws):
        assert np.array_equal(cross3(v, w), np.cross(v, w))
    with pytest.raises(ValueError):
        cross3(np.eye(3), np.eye(3))


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


def test_sym_part():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = sym_part(m)
    assert np.allclose(s, s.T)
    assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])


def test_fd_gradient_quadratic_exact():
    f = lambda x: 2.0 * x[0] ** 2 + 3.0 * x[0] * x[1] - x[1] ** 2
    x = np.array([0.4, -0.2])
    g = fd_gradient(f, x, FDStencil(1e-5, 1e-5))
    assert np.allclose(g, [4 * x[0] + 3 * x[1], 3 * x[0] - 2 * x[1]], atol=1e-9)


def test_fd_order4_beats_order2():
    f = lambda x: np.sin(3.0 * x[0]) * np.exp(x[1])
    x = np.array([0.3, 0.1])
    exact = 3.0 * np.cos(3.0 * x[0]) * np.exp(x[1])
    e2 = abs(fd_gradient(f, x, FDStencil(1e-3, 1e-3, order=2))[0] - exact)
    e4 = abs(fd_gradient(f, x, FDStencil(1e-3, 1e-3, order=4))[0] - exact)
    assert e4 < 1e-2 * e2


def test_fd_jacobian_and_curl():
    f = lambda x: np.array([x[1] ** 2, np.sin(x[0])])
    x = np.array([0.5, 0.25])
    j = fd_jacobian(f, x, FDStencil(1e-5, 1e-5))
    assert np.allclose(j, [[0.0, 2 * x[1]], [np.cos(x[0]), 0.0]], atol=1e-9)
    c = scalar_curl(f, x, FDStencil(1e-5, 1e-5))
    assert abs(c - (np.cos(x[0]) - 2 * x[1])) < 1e-9


def test_fd_hessian_symmetric_and_exact_for_quadratics():
    f = lambda x: x[0] ** 2 - 4.0 * x[0] * x[1] + 2.5 * x[1] ** 2
    h = fd_hessian(f, np.array([1.0, 2.0]), FDStencil(1e-4, 1e-4))
    assert np.allclose(h, h.T)
    assert np.allclose(h, [[2.0, -4.0], [-4.0, 5.0]], atol=1e-6)


def test_fd_domain_violation():
    domain = ((-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(DomainViolation):
        fd_gradient(lambda x: x[0], np.array([1.0, 0.0]),
                    FDStencil(1e-3, 1e-3), domain=domain)
    # interior points with full stencil clearance are fine
    g = fd_gradient(lambda x: x[0], np.array([0.5, 0.0]),
                    FDStencil(1e-3, 1e-3), domain=domain)
    assert g[0] == pytest.approx(1.0, abs=1e-10)


class TestGrid2D:
    def test_from_box_shape_spacing(self):
        g = Grid2D.from_box(((-1.0, 1.0), (0.0, 2.0)), 5, 9)
        assert g.shape == (5, 9)
        assert np.allclose(g.spacing, [0.5, 0.25])
        assert g.box == ((-1.0, 1.0), (0.0, 2.0))

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
