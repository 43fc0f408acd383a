import numpy as np
import pytest

from hybridlens.geometry import fd_hessian, fd_jacobian
from hybridlens.surfaces import Surface, flat, from_design, from_grid, polynomial


def test_flat_surface():
    s = flat(0.4)
    x = np.array([0.3, -0.2])
    assert s.height(x) == 0.4
    assert np.allclose(s.gradient(x), 0.0)
    assert np.allclose(s.normal(x), [0.0, 0.0, 1.0])


def test_polynomial_matches_fd(rng):
    c = np.zeros((3, 3))
    c[0, 0], c[1, 0], c[0, 1] = 0.5, 0.1, -0.05
    c[2, 0], c[1, 1], c[0, 2] = 0.2, -0.1, 0.15
    s = polynomial(c)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        g_fd = fd_jacobian(s.value, x, 1e-6)
        h_fd = fd_hessian(s.value, x, 1e-4)
        assert np.allclose(s.gradient(x), g_fd, atol=1e-8)
        assert np.allclose(s.hessian(x), h_fd, atol=1e-6)


def test_polynomial_dict_coefficients():
    s = polynomial({(0, 0): 1.0, (2, 0): 0.5})
    x = np.array([2.0, 3.0])
    assert s.height(x) == pytest.approx(1.0 + 0.5 * 4.0)


def test_normal_is_unit_and_upward(rng):
    s = polynomial({(0, 0): 0.5, (2, 0): 0.3, (0, 2): -0.2})
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        nu = s.normal(x)
        assert abs(np.linalg.norm(nu) - 1.0) < 1e-14
        assert nu[2] > 0.0


def test_from_design_interpolates_nodes(dilation_design):
    s = from_design(dilation_design)
    g = dilation_design.grid
    for i, j in [(0, 0), (17, 63), (50, 50), (100, 100)]:
        assert s.height(g.node(i, j)) == pytest.approx(
            dilation_design.rho[i, j], abs=1e-12
        )


def test_from_design_gradient_close_to_solver(dilation_design):
    s = from_design(dilation_design, order=5)
    g = dilation_design.grid
    for i, j in [(30, 40), (50, 50), (70, 25)]:
        assert np.allclose(
            s.gradient(g.node(i, j)), dilation_design.drho[i, j], atol=1e-7
        )


def test_from_grid_flat():
    from hybridlens.geometry import Grid2D

    grid = Grid2D.from_box(((-1.0, 1.0), (-1.0, 1.0)), 11)
    s = from_grid(grid, np.full((11, 11), 0.3))
    assert s.height(np.array([0.123, -0.456])) == pytest.approx(0.3, abs=1e-12)


def builtin_surface(kind, dilation_design):
    return {
        "flat": flat(0.4),
        "polynomial": polynomial({(0, 0): 0.5, (2, 0): 0.3, (1, 1): 0.1,
                                  (0, 2): -0.2, (3, 1): 0.05}),
        "spline": from_design(dilation_design, order=5),
    }[kind]


def assert_batch_matches_single_points(s, rng):
    x = rng.uniform(-0.6, 0.6, (50, 2))
    h, g, nu, hess = s.height(x), s.gradient(x), s.normal(x), s.hessian(x)
    assert h.shape == (50,) and g.shape == (50, 2) and nu.shape == (50, 3)
    assert hess.shape == (50, 2, 2)
    for i in range(len(x)):
        assert h[i] == s.height(x[i])
        assert np.array_equal(g[i], s.gradient(x[i]))
        assert np.array_equal(nu[i], s.normal(x[i]))
        assert np.array_equal(hess[i], s.hessian(x[i]))
    assert np.array_equal(s.hessian(x.reshape(5, 10, 2)), hess.reshape(5, 10, 2, 2))


@pytest.mark.parametrize("kind", ["flat", "polynomial", "spline"])
def test_batch_matches_single_points(kind, dilation_design, rng):
    assert_batch_matches_single_points(builtin_surface(kind, dilation_design), rng)


@pytest.mark.parametrize("kind", ["flat", "polynomial", "spline"])
def test_user_surface_batch_matches_single_points(kind, dilation_design, rng):
    # no grad and no hess: both by central differences of the value
    s = Surface(name=f"user_{kind}", value=builtin_surface(kind, dilation_design).value)
    assert_batch_matches_single_points(s, rng)


def test_single_point_hess_rejected_for_a_batch():
    s = Surface(name="single", value=lambda x: 0.4,
                hess=lambda x: np.zeros((2, 2)))
    assert np.array_equal(s.hessian(np.zeros(2)), np.zeros((2, 2)))
    assert s.height(np.zeros(2)) == 0.4
    with pytest.raises(ValueError):
        s.hessian(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="surface 'single' value"):
        s.height(np.zeros((4, 2)))
