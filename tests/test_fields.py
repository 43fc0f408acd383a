import numpy as np
import pytest

from hybridlens.errors import NotIntegrable
from hybridlens.fields import (
    IncidentField,
    collimated,
    curl_condition,
    point_source,
    recover_potential,
    vertical,
)
from hybridlens.geometry import FDStencil, Grid2D, fd_gradient, fd_jacobian


@pytest.fixture
def grid():
    return Grid2D.from_box(((-0.5, 0.5), (-0.5, 0.5)), 21)


ALL_FIELDS = [
    vertical(),
    collimated((0.2, -0.1, 1.0)),
    point_source((0.1, -0.2, -3.0)),
]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_unit_direction_upward(field, rng):
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 2)
        e = field.direction(x)
        assert abs(np.linalg.norm(e) - 1.0) < 1e-14
        assert e[2] > 0.0


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_analytic_jacobian_matches_fd(field, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        j = field.jacobian(x)
        j_fd = fd_jacobian(field.e, x, FDStencil(1e-6, 1e-6))
        assert np.allclose(j, j_fd, atol=1e-7)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_potential_gradient_is_eprime(field, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        g = fd_gradient(field.potential, x, FDStencil(1e-6, 1e-6))
        assert np.allclose(g, field.eprime(x), atol=1e-8)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_curl_condition_passes(field, grid):
    report = curl_condition(field, grid, tol=1e-10)
    assert report.passed
    assert report.margins["max_abs_curl"] <= 1e-10


def rotational_field(alpha):
    def e(x):
        v = np.stack([-alpha * x[..., 1], alpha * x[..., 0],
                      np.ones(x.shape[:-1])], axis=-1)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    return IncidentField("swirl", e)


def test_curl_condition_fails_for_swirl(grid):
    report = curl_condition(rotational_field(0.2), grid, tol=1e-10)
    assert not report.passed
    # curl of the unnormalized part is 2 alpha; normalization perturbs it
    assert report.margins["max_abs_curl"] > 0.1


def test_point_source_requires_source_below_plane():
    with pytest.raises(ValueError):
        point_source((0.0, 0.0, 1.0))


def test_collimated_requires_upward_direction():
    with pytest.raises(ValueError):
        collimated((1.0, 0.0, -0.5))


def test_recover_potential_collimated(grid):
    field = collimated((0.3, -0.2, 1.0))
    h, residual = recover_potential(field, grid, basepoint=(0.0, 0.0))
    assert residual < 1e-12
    d = field.direction((0.0, 0.0))
    for i in [0, 5, 20]:
        for j in [0, 10, 20]:
            x = grid.node(i, j)
            assert h[i, j] == pytest.approx(d[0] * x[0] + d[1] * x[1], abs=1e-12)


def test_recover_potential_point_source(grid):
    field = point_source((0.0, 0.0, -2.0))
    h, residual = recover_potential(field, grid, basepoint=(0.0, 0.0))
    assert residual < 1e-8
    exact = np.array(
        [[field.potential(grid.node(i, j)) for j in range(21)] for i in range(21)]
    )
    exact -= exact[10, 10]
    assert np.max(np.abs(h - exact)) < 1e-8


def test_recover_potential_non_square_grid_off_centre_basepoint():
    grid = Grid2D.from_box(((-0.5, 0.5), (-0.4, 0.6)), 21, 31)
    field = point_source((0.1, -0.2, -3.0))
    h, residual = recover_potential(field, grid, basepoint=(0.2, 0.3))
    assert h.shape == (21, 31)
    assert residual < 1e-8
    i0, j0 = grid.nearest_index((0.2, 0.3))
    x1, x2 = grid.meshgrid()
    exact = np.hypot(np.hypot(x1 - 0.1, x2 + 0.2), 3.0)
    exact -= exact[i0, j0]
    assert np.max(np.abs(h - exact)) < 1e-8


def test_recover_potential_rejects_rotational(grid):
    with pytest.raises(NotIntegrable):
        recover_potential(rotational_field(0.5), grid, basepoint=(0.0, 0.0),
                          tol=1e-9)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_batch_direction_matches_single_points(field, rng):
    x = rng.uniform(-0.5, 0.5, (30, 2))
    e, ep = field.direction(x), field.eprime(x)
    assert e.shape == (30, 3)
    assert ep.shape == (30, 2)
    for i in range(len(x)):
        assert np.array_equal(e[i], field.direction(x[i]))
        assert np.array_equal(ep[i], field.eprime(x[i]))


def test_scalar_only_callback_rejected_for_a_batch():
    bare = IncidentField("bare", lambda x: np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        bare.direction(np.zeros((4, 2)))

