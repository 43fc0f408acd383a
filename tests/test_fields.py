import numpy as np
import pytest

from hybridlens.errors import NotIntegrable
from hybridlens.farfield import MidField, build_phase
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
    # the curl of the builtin fields is exactly 0, so no node is named
    assert report.details == "max |curl e'| = 0.000e+00"


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
    # the first node reaching the maximum, printed as plain floats
    assert report.details == "max |curl e'| = 4.000e-01 at (0.0, 0.0)"


def cone_field(apex):
    """e' = (x - apex)/(2|x - apex|), the gradient of |x - apex|/2: curl
    free everywhere except at the apex, where it is undefined."""
    p = np.asarray(apex, dtype=float)

    def e(x):
        u = x - p
        w = np.empty(x.shape[:-1] + (3,))
        w[..., :2] = 0.5 * u / np.linalg.norm(u, axis=-1, keepdims=True)
        w[..., 2] = np.sqrt(0.75)
        return w

    def jac(x):
        u = x - p
        ell = np.linalg.norm(u, axis=-1)[..., None, None]
        j = np.zeros(x.shape[:-1] + (3, 2))
        j[..., :2, :] = 0.5 * (np.eye(2) / ell
                               - u[..., :, None] * u[..., None, :] / ell**3)
        return j

    return IncidentField("cone", e, jac=jac)


def test_curl_condition_fails_on_a_node_where_the_curl_is_undefined(grid):
    apex = grid.node(14, 8)
    with np.errstate(invalid="ignore", divide="ignore"):
        report = curl_condition(cone_field(apex), grid, tol=1e-10)
    assert not report.passed
    assert np.isnan(report.margins["max_abs_curl"])
    assert report.details == f"max |curl e'| = nan at {tuple(apex.tolist())}"


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
        recover_potential(rotational_field(0.5), grid, basepoint=(0.0, 0.0))


def test_build_phase_rejects_a_rotational_field_without_potential(grid,
                                                                  constants):
    """build_phase recovers h itself when the field gives none, and so
    meets the same staircase disagreement."""
    x1, x2 = grid.meshgrid()
    shape = grid.shape
    mid = MidField(grid=grid, m=np.zeros(shape + (3,)), d=np.ones(shape),
                   Q=np.stack([x1, x2], axis=-1), rho=np.zeros(shape))
    with pytest.raises(NotIntegrable, match="staircase paths disagree"):
        build_phase(rotational_field(0.5), mid, constants)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_batch_direction_matches_single_points(field, rng):
    x = rng.uniform(-0.5, 0.5, (30, 2))
    e, ep = field.direction(x), field.eprime(x)
    assert e.shape == (30, 3)
    assert ep.shape == (30, 2)
    for i in range(len(x)):
        assert np.array_equal(e[i], field.direction(x[i]))
        assert np.array_equal(ep[i], field.eprime(x[i]))


def test_scalar_only_callback_rejected_for_a_batch(grid):
    bare = IncidentField("bare", lambda x: np.array([0.0, 0.0, 1.0]),
                         jac=lambda x: np.zeros((3, 2)))
    assert np.array_equal(bare.jacobian(np.zeros(2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        bare.direction(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        bare.jacobian(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        curl_condition(bare, grid, tol=1e-10)



# the same fields without jac: derivatives by central differences
USER_FIELDS = [IncidentField(f"user_{f.name}", f.e) for f in ALL_FIELDS]


@pytest.mark.parametrize("field", ALL_FIELDS + USER_FIELDS, ids=lambda f: f.name)
def test_batch_derivatives_match_single_points(field, rng):
    x = rng.uniform(-0.5, 0.5, (30, 2))
    jac, curl = field.jacobian(x), field.curl_eprime(x)
    assert jac.shape == (30, 3, 2) and curl.shape == (30,)
    for i in range(len(x)):
        assert np.array_equal(jac[i], field.jacobian(x[i]))
        assert curl[i] == field.curl_eprime(x[i])
    assert np.array_equal(field.jacobian(x.reshape(5, 6, 2)),
                          jac.reshape(5, 6, 3, 2))
    if field.potential is None:
        return
    h = field.potential(x)
    assert h.shape == (30,)
    for i in range(len(x)):
        assert h[i] == field.potential(x[i])
