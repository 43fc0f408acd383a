import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens.errors import NotEigenvector
from hybridlens.geometry import Grid2D
from hybridlens.maps import (
    BUILTIN_MAPS,
    EigenPair,
    FixedPoint,
    TargetMap,
    admissibility,
    dilation,
    eigen_structure,
    eikonal_distance,
    horizontal_poly,
    identity,
    rotation,
)

coord = st.floats(-2.0, 2.0, allow_nan=False)


@pytest.fixture
def grid():
    return Grid2D.from_box(((-0.5, 0.5), (-0.5, 0.5)), 21)


def test_dilation_displacement():
    m = dilation(0.2)
    x = np.array([0.5, -0.25])
    assert np.allclose(m.target(x), 1.2 * x)
    assert np.allclose(m.S(x), 0.2 * x)
    assert np.allclose(m.DS(x), 0.2 * np.eye(2))


def test_dilation_rejects_collapse():
    with pytest.raises(ValueError):
        dilation(-1.0)


def test_target_broadcasts():
    m = dilation(0.3)
    pts = np.arange(12.0).reshape(2, 3, 2)
    assert np.allclose(m.target(pts), 1.3 * pts)


@given(x1=coord, x2=coord)
@settings(max_examples=50, deadline=None)
def test_eikonal_displacement_is_unit(x1, x2):
    m = eikonal_distance((5.0, 0.0))
    s = m.S(np.array([x1, x2]))
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "target_map",
    [
        dilation(0.2),
        horizontal_poly([0.1, 1.3, 0.0, 0.05]),
        eikonal_distance((3.0, 0.0)),
        identity(),
    ],
    ids=["dilation", "horizontal", "eikonal", "identity"],
)
def test_admissibility_passes(target_map, grid):
    report = admissibility(target_map, grid, tol=1e-10)
    assert report.passed, report.details


def test_admissibility_fails_on_a_node_where_S_is_undefined():
    # gamma is a node, where S = (x - gamma)/|x - gamma| is 0/0
    grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 41)
    with np.errstate(invalid="ignore", divide="ignore"):
        report = admissibility(eikonal_distance((0.3, 0.0)), grid, tol=1e-10)
    assert not report.passed
    assert np.isnan(report.margins["max_abs_S_cross_grad_normsq"])
    assert "S x D|S|^2" in report.details


def test_rotation_fails_admissibility(grid):
    alpha = 0.3
    report = admissibility(rotation(alpha), grid, tol=1e-10)
    assert not report.passed
    assert report.margins["max_abs_curl_S"] == pytest.approx(2 * alpha, abs=1e-10)
    assert "curl S" in report.details


def test_eigen_structure_fixed_point():
    structure = eigen_structure(dilation(0.2), np.zeros(2))
    assert isinstance(structure, FixedPoint)
    assert np.allclose(structure.ds, 0.2 * np.eye(2))


def test_eigen_structure_dilation_away_from_origin():
    structure = eigen_structure(dilation(0.2), np.array([0.4, 0.1]))
    assert isinstance(structure, EigenPair)
    assert structure.zeta == pytest.approx(0.2, abs=1e-12)
    assert structure.zeta_perp == pytest.approx(0.2, abs=1e-12)


def test_eigen_structure_horizontal():
    # S = (h(x1) - x1, 0): zeta = h'(x1) - 1 along S, zeta_perp = 0
    m = horizontal_poly([0.2, 1.5, 0.1])
    x = np.array([0.3, -0.2])
    structure = eigen_structure(m, x)
    assert isinstance(structure, EigenPair)
    assert structure.zeta == pytest.approx(1.5 + 0.2 * 0.3 - 1.0, abs=1e-12)
    assert structure.zeta_perp == pytest.approx(0.0, abs=1e-12)


def test_eigen_structure_eikonal():
    structure = eigen_structure(eikonal_distance((1.0, 0.0)), np.zeros(2))
    assert isinstance(structure, EigenPair)
    assert structure.zeta == pytest.approx(0.0, abs=1e-12)
    assert structure.zeta_perp == pytest.approx(1.0, abs=1e-12)


def test_eigen_structure_rejects_rotation():
    with pytest.raises(NotEigenvector):
        eigen_structure(rotation(0.3), np.array([0.5, 0.0]))


def test_builtin_registry_round_trip():
    m = BUILTIN_MAPS["dilation"]({"alpha": 0.25})
    assert m.params == {"alpha": 0.25}
    h = BUILTIN_MAPS["horizontal"]({"coeffs": [0.0, 1.2]})
    assert np.allclose(h.target(np.array([1.0, 2.0])), [1.2, 2.0])


BATCH_MAPS = [
    identity(),
    dilation(0.2),
    dilation(-0.3),
    horizontal_poly([0.1, 1.3, 0.0, 0.05]),
    eikonal_distance((3.0, 0.0)),
    rotation(0.3),
]
# the same maps without jac_S: DS by central differences, per-point steps
USER_MAPS = [TargetMap(name=f"user_{m.name}", T=m.T) for m in BATCH_MAPS]


@pytest.mark.parametrize("target_map", BATCH_MAPS + USER_MAPS,
                         ids=lambda m: m.name)
def test_batch_derivatives_match_single_points(target_map, rng):
    x = rng.uniform(-0.5, 0.5, (30, 2))
    ds = target_map.DS(x)
    curl, grad = target_map.curl_S(x), target_map.grad_norm_sq(x)
    assert ds.shape == (30, 2, 2) and curl.shape == (30,) and grad.shape == (30, 2)
    for i in range(len(x)):
        assert np.array_equal(ds[i], target_map.DS(x[i]))
        assert curl[i] == target_map.curl_S(x[i])
        assert np.array_equal(grad[i], target_map.grad_norm_sq(x[i]))
    grid_shaped = x.reshape(5, 6, 2)
    assert np.array_equal(target_map.DS(grid_shaped), ds.reshape(5, 6, 2, 2))


def test_single_point_jac_S_rejected_for_a_batch():
    m = TargetMap(name="single", T=dilation(0.2).T,
                  jac_S=lambda x: 0.2 * np.eye(2))
    assert np.array_equal(m.DS(np.zeros(2)), 0.2 * np.eye(2))
    with pytest.raises(ValueError):
        m.DS(np.zeros((4, 2)))
