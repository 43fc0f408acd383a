"""The numpy tensor spline against scipy's RectBivariateSpline.

Only this test imports scipy.interpolate: the package itself does not.
"""

from collections import namedtuple

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from hybridlens import splines
from hybridlens.geometry import Grid2D
from hybridlens.splines import GRADIENT, HESSIAN, VALUE, GridSpline

#: The two axes a ``GridSpline`` reads, which, unlike a ``Grid2D``'s,
#: may be any increasing sites.
Sites = namedtuple("Sites", "x1 x2")


def warped_axis(lo, hi, n, power):
    """n strictly increasing, non-uniformly spaced sites from lo to hi."""
    u = np.linspace(0.0, 1.0, n)
    return lo + (hi - lo) * (0.8 * u + 0.2 * u**power)


def field(x1, x2):
    """Three smooth fields sampled on the grid, (n1, n2, 3)."""
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    return np.stack([np.sin(2.0 * X1 + X2) + X1**2 * X2,
                     np.exp(0.3 * X1 - 0.2 * X2) * np.cos(X2),
                     0.5 + 0.1 * X1 - 0.3 * X2**2], axis=-1)


def grids(k):
    """The smallest grid for order k, a non-square one and a finer one."""
    return [
        Sites(warped_axis(-0.7, 0.7, k + 1, 2), warped_axis(0.3, 2.0, k + 1, 3)),
        Sites(warped_axis(-0.7, 0.7, k + 2, 3), warped_axis(0.3, 2.0, k + 5, 2)),
        Sites(warped_axis(-0.7, 0.7, 23, 2), warped_axis(0.3, 2.0, 17, 3)),
    ]


def probe_points(grid, rng):
    """Every node, points between nodes and points outside the box."""
    lo1, hi1, lo2, hi2 = grid.x1[0], grid.x1[-1], grid.x2[0], grid.x2[-1]
    between = np.column_stack([
        rng.uniform(lo1, hi1, 200), rng.uniform(lo2, hi2, 200)])
    outside = np.column_stack([
        rng.uniform(lo1 - 0.4, hi1 + 0.4, 200),
        rng.uniform(lo2 - 0.4, hi2 + 0.4, 200)])
    nodes = np.stack(np.meshgrid(grid.x1, grid.x2, indexing="ij"), axis=-1)
    return np.concatenate([nodes.reshape(-1, 2), between, outside])


def partials_below(k):
    """Every partial up to total order 2 with each order below k."""
    return [(a, b) for a in range(3) for b in range(3)
            if a + b <= 2 and a < k and b < k]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_partials_match_scipy(k, rng):
    worst = 0.0
    for grid in grids(k):
        z = field(grid.x1, grid.x2)
        spline = GridSpline(grid, z, k)
        pts = probe_points(grid, rng)
        parts = partials_below(k)
        ours = spline(pts, *parts)
        for c in range(z.shape[-1]):
            ref = RectBivariateSpline(grid.x1, grid.x2, z[..., c], kx=k, ky=k)
            for (nu1, nu2), got in zip(parts, ours):
                want = ref.ev(pts[:, 0], pts[:, 1], dx=nu1, dy=nu2)
                err = np.abs(got[:, c] - want) / np.maximum(1.0, np.abs(want))
                worst = max(worst, float(np.max(err)))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("k", [3, 5])
def test_stacked_fields_equal_separate_fits(k, rng):
    grid = grids(k)[2]
    z = field(grid.x1, grid.x2)
    pts = probe_points(grid, rng)
    stacked = GridSpline(grid, z, k)(pts, *HESSIAN, *GRADIENT, *VALUE)
    for c in range(z.shape[-1]):
        alone = GridSpline(grid, z[..., c], k)(pts, *HESSIAN, *GRADIENT, *VALUE)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[:, c], want)


@pytest.mark.parametrize("k", [1, 3, 4, 5])
@pytest.mark.parametrize("partials", [VALUE, GRADIENT, HESSIAN,
                                      HESSIAN + VALUE])
def test_batch_row_equals_the_point_alone(k, partials, rng):
    grid = grids(k)[2]
    spline = GridSpline(grid, field(grid.x1, grid.x2), k)
    pts = probe_points(grid, rng)[::7]
    partials = [p for p in partials if max(p) <= k]
    batch = spline(pts, *partials)
    for i, x in enumerate(pts):
        for got, want in zip(spline(x, *partials), batch):
            assert got.shape == (3,)
            assert np.array_equal(got, want[i])


def test_shapes_follow_the_points_and_the_fields():
    grid = grids(3)[1]
    z = field(grid.x1, grid.x2)
    one = GridSpline(grid, z[..., 0], 3)
    three = GridSpline(grid, z, 3)
    x = np.zeros((4, 5, 2))
    assert one(x)[0].shape == (4, 5)
    assert three(x, *GRADIENT)[1].shape == (4, 5, 3)
    assert one(np.zeros(2))[0].shape == ()


@pytest.mark.parametrize("k", [3, 5])
def test_outside_points_take_the_clamped_point(k):
    """Outside the box each coordinate is clamped to it: the value and
    every partial equal those at the nearest point of the box."""
    grid = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 15)
    spline = GridSpline(grid, field(grid.x1, grid.x2), k)
    outside = np.array([[0.9, 0.2], [-1.3, 0.2], [0.1, 0.75], [2.0, -3.0]])
    clamped = np.clip(outside, -0.7, 0.7)
    parts = VALUE + GRADIENT + HESSIAN
    for got, want in zip(spline(outside, *parts), spline(clamped, *parts)):
        assert np.array_equal(got, want)
    assert np.array_equal(clamped[0], [0.7, 0.2])


@pytest.mark.parametrize("k, n1, n2, axis, size", [
    (3, 3, 10, "x1", 3), (5, 10, 5, "x2", 5), (1, 1, 4, "x1", 1),
])
def test_an_axis_with_too_few_nodes_is_named(k, n1, n2, axis, size):
    grid = Sites(np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2))
    with pytest.raises(ValueError, match=f"axis {axis} has {size} nodes"):
        GridSpline(grid, np.zeros((n1, n2)), k)


def test_bad_input_raises():
    grid = Sites(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6)[::-1])
    with pytest.raises(ValueError, match="axis x2 is not strictly increasing"):
        GridSpline(grid, np.zeros((6, 6)), 3)
    grid = Grid2D.from_box(((0.0, 1.0), (0.0, 1.0)), 6, 7)
    with pytest.raises(ValueError, match="values of shape"):
        GridSpline(grid, np.zeros((7, 6)), 3)
    spline = GridSpline(grid, np.zeros((6, 7)), 3)
    with pytest.raises(ValueError, match="partials"):
        spline(np.zeros(2), (4, 0))
    with pytest.raises(ValueError, match="expected"):
        spline(np.zeros(3))


def test_fit_passes_a_zero_pivot_and_fills_empty_rows():
    # Row 2 meets a zero pivot in triangle row 1, which FITPACK skips,
    # then fills the empty row 2; rows 0 and 1 fill empty rows at once.
    a = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 2.0]])
    z = np.array([[1.0, -2.0], [0.5, 4.0], [-3.0, 0.25]])
    band, rotations = splines._givens_rotations(a, np.zeros(3, dtype=int))
    c = splines._back_substitute(band, splines._rotate(rotations, z))
    assert np.allclose(c, np.linalg.solve(a, z), rtol=1e-14, atol=1e-15)


def test_a_later_evaluation_leaves_earlier_results_alone(rng):
    """The spline reuses one scratch buffer: what a call returns must not
    share it, whether the next call is larger or smaller."""
    grid = grids(5)[2]
    spline = GridSpline(grid, field(grid.x1, grid.x2), 5)
    points = probe_points(grid, rng)
    first = spline(points[:300], *GRADIENT)
    kept = [v.copy() for v in first]
    spline(points, *GRADIENT, *HESSIAN)
    spline(points[:7], *VALUE)
    for v, want in zip(first, kept):
        assert np.array_equal(v, want)
    again = spline(points[:300], *GRADIENT)
    for v, want in zip(again, kept):
        assert np.array_equal(v, want)
