import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens.errors import (
    FeasibilityViolation,
    PathInconsistency,
    QuadratureError,
)
from hybridlens.geometry import FDStencil, Grid2D, fd_hessian
from hybridlens.imaging import (
    VarphiProfile,
    default_z0,
    delta_from_drho,
    delta_nice,
    existence_verdict,
    explicit_dilation_2d,
    feasible_z_interval,
    hessian_closed_form,
    lemma_identity_check,
    matA_closed_form,
    matA_direct,
    rhs_V,
    solve_rho,
    solve_rho_2d,
    thickness_check,
)
from hybridlens.maps import (
    dilation,
    eikonal_distance,
    horizontal_poly,
    identity,
    rotation,
)
from hybridlens.surfaces import from_design

KAPPA1 = 1.5


class TestVarphiProfile:
    def test_value_at_zero(self):
        prof = VarphiProfile(KAPPA1)
        assert prof.value(0.0) == pytest.approx(KAPPA1 / (KAPPA1 - 1.0))

    def test_derivative_identity(self):
        # phi' = phi^2 / (2 kappa1 sqrt(y + 1)) checked against central FD
        prof = VarphiProfile(KAPPA1)
        for y in [0.3, 0.8, 1.1]:
            h = 1e-7
            fd = (prof.value(y + h) - prof.value(y - h)) / (2 * h)
            assert prof.deriv(y) == pytest.approx(fd, rel=1e-6)

    def test_domain_enforced(self):
        prof = VarphiProfile(KAPPA1)
        with pytest.raises(FeasibilityViolation):
            prof.value(KAPPA1**2 - 1.0)
        with pytest.raises(FeasibilityViolation):
            prof.value(-0.1)

    def test_requires_kappa_above_one(self):
        with pytest.raises(ValueError):
            VarphiProfile(0.9)


def test_feasible_z_interval():
    lo, hi = feasible_z_interval(0.3, KAPPA1, 1.0)
    assert lo == pytest.approx(0.3 / math.sqrt(KAPPA1**2 - 1.0))
    assert hi == 1.0
    assert lo < hi


def test_rhs_v_reference_value():
    # direct arithmetic: V = k1 (S/z) / (k1 - sqrt(|S/z|^2 + 1))
    v = rhs_V(np.array([1.5, 0.0]), 1.0, dilation(0.2), KAPPA1, a=2.0)
    expected = 1.5 * 0.3 / (1.5 - math.sqrt(1.09))
    assert v[0] == pytest.approx(expected, rel=1e-15)
    assert v[1] == 0.0


def test_rhs_v_vanishes_at_fixed_point():
    v = rhs_V(np.zeros(2), 0.5, dilation(0.2), KAPPA1, a=1.0)
    assert np.allclose(v, 0.0)


def test_rhs_v_names_the_first_failing_point():
    # rows 2 and 3 leave the slab (z <= |S|/sqrt(kappa1^2 - 1)); row 2 is
    # reported, by both checks
    x = np.array([[0.1, 0.0], [0.0, 0.4], [0.0, -0.9], [0.5, 0.5]])
    z = np.array([0.5, 0.5, 0.1, 0.1])
    with pytest.raises(FeasibilityViolation) as info:
        rhs_V(x, z, dilation(0.2), KAPPA1, a=1.0)
    assert str(info.value) == (
        "z = 0.1 outside (0.160997, 1) at x = (0, -0.9) "
        "(slab inequality violated)")
    with pytest.raises(FeasibilityViolation) as info:
        rhs_V(x, z, dilation(0.2), KAPPA1)
    assert str(info.value) == (
        "|S/z|^2 = 3.24 reaches kappa1^2 - 1 = 1.25 at x = (0, -0.9)")
    with pytest.raises(FeasibilityViolation, match=r"at x = \(0, -0.9\)"):
        rhs_V(x[2], z[2], dilation(0.2), KAPPA1, a=1.0)
    # one state for the whole batch
    with pytest.raises(FeasibilityViolation) as info:
        rhs_V(x, 0.1, dilation(0.2), KAPPA1, a=1.0)
    assert str(info.value) == (
        "z = 0.1 outside (0.160997, 1) at x = (0, -0.9) "
        "(slab inequality violated)")


def test_delta_nice_matches_drho_form(dilation_design):
    d = dilation_design
    s = d.target_map.S(np.stack(d.grid.meshgrid(), axis=-1))
    nice = delta_nice(s, d.z, KAPPA1)
    direct = delta_from_drho(d.drho, KAPPA1)
    assert np.max(np.abs(nice - direct)) < 1e-9


@given(st.floats(0.0, 0.95, exclude_max=False), st.floats(0.0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_lemma_identity(scale, angle):
    r = scale * math.sqrt(KAPPA1**2 - 1.0)
    y = np.array([r * math.cos(angle), r * math.sin(angle)])
    assert lemma_identity_check(y, KAPPA1) < 1e-11


class TestSolveRho:
    def test_anchor_and_path_residual(self, dilation_design):
        d = dilation_design
        i, j = d.grid.nearest_index((0.0, 0.0))
        assert d.z[i, j] == pytest.approx(0.5)  # midpoint default
        assert d.rho[i, j] == pytest.approx(0.5)
        assert d.path_residual < 1e-9

    def test_drho_consistent_with_grid_fd(self, dilation_design):
        d = dilation_design
        h1, h2 = d.grid.spacing
        g1 = (d.rho[2:, 1:-1] - d.rho[:-2, 1:-1]) / (2 * h1)
        g2 = (d.rho[1:-1, 2:] - d.rho[1:-1, :-2]) / (2 * h2)
        assert np.max(np.abs(g1 - d.drho[1:-1, 1:-1, 0])) < 1e-3
        assert np.max(np.abs(g2 - d.drho[1:-1, 1:-1, 1])) < 1e-3

    def test_slab_bounds(self, dilation_design):
        d = dilation_design
        assert np.all(d.z > 0.0)
        assert np.all(d.z < d.constants.a)

    def test_infeasible_z0_raises(self, constants):
        grid = Grid2D.from_box(((-0.2, 0.2), (-0.2, 0.2)), 21)
        with pytest.raises(FeasibilityViolation):
            solve_rho(dilation(0.2), constants, grid, (0.0, 0.0), z0=1.5)

    @pytest.mark.parametrize("alpha, message", [
        (0.9, "z = 1.00141 outside (0.394442, 1) at x = (0.49, 0) "
              "(slab inequality violated)"),
        (1.5, "z = 1.01113 outside (0.493053, 1) at x = (0.3675, 0) "
              "(slab inequality violated)"),
    ])
    def test_march_leaving_the_slab_raises(self, constants, alpha, message):
        # the anchor is feasible; the march crosses z = a part way out
        grid = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 41)
        with pytest.raises(FeasibilityViolation) as info:
            solve_rho(dilation(alpha), constants, grid, (0.0, 0.0))
        assert str(info.value) == message

    def test_rotation_map_breaks_path_independence(self, constants):
        grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 41)
        with pytest.raises(PathInconsistency):
            solve_rho(rotation(0.3), constants, grid, (0.0, 0.0))

    def test_non_square_grid_off_centre_anchor(self, constants):
        # the dilation's solution is radial, z(x) = Z(|x|), with Z the
        # planar profile for S(t) = alpha t; the anchor takes Z there
        alpha, z_origin = 0.2, 0.5
        grid = Grid2D.from_box(((-0.5, 0.5), (-0.5, 0.5)), 33, 25)
        i0, j0 = grid.nearest_index((0.25, -0.125))
        assert (i0, j0) == (24, 9)
        exact = lambda x: explicit_dilation_2d(
            alpha, KAPPA1, constants.a, z_origin, float(np.hypot(*x)))
        d = solve_rho(dilation(alpha), constants, grid, grid.node(i0, j0),
                      z0=exact(grid.node(i0, j0)))
        assert d.z.shape == (33, 25)
        assert d.path_residual < 1e-8
        # RK4 at steps 1/32 and 1/24 is accurate to about 1.4e-8 here
        row = [exact(grid.node(i0, j)) for j in range(25)]
        col = [exact(grid.node(i, j0)) for i in range(33)]
        assert np.max(np.abs(d.z[i0, :] - row)) < 1e-7
        assert np.max(np.abs(d.z[:, j0] - col)) < 1e-7

    def test_identity_map_gives_flat_face(self, constants):
        grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 21)
        d = solve_rho(identity(), constants, grid, (0.0, 0.0), z0=0.5)
        assert np.max(np.abs(d.rho - 0.5)) < 1e-14
        assert np.max(np.abs(d.drho)) < 1e-14


def test_default_z0_is_interval_midpoint(constants):
    z0 = default_z0(dilation(0.2), constants, np.zeros(2))
    lo, hi = feasible_z_interval(0.0, constants.kappa1, constants.a)
    assert z0 == pytest.approx(0.5 * (lo + hi))


def test_thickness_check_reports(constants):
    grid = Grid2D.from_box(((-0.5, 0.5), (-0.5, 0.5)), 11)
    report = thickness_check(dilation(0.2), constants, grid)
    assert report.passed


class TestClosedForms:
    def test_hessian_at_center_reference(self, dilation_design):
        # S = 0 at the anchor, so D^2 rho = -(phi(0)/z0) DS = -1.2 I
        hess = hessian_closed_form(dilation_design)
        assert np.allclose(hess, -1.2 * np.eye(2), atol=1e-12)

    def test_hessian_matches_fd_of_solution(self, dilation_design, rng):
        surf = from_design(dilation_design, order=5)
        worst = 0.0
        for _ in range(10):
            i, j = rng.integers(20, 81, 2)
            x = dilation_design.grid.node(i, j)
            closed = hessian_closed_form(dilation_design, x0=x)
            fd = fd_hessian(surf.height, x, FDStencil(1e-4, 1e-4, order=4))
            worst = max(worst, np.max(np.abs(closed - fd)) / np.max(np.abs(closed)))
        assert worst < 1e-4

    def test_matA_two_routes_agree(self, dilation_design, rng):
        for _ in range(10):
            i, j = rng.integers(10, 91, 2)
            x = dilation_design.grid.node(i, j)
            a1 = matA_closed_form(dilation_design, x0=x)
            a2 = matA_direct(dilation_design, x0=x)
            assert np.max(np.abs(a1 - a2)) < 1e-10


class TestExistenceVerdict:
    def test_dilation_passes(self, dilation_design):
        report = existence_verdict(dilation_design)
        assert report.passed
        assert report.details == "non-singularity holds"

    def test_identity_reports_flat_lens_case(self, constants):
        grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 21)
        d = solve_rho(identity(), constants, grid, (0.0, 0.0), z0=0.5)
        report = existence_verdict(d)
        assert not report.passed
        assert report.margins.get("flat_lens_case") == 1.0
        assert "flat-lens special case" in report.details

    def test_horizontal_fails_with_named_reason(self, constants):
        grid = Grid2D.from_box(((0.1, 0.5), (-0.2, 0.2)), 21)
        d = solve_rho(horizontal_poly([0.05, 1.2]), constants, grid,
                      (0.3, 0.0), z0=0.6)
        report = existence_verdict(d)
        assert not report.passed
        assert "zeta_perp = 0" in report.details

    def test_eikonal_passes_with_eigenvalues(self):
        from hybridlens import OpticalConstants

        deep = OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=10.0, c=15.0)
        grid = Grid2D.from_box(((-0.2, 0.2), (-0.2, 0.2)), 21)
        d = solve_rho(eikonal_distance((3.0, 0.0)), deep, grid,
                      (0.0, 0.0), z0=5.0)
        report = existence_verdict(d)
        assert report.passed
        assert report.margins["zeta"] == pytest.approx(0.0, abs=1e-9)
        assert report.margins["zeta_perp"] == pytest.approx(1.0 / 3.0, rel=1e-9)


class Test2D:
    def test_alpha_zero_is_flat(self, constants100):
        t, rho = solve_rho_2d(lambda t: 0.0, constants100, (-1.0, 1.0), 70.0,
                              1e-2)
        assert np.max(np.abs(rho - 30.0)) < 1e-14

    def test_matches_explicit_profile(self, constants100):
        t, rho = solve_rho_2d(lambda t: 0.3 * t, constants100, (0.0, 1.0),
                              70.0, 1e-3)
        z_oracle = explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, 1.0)
        assert abs((100.0 - rho[-1]) - z_oracle) < 1e-10

    def test_explicit_profile_even_in_t(self):
        zp = explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, 0.7)
        zm = explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, -0.7)
        assert zp == zm
        assert explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, 0.0) == 70.0

    def test_explicit_profile_rejects_a_loose_quadrature(self, monkeypatch):
        # explicit_dilation_2d imports quad from scipy.integrate on each call
        monkeypatch.setattr(scipy.integrate, "quad", lambda f, lo, hi, **kw: (0.0, 1.0))
        with pytest.raises(QuadratureError, match="error estimate 1.000e"):
            explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, 0.7)

    def test_infeasible_z0(self, constants100):
        with pytest.raises(FeasibilityViolation):
            solve_rho_2d(lambda t: 0.3 * t, constants100, (-1.0, 1.0), 120.0,
                         1e-2)

    def test_march_leaving_the_slab_reports_the_first_t(self, constants):
        # the profile is even, so both directions leave the slab at
        # |t| = 0.49; the march ahead runs first
        with pytest.raises(FeasibilityViolation) as info:
            solve_rho_2d(lambda t: 0.9 * t, constants, (-0.7, 0.7), 0.5, 0.01)
        assert str(info.value) == (
            "z = 1.00142 outside (0.394442, 1) at t = 0.49")


@pytest.fixture(scope="session")
def constants100():
    from hybridlens import OpticalConstants

    return OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=100.0, c=150.0)
