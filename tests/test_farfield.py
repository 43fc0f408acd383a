import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hybridlens import farfield
from hybridlens.errors import (
    MissedSurface,
    NonInjectiveFootprint,
    NonPositiveDepth,
    SingularHessian,
)
from hybridlens.farfield import (
    MidField,
    build_phase,
    eigenvalue_sufficient,
    footprint_fold_check,
    intersect_ray,
    midfield_general,
    midfield_vertical,
    ray_to_metasurface,
    sufficient_det_general,
    sufficient_det_vertical,
)
from hybridlens.fields import IncidentField, collimated, point_source, vertical
from hybridlens.geometry import FDStencil, Grid2D, fd_jacobian
from hybridlens.imaging import delta_from_drho
from hybridlens.raytrace import TraceableLens, trace_through
from hybridlens.reports import ConditionReport
from hybridlens.snell import refract_standard
from hybridlens.surfaces import flat, from_design, polynomial


#: The lower face of the far-field configs: r = 0.5 + 0.3 x1^2 + 0.3 x2^2.
FACE = polynomial({(0, 0): 0.5, (2, 0): 0.3, (0, 2): 0.3})


def e_only(field):
    """``field`` given by its directions alone: no jac, no potential."""
    return IncidentField("e_only", field.e)


@pytest.fixture
def grid():
    return Grid2D.from_box(((-0.4, 0.4), (-0.4, 0.4)), 21)


FACE = polynomial([[0.5, 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])


def brentq_intersect(surface, x, e, a):
    """One-ray reference: Brent's method on g(t) = t e3 - r(x + t e')."""
    g = lambda t: t * e[2] - surface.height(x + t * e[:2])
    return brentq(g, 0.0, a / e[2], xtol=1e-15, rtol=8.9e-16)


class TestIntersectRay:
    def test_flat_surface_oblique_ray(self):
        s = flat(0.5)
        e = np.array([0.3, 0.1, 1.0])
        e = e / np.linalg.norm(e)
        t = intersect_ray(s, np.array([0.1, -0.1]), e, a=1.0)
        assert t * e[2] == pytest.approx(0.5, abs=1e-12)

    def test_missed_surface(self):
        s = flat(2.0)  # above the slab: no crossing inside [0, a/e3]
        with pytest.raises(MissedSurface):
            intersect_ray(s, np.zeros(2), np.array([0.0, 0.0, 1.0]), a=1.0)


    @pytest.mark.parametrize("face", ["polynomial", "spline"])
    def test_batch_matches_brentq(self, face, dilation_design, rng):
        s = FACE if face == "polynomial" else from_design(dilation_design)
        x = rng.uniform(-0.5, 0.5, (100, 2))
        e = point_source((0.0, 0.0, -2.0)).direction(x)
        t = intersect_ray(s, x, e, a=1.0)
        assert t.shape == (100,)
        ref = [brentq_intersect(s, x[i], e[i], 1.0) for i in range(len(x))]
        assert np.max(np.abs(t - ref)) <= 1e-12
        assert intersect_ray(s, x[3], e[3], a=1.0) == t[3]

    @pytest.mark.parametrize("field", [vertical(), point_source((0.0, 0.0, -5.0))],
                             ids=lambda f: f.name)
    def test_batch_with_one_missed_ray_raises(self, field):
        s = polynomial({(0, 0): 0.5, (2, 0): 2.0})  # leaves the slab at |x1| > 0.5
        x = np.array([[0.0, 0.0], [0.2, 0.1], [0.9, 0.0], [-0.3, 0.2]])
        intersect_ray(s, x[[0, 1, 3]], field.direction(x[[0, 1, 3]]), a=1.0)
        with pytest.raises(MissedSurface, match="0.9"):
            intersect_ray(s, x, field.direction(x), a=1.0)


class TestMidfieldGeneral:
    def test_point_source_matches_per_node_reference(self, grid, constants):
        field = point_source((0.1, 0.0, -3.0))
        mid = midfield_general(field, FACE, constants, grid)
        a = constants.a
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                x = grid.node(i, j)
                e = field.direction(x)
                t = brentq_intersect(FACE, x, e, a)
                hit2 = x + t * e[:2]
                m = refract_standard(e, FACE.normal(hit2), constants.kappa1).direction
                d = (a - t * e[2]) / m[2]
                assert abs(mid.rho[i, j] - t) <= 1e-12
                assert np.max(np.abs(mid.m[i, j] - m)) <= 1e-12
                assert abs(mid.d[i, j] - d) <= 1e-12
                assert np.max(np.abs(mid.Q[i, j] - (hit2 + d * m[:2]))) <= 1e-12

    def test_trace_through_reproduces_nodes_bit_for_bit(self, constants):
        # the verifier keeps its own copy of the ray step; on grid nodes
        # both copies must do the same arithmetic
        grid = Grid2D.from_box(((-0.4, 0.4), (-0.4, 0.4)), 31)
        field = point_source((0.1, 0.0, -3.0))
        mid = midfield_general(field, FACE, constants, grid)
        lens = TraceableLens(surface=FACE, grid=grid,
                             phase=build_phase(field, mid, constants))
        report = trace_through(lens, field, constants, grid.nodes())
        assert np.array_equal(report.meta_points, mid.Q.reshape(-1, 2))
        assert np.array_equal(report.mid_directions, mid.m.reshape(-1, 3))

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((3, 2))],
                             ids=["point", "batch"])
    def test_face_on_the_metasurface_plane_raises(self, constants, x):
        with pytest.raises(NonPositiveDepth):
            ray_to_metasurface(vertical(), flat(constants.a), constants, x)


class TestMidfieldVertical:
    def test_unit_directions_positive_depth(self, dilation_design, constants):
        d = dilation_design
        mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
        norms = np.linalg.norm(mid.m, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.all(mid.d > 0.0)
        delta = delta_from_drho(d.drho, constants.kappa1)
        assert np.all(delta >= constants.kappa1)

    def test_footprint_hits_target_over_kappa(self, dilation_design, constants):
        # for the imaging design, Q must equal T(x) (ray hits the image
        # point's vertical line at the metasurface)
        d = dilation_design
        mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
        x = np.stack(d.grid.meshgrid(), axis=-1)
        target = d.target_map.target(x)
        assert np.max(np.abs(mid.Q - target)) < 1e-8

    def test_agrees_with_general_tracer(self, dilation_design, constants):
        d = dilation_design
        sub = Grid2D(x1=d.grid.x1[40:61:2], x2=d.grid.x2[40:61:2])
        mid_v = midfield_vertical(
            sub,
            d.rho[40:61:2, 40:61:2],
            d.drho[40:61:2, 40:61:2],
            constants,
        )
        mid_g = midfield_general(vertical(), from_design(d, order=5),
                                 constants, sub)
        assert np.max(np.abs(mid_v.m - mid_g.m)) < 1e-7
        assert np.max(np.abs(mid_v.Q - mid_g.Q)) < 1e-7


class TestBuildPhase:
    def test_phase_pinned_at_center(self, dilation_design, constants):
        d = dilation_design
        mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
        phase = build_phase(vertical(), mid, constants)
        assert phase.phi[50, 50] == 0.0
        assert np.allclose(phase.grad_tan, constants.k * mid.m[..., :2])
        assert phase.warnings == []

    def test_failed_condition_attaches_warning(self, dilation_design, constants):
        d = dilation_design
        mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
        bad = ConditionReport(name="sufficient_det_vertical", passed=False,
                              margins={}, details="det A = 0")
        phase = build_phase(vertical(), mid, constants, check_condition=bad)
        assert len(phase.warnings) == 1
        assert "det A = 0" in phase.warnings[0]

    @pytest.mark.parametrize("full, tol", [
        (point_source((0.3, -0.2, -4.0)), 1e-12),
        (collimated((0.1, 0.05, 1.0)), 1e-15),
    ], ids=["point_source", "collimated"])
    def test_recovers_the_potential_of_a_field_given_by_e(self, constants,
                                                           full, tol):
        grid = Grid2D.from_box(((-0.5, 0.5), (-0.5, 0.5)), 101)
        phi = {}
        for field in (full, e_only(full)):
            mid = midfield_general(field, FACE, constants, grid)
            phi[field.name] = build_phase(field, mid, constants).phi
        assert phi["e_only"][50, 50] == 0.0
        assert np.max(np.abs(phi["e_only"] - phi[full.name])) < tol

    def test_single_point_potential_rejected(self, dilation_design, constants):
        d = dilation_design
        mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
        single = IncidentField("single", vertical().e, potential=lambda x: 0.0)
        with pytest.raises(ValueError):
            build_phase(single, mid, constants)


def test_footprint_fold_detected(grid):
    # build a folding footprint Q1 = x1^3 - 0.1 x1 (non-monotone near 0)
    x1, x2 = grid.meshgrid()
    q = np.stack([x1**3 - 0.1 * x1, x2], axis=-1)
    mid = MidField(grid=grid, m=np.zeros(q.shape[:2] + (3,)),
                   d=np.ones(q.shape[:2]), Q=q, rho=np.zeros(q.shape[:2]))
    with pytest.raises(NonInjectiveFootprint):
        footprint_fold_check(mid)


def test_footprint_with_a_nan_is_rejected(grid):
    """max(nan, tol) is nan and compares False both ways, so a NaN in Q
    once passed the fold check silently."""
    x1, x2 = grid.meshgrid()
    q = np.stack([x1, x2], axis=-1)
    q[7, 9, 0] = np.nan  # enters the central differences at 4 nodes
    mid = MidField(grid=grid, m=np.zeros(q.shape[:2] + (3,)),
                   d=np.ones(q.shape[:2]), Q=q, rho=np.zeros(q.shape[:2]))
    with pytest.raises(NonInjectiveFootprint, match="not finite at 4 of 361"):
        footprint_fold_check(mid)


@pytest.mark.parametrize("size", [1, 2, 5, 6, 361, 400])
def test_fold_check_median_is_bit_equal_to_np_median(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        values = np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-8, 8)
        assert farfield._median(values.copy()).tobytes() == \
            np.median(values).tobytes()


QUAD = polynomial({(0, 0): 0.5, (2, 0): 0.2, (0, 2): 0.3, (1, 1): -0.05})


class TestSufficientDets:
    def test_vertical_passes_on_quadratic(self, constants):
        report = sufficient_det_vertical(QUAD, constants, np.array([0.05, -0.1]))
        assert report.passed
        assert report.margins["det_hessian"] == pytest.approx(
            0.4 * 0.6 - 0.05**2, rel=1e-12
        )

    def test_vertical_flags_flat_face(self, constants):
        report = sufficient_det_vertical(flat(0.5), constants, np.zeros(2))
        assert not report.passed
        assert "det D^2 rho = 0" in report.details

    def test_general_matches_vertical(self, constants):
        rg = sufficient_det_general(vertical(), QUAD, constants,
                                    np.array([0.1, 0.05]))
        rv = sufficient_det_vertical(QUAD, constants, np.array([0.1, 0.05]))
        det_big = rv.margins["det_big_reconstructed"]
        assert rg.passed == rv.passed
        assert rg.margins["det"] == pytest.approx(det_big, rel=1e-6)

    def test_general_runs_for_point_source(self, constants):
        field = point_source((0.0, 0.0, -5.0))
        report = sufficient_det_general(field, QUAD, constants,
                                        np.array([0.05, 0.0]))
        assert math.isfinite(report.margins["det"])

    @pytest.mark.parametrize("field", [
        point_source((0.3, -0.2, -4.0)),
        e_only(point_source((0.3, -0.2, -4.0))),
        collimated((0.1, 0.05, 1.0)),
    ], ids=["point_source", "e_only", "collimated"])
    def test_general_det_is_that_of_the_footprint_and_exit_jacobians(
            self, constants, field):
        """An independent check of the assembly, D^2 h included: the
        determinant equals kappa1^2 det DQ det Dm', with the Jacobians of
        the footprint Q and of the tangential direction m' taken by
        central differences of the traced rays."""
        def q_and_m(x):
            _, m, _, q = ray_to_metasurface(field, FACE, constants, x)
            return np.concatenate([q, m[..., :2]], axis=-1)

        for x0 in ([0.0, 0.0], [0.1, -0.2], [0.3, 0.1]):
            x0 = np.array(x0)
            det = sufficient_det_general(field, FACE, constants,
                                         x0).margins["det"]
            j = fd_jacobian(q_and_m, x0, FDStencil(1e-4, 1e-4, order=4))
            expected = (constants.kappa1**2 * np.linalg.det(j[:2])
                        * np.linalg.det(j[2:]))
            assert det == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("field", [
        vertical(),
        point_source((0.0, 0.0, -5.0)),
        dataclasses.replace(point_source((0.0, 0.0, -5.0)), jac=None),
    ], ids=["vertical", "point_source", "point_source_fd"])
    def test_general_traces_its_stencil_in_three_batches(self, constants,
                                                         field, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return intersect_ray(*args, **kwargs)

        monkeypatch.setattr(farfield, "intersect_ray", counting)
        sufficient_det_general(field, QUAD, constants, np.array([0.05, 0.0]))
        # the anchor, then the Jacobian's 8 and the Hessian's 9 points
        assert calls == [(2,), (8, 2), (9, 2)]

    @pytest.mark.parametrize("full, rel", [
        (point_source((0.3, -0.2, -4.0)), 1e-6),
        (collimated((0.1, 0.05, 1.0)), 1e-14),
    ], ids=["point_source", "collimated"])
    def test_general_needs_only_the_directions(self, constants, full, rel):
        """D^2 h is the e' rows of De: a field without potential or jac
        gets the determinant of the full field."""
        dets = [sufficient_det_general(field, FACE, constants,
                                       np.zeros(2)).margins["det"]
                for field in (full, e_only(full))]
        assert dets[1] == pytest.approx(dets[0], rel=rel)

    def test_general_takes_de_of_a_jacless_field_at_its_own_stencil(
            self, constants):
        """D(m De) nests De in a difference, so a field without jac gets
        De at the determinant's order-4 step 1e-4, not the default."""
        bare = e_only(point_source((0.3, -0.2, -4.0)))
        stencil = FDStencil(1e-4, 1e-4, order=4)
        given = dataclasses.replace(
            bare, jac=lambda x: fd_jacobian(bare.direction, x, stencil))
        for x0 in ([0.0, 0.0], [0.1, -0.2], [0.3, 0.1]):
            x0 = np.array(x0)
            assert (sufficient_det_general(bare, FACE, constants, x0).margins
                    == sufficient_det_general(given, FACE, constants,
                                              x0).margins)


class TestEigenvalueSufficient:
    def test_singular_hessian_raises(self, constants):
        with pytest.raises(SingularHessian):
            eigenvalue_sufficient(flat(0.5), constants, np.zeros(2))

    def test_small_curvature_satisfies_second_inequality(self, constants):
        s = polynomial({(0, 0): 0.5, (2, 0): 0.05, (0, 2): 0.08})
        report = eigenvalue_sufficient(s, constants, np.zeros(2))
        assert report.passed
        assert "second inequality" in report.details

    def test_implication_against_determinant(self, constants, rng):
        # whenever an eigenvalue bound holds, the determinant must be nonzero
        for _ in range(25):
            c = {(0, 0): 0.5, (2, 0): rng.uniform(-0.4, 0.4),
                 (0, 2): rng.uniform(-0.4, 0.4), (1, 1): rng.uniform(-0.1, 0.1)}
            s = polynomial(c)
            try:
                eig = eigenvalue_sufficient(s, constants, np.zeros(2))
            except SingularHessian:
                continue
            det = sufficient_det_vertical(s, constants, np.zeros(2))
            if eig.passed:
                assert abs(det.margins["det_A"]) > 1e-12
