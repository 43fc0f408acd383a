import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hybridlens import raytrace
from hybridlens.farfield import PhaseMap, build_phase, midfield_vertical
from hybridlens.fields import vertical
from hybridlens.geometry import Grid2D
from hybridlens.imaging import solve_rho
from hybridlens.maps import identity
from hybridlens.raytrace import TraceableLens, trace_through


@pytest.fixture(scope="module")
def dilation_lens(dilation_design, constants):
    d = dilation_design
    mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
    phase = build_phase(vertical(), mid, constants)
    return TraceableLens.from_design(d, phase)


@pytest.fixture(scope="module")
def node_samples(dilation_design):
    g = dilation_design.grid
    pts = [g.node(i, j) for i in range(10, 91, 8) for j in range(10, 91, 8)]
    return np.array(pts)


def test_identity_lens_passes_rays_straight(constants):
    grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 41)
    design = solve_rho(identity(), constants, grid, (0.0, 0.0), z0=0.5)
    mid = midfield_vertical(grid, design.rho, design.drho, constants)
    phase = build_phase(vertical(), mid, constants)
    lens = TraceableLens.from_design(design, phase)
    samples = np.array([[0.0, 0.0], [0.1, -0.2], [-0.25, 0.15]])
    report = trace_through(lens, vertical(), constants, samples)
    assert report.aggregates["max_direction_error"] < 1e-13
    assert np.max(np.abs(report.landings - samples)) < 1e-13


def test_dilation_analytic_at_nodes(dilation_lens, constants, node_samples):
    report = trace_through(dilation_lens, vertical(), constants, node_samples)
    assert report.aggregates["max_landing_error"] < 1e-8
    assert report.aggregates["max_direction_error"] < 1e-8
    assert np.allclose(report.targets, 1.2 * node_samples)


def test_dilation_fd_phase_off_nodes(dilation_lens, constants, rng):
    r = 0.6 * np.sqrt(rng.uniform(size=200))
    theta = rng.uniform(0, 2 * np.pi, 200)
    samples = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    report = trace_through(dilation_lens, vertical(), constants, samples,
                           gradient_mode="fd_phase")
    assert report.aggregates["max_landing_error"] < 1e-6


def test_unknown_gradient_mode(dilation_lens, constants):
    with pytest.raises(ValueError):
        trace_through(dilation_lens, vertical(), constants,
                      np.zeros((1, 2)), gradient_mode="nope")
    # also once the lens holds its fd_phase splines
    trace_through(dilation_lens, vertical(), constants, np.zeros((1, 2)),
                  gradient_mode="fd_phase")
    with pytest.raises(ValueError, match="unknown gradient mode"):
        trace_through(dilation_lens, vertical(), constants,
                      np.zeros((1, 2)), gradient_mode="fd")


def test_hit_heights_inside_slab(dilation_lens, constants, node_samples):
    report = trace_through(dilation_lens, vertical(), constants, node_samples)
    assert np.all(report.hits[:, 2] > 0.0)
    assert np.all(report.hits[:, 2] < constants.a)


def test_corrupted_phase_detected(dilation_lens, constants, node_samples):
    corrupted = TraceableLens(
        surface=dilation_lens.surface,
        phase=PhaseMap(
            Q=dilation_lens.phase.Q,
            phi=dilation_lens.phase.phi,
            grad_tan=1.1 * dilation_lens.phase.grad_tan,
        ),
        grid=dilation_lens.grid,
        target_map=dilation_lens.target_map,
    )
    report = trace_through(corrupted, vertical(), constants, node_samples)
    # 10% gradient error leaves a clearly nonzero direction error pattern
    assert report.aggregates["max_direction_error"] > 1e-3


@pytest.mark.parametrize("mode", ["analytic", "fd_phase"])
def test_batch_trace_equals_single_rays(dilation_lens, constants, node_samples,
                                        rng, mode):
    samples = np.concatenate([node_samples, rng.uniform(-0.6, 0.6, (40, 2))])
    batch = trace_through(dilation_lens, vertical(), constants, samples,
                          gradient_mode=mode)
    for i, x in enumerate(samples):
        one = trace_through(dilation_lens, vertical(), constants, x,
                            gradient_mode=mode)
        for name in ["hits", "mid_directions", "meta_points",
                     "exit_directions", "landings"]:
            assert np.array_equal(getattr(batch, name)[i],
                                  getattr(one, name)[0]), name


@pytest.mark.parametrize("mode", ["analytic", "fd_phase"])
def test_samples_outside_the_patch_are_counted(dilation_lens, constants,
                                               node_samples, mode):
    inside = trace_through(dilation_lens, vertical(), constants, node_samples,
                           gradient_mode=mode)
    assert inside.aggregates["outside_patch"] == 0
    samples = np.concatenate([node_samples, [[0.9, 0.0]]])
    report = trace_through(dilation_lens, vertical(), constants, samples,
                           gradient_mode=mode)
    assert report.aggregates["outside_patch"] == 1
    assert np.array_equal(report.landings[:-1], inside.landings)


REPORT_FIELDS = ["hits", "mid_directions", "meta_points", "exit_directions",
                 "landings", "targets"]


def _fresh_lens(lens):
    return TraceableLens(surface=lens.surface, phase=lens.phase,
                         grid=lens.grid, target_map=lens.target_map)


@pytest.fixture
def fit_count(monkeypatch):
    """Counts the splines ``raytrace`` fits."""
    fits = []
    real = raytrace.GridSpline

    def counted(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(raytrace, "GridSpline", counted)
    return fits


def test_fd_phase_splines_are_fit_once_per_lens(dilation_lens, constants,
                                                node_samples, fit_count):
    lens = _fresh_lens(dilation_lens)
    trace = lambda mode: trace_through(lens, vertical(), constants,
                                       node_samples, gradient_mode=mode)
    trace("analytic")
    assert len(fit_count) == 0
    first = trace("fd_phase")
    assert len(fit_count) == 1  # phi, Q1 and Q2 in one stacked fit
    second = trace("fd_phase")
    trace("analytic")
    assert len(fit_count) == 1
    fresh = trace_through(_fresh_lens(dilation_lens), vertical(), constants,
                          node_samples, gradient_mode="fd_phase")
    assert len(fit_count) == 2
    for name in REPORT_FIELDS:
        assert np.array_equal(getattr(second, name), getattr(first, name)), name
        assert np.array_equal(getattr(fresh, name), getattr(first, name)), name
    assert second.aggregates == first.aggregates == fresh.aggregates


@pytest.mark.parametrize("name", ["surface", "phase", "grid", "target_map"])
def test_lens_fields_cannot_be_swapped(dilation_lens, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(dilation_lens, name, None)


def test_traced_lens_is_freed_without_the_cyclic_collector(dilation_lens,
                                                           constants,
                                                           node_samples):
    lens = _fresh_lens(dilation_lens)
    gc.disable()
    try:
        for mode in ["analytic", "fd_phase"]:
            trace_through(lens, vertical(), constants, node_samples,
                          gradient_mode=mode)
        ref = weakref.ref(lens)
        del lens
        assert ref() is None
    finally:
        gc.enable()
