"""Tests of the benchmark itself: every output check passes on real
outputs and reports a failure on a perturbed one, and the tracer's
self times add up.

Run from the root of the checkout:  python -m pytest bench
"""

import json

import numpy as np
import pytest

import hybridlens
import hybridlens.cli

import checks
import reference
import tracer
import workloads

N = 31  # the smallest grid the fixed tolerances are stated for


@pytest.fixture(scope="module")
def imaging_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("imaging")
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(workloads.imaging_config(N)))
    design, retrace = work / "design", work / "retrace"
    assert hybridlens.cli.main(["design-imaging", "--config", str(cfg),
                                "--out", str(design)]) == 0
    assert hybridlens.cli.main(["trace", "--design", str(design), "--out",
                                str(retrace), "--gradient-mode", "fd"]) == 0
    return {
        "rho": checks.read_csv(design / "rho.csv"),
        "phase": checks.read_csv(design / "phase.csv"),
        "trace": checks.read_csv(retrace / "trace_report.csv"),
    }


@pytest.fixture(scope="module")
def farfield_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("farfield")
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(workloads.farfield_config(N)))
    assert hybridlens.cli.main(["design-farfield", "--config", str(cfg), "--out",
                                str(work), "--gradient-mode", "fd"]) == 0
    h = 2.0 * workloads.FARFIELD_HALF_WIDTH / (N - 1)
    return {
        "verdict": json.loads((work / "verdict.json").read_text()),
        "trace": checks.read_csv(work / "trace_report.csv"),
        "phase": checks.read_csv(work / "phase.csv"),
        "spacing": (h, h),
    }


def perturbed(cols, **changes):
    out = {k: v.copy() for k, v in cols.items()}
    for name, fn in changes.items():
        out[name] = fn(out[name])
    return out


def shift_one(delta, index=None):
    def fn(values):
        values[len(values) // 3 if index is None else index] += delta
        return values
    return fn


def test_checks_pass_on_real_outputs(imaging_out, farfield_out):
    a = workloads.ALPHA
    results = [
        checks.footprint(imaging_out["rho"], imaging_out["phase"], a),
        checks.z_row(imaging_out["rho"], a, workloads.KAPPA1),
        checks.retrace(imaging_out["trace"], a),
        checks.farfield_verdict(farfield_out["verdict"]),
        checks.exit_vertical(farfield_out["trace"]),
        checks.phase_gradient(farfield_out["phase"], (N, N), farfield_out["spacing"]),
    ]
    assert all(r.passed for r in results), [r.describe() for r in results]


def test_footprint_shifted_by_1e_6_fails(imaging_out):
    phase = perturbed(imaging_out["phase"], Q1=shift_one(1e-6))
    assert not checks.footprint(imaging_out["rho"], phase, workloads.ALPHA).passed


def test_z_row_off_the_profile_fails(imaging_out):
    rho = imaging_out["rho"]
    row = np.flatnonzero(np.abs(rho["x2"]) == np.min(np.abs(rho["x2"])))
    ok = checks.z_row(rho, workloads.ALPHA, workloads.KAPPA1)
    bad = perturbed(rho, z=shift_one(10.0 * ok.tol, index=row[3]))
    assert not checks.z_row(bad, workloads.ALPHA, workloads.KAPPA1).passed


def test_retrace_landing_shifted_by_2e_4_fails(imaging_out):
    trace = perturbed(imaging_out["trace"], land2=shift_one(2e-4))
    assert not checks.retrace(trace, workloads.ALPHA).passed


@pytest.mark.parametrize("key", ["curl_condition", "sufficient_det_general"])
def test_failed_farfield_verdict_fails(farfield_out, key):
    verdict = json.loads(json.dumps(farfield_out["verdict"]))
    verdict[key]["passed"] = False
    assert not checks.farfield_verdict(verdict).passed


def test_exit_direction_tilted_by_1e_6_fails(farfield_out):
    trace = perturbed(farfield_out["trace"], w1=shift_one(1e-6))
    assert not checks.exit_vertical(trace).passed


def test_phase_with_added_tilt_fails(farfield_out):
    phase = farfield_out["phase"]
    tilted = perturbed(phase, phi=lambda phi: phi + 1e-3 * phase["Q1"])
    assert not checks.phase_gradient(tilted, (N, N), farfield_out["spacing"]).passed


def test_nan_never_passes(imaging_out):
    trace = perturbed(imaging_out["trace"], land1=shift_one(np.nan))
    assert not checks.retrace(trace, workloads.ALPHA).passed


@pytest.fixture(scope="module")
def offnode_session(tmp_path_factory):
    w = workloads.Workload("offnode-test", "", imaging_n=N, farfield_n=N,
                           lens_n=201, analytic_offnode=True)
    return workloads.Session(hybridlens, w, seed=3,
                             work_dir=tmp_path_factory.mktemp("session"))


def test_trace_stage_counts_the_known_fault_only(offnode_session):
    rec = workloads.Record()
    offnode_session.stage_trace(rec)
    assert rec.attempted == 2 * workloads.RAYS
    assert rec.failed == workloads.RAYS  # every analytic ray between nodes misses
    assert rec.errors == []
    assert rec.samples["landing_error_fd_max"][0] < checks.LANDING_TOL


def test_trace_stage_reports_a_shifted_landing(offnode_session, monkeypatch):
    real = hybridlens.raytrace.trace_through

    def shifted(*args, **kwargs):
        report = real(*args, **kwargs)
        report.landings[0, 0] += 2e-4
        return report

    monkeypatch.setattr(hybridlens.raytrace, "trace_through", shifted)
    rec = workloads.Record()
    offnode_session.stage_trace(rec)
    assert rec.failed == workloads.RAYS + 1
    assert len(rec.errors) == 1 and "fd_phase" in rec.errors[0]


def test_trace_stage_reports_a_non_unit_exit_direction(offnode_session, monkeypatch):
    real = hybridlens.raytrace.trace_through

    def stretched(*args, **kwargs):
        report = real(*args, **kwargs)
        report.exit_directions[5] *= 1.0 + 1e-9
        return report

    monkeypatch.setattr(hybridlens.raytrace, "trace_through", stretched)
    rec = workloads.Record()
    offnode_session.stage_trace(rec)
    assert len(rec.errors) == 2 and all("not unit" in e for e in rec.errors)


def test_offnode_rays_do_not_depend_on_the_seed(offnode_session, tmp_path):
    other = workloads.Session(hybridlens, offnode_session.workload, seed=4,
                              work_dir=tmp_path)
    assert np.array_equal(other.analytic_rays, offnode_session.analytic_rays)
    assert not np.array_equal(other.fd_rays, offnode_session.fd_rays)


def test_trace_stage_records_scaled_and_raw_rates(offnode_session):
    rec = workloads.Record()
    offnode_session.stage_trace(rec)
    for metric in ("trace_analytic_rays_per_s", "trace_fd_rays_per_s"):
        assert len(rec.samples[metric]) == len(rec.samples["raw:" + metric]) == 1
        assert rec.samples[metric][0] > 0.0


def test_scaling_takes_out_the_machine_speed():
    nominal = reference.NOMINAL_S
    # a stage and its reference both twice as slow: the scaled time holds
    assert reference.scaled(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert reference.scaled(1.0, nominal, nominal) == pytest.approx(1.0)
    assert reference.scaled(1.0, 0.5 * nominal, 1.5 * nominal) == pytest.approx(1.0)
    assert 0.0 < reference.sample() < 10.0


def test_self_time_is_span_minus_children():
    tr = tracer.Tracer()
    with tr.span("cli.trace"):
        with tr.span("io.read"):
            pass
        with tr.span("raytrace.trace_through"):
            with tr.span("snell.refract_standard"):
                pass
    t = tr.totals(0, len(tr))
    a = tr.arrays()
    dur = a["end"] - a["start"]
    i = tr.names.index
    assert t["self_s"][i("cli.trace")] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert t["self_s"][i("raytrace.trace_through")] == pytest.approx(dur[2] - dur[3])
    assert t["calls"][i("snell.refract_standard")] == 1


def test_installed_wrappers_are_removed_afterwards():
    before = hybridlens.config.DesignConfig.__dict__["from_file"]
    tr = tracer.Tracer()
    with tr.installed():
        assert hybridlens.cli.admissibility is not hybridlens.maps.admissibility
    assert hybridlens.cli.admissibility is hybridlens.maps.admissibility
    assert hybridlens.config.DesignConfig.__dict__["from_file"] is before
