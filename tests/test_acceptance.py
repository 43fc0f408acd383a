"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are stated inline next to each check; every reference number
is either exact arithmetic, an independent oracle (quadrature profile,
arcsin Snell angles), or a closed-form value derived by hand.
"""

import json
import math
import time

import numpy as np
import pytest

from hybridlens import io
from hybridlens.cli import main as cli_main
from hybridlens.errors import PathInconsistency
from hybridlens.farfield import (
    build_phase,
    midfield_general,
    midfield_vertical,
    sufficient_det_general,
    sufficient_det_vertical,
)
from hybridlens.fields import collimated, point_source, vertical
from hybridlens.geometry import FDStencil, Grid2D, fd_hessian
from hybridlens.imaging import (
    existence_verdict,
    hessian_closed_form,
    lemma_identity_check,
    matA_closed_form,
    solve_rho,
    solve_rho_2d,
)
from hybridlens.maps import (
    dilation,
    eikonal_distance,
    horizontal_poly,
    identity,
    rotation,
)
from hybridlens.raytrace import TraceableLens, trace_through
from hybridlens.snell import (
    OpticalConstants,
    deviation_lower_bound,
    refract_metasurface,
    refract_standard,
)
from hybridlens.surfaces import from_design, polynomial

from oracles import explicit_dilation_2d, matA_direct

KAPPAS = [1.33, 1.5, 2.0, 0.8]


def report(number, passed, details):
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {details}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def design201(constants):
    """201^2 dilation design shared by criteria 4 and 5; build time kept."""
    grid = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 201)
    t0 = time.perf_counter()
    design = solve_rho(dilation(0.2), constants, grid, x0=(0.0, 0.0))
    return design, time.perf_counter() - t0


def test_criterion_1_snell_suite():
    rng = np.random.default_rng(0)
    n = 10_000
    elapsed = 0.0  # the refraction calls only, not this loop's own work
    zero_phase = np.zeros(3)
    worst_norm = worst_meta = 0.0
    worst_dev = np.inf
    xs, nus, ms = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    kappas = np.array([KAPPAS[i % 4] for i in range(n)])
    for i in range(n):
        kappa = KAPPAS[i % 4]
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        floor = math.sqrt(1.0 - kappa**2) if kappa < 1.0 else 0.0
        while True:
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            if np.dot(x, nu) > floor + 1e-9:
                break
        t0 = time.perf_counter()
        res = refract_standard(x, nu, kappa)
        meta = refract_metasurface(x, nu, kappa, zero_phase, k=1.0)
        elapsed += time.perf_counter() - t0
        m = res.direction
        xs[i], nus[i], ms[i] = x, nu, m
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(m)) - 1.0))
        worst_dev = min(worst_dev,
                        float(np.dot(x, m)) - deviation_lower_bound(kappa))
        worst_meta = max(worst_meta,
                         float(np.max(np.abs(meta.direction - m))),
                         abs(meta.multiplier - res.multiplier))
    # tangential momentum: x cross nu = kappa (m cross nu)
    worst_tan = float(np.max(np.linalg.norm(
        np.cross(xs, nus) - kappas[:, None] * np.cross(ms, nus), axis=1)))
    passed = (worst_tan <= 1e-12 and worst_norm <= 1e-12
              and worst_dev >= -1e-12 and worst_meta <= 1e-15
              and elapsed < 1.0)
    report(1, passed,
           f"10^4 refractions: tangential {worst_tan:.2e} (<=1e-12), "
           f"|m|-1 {worst_norm:.2e} (<=1e-12), deviation margin "
           f"{worst_dev:.2e} (>=-1e-12), zero-phase gap {worst_meta:.2e} "
           f"(<=1e-15), {elapsed:.2f}s (<1s)")


def test_criterion_2_lemma_identity():
    kappa1 = 1.5
    rng = np.random.default_rng(1)
    radius = 0.95 * math.sqrt(kappa1**2 - 1.0)
    worst = 0.0
    count = 0
    while count < 1000:
        y = rng.uniform(-radius, radius, 2)
        if np.linalg.norm(y) > radius:
            continue
        worst = max(worst, lemma_identity_check(y, kappa1))
        count += 1
    report(2, worst <= 1e-11,
           f"rank-1 factorization residual over 10^3 samples: "
           f"{worst:.2e} (<=1e-11)")


def test_criterion_3_integrability(constants):
    grid = Grid2D.from_box(((-0.3, 0.3), (-0.3, 0.3)), 41)
    alpha = 0.25
    passing = {
        "dilation": dilation(0.2),
        "horizontal": horizontal_poly([0.05, 1.2, 0.0, 0.02]),
        "eikonal": eikonal_distance((3.0, 0.0)),
    }
    from hybridlens.maps import admissibility

    residuals = {}
    ok = True
    for name, m in passing.items():
        rep = admissibility(m, grid, tol=1e-10)
        residuals[name] = max(rep.margins["max_abs_curl_S"],
                              rep.margins["max_abs_S_cross_grad_normsq"])
        ok &= rep.passed
    rot = admissibility(rotation(alpha), grid, tol=1e-10)
    curl_err = abs(rot.margins["max_abs_curl_S"] - 2 * alpha)
    ok &= (not rot.passed) and curl_err <= 1e-10
    raised = False
    try:
        solve_rho(rotation(alpha), constants, grid, (0.0, 0.0))
    except PathInconsistency:
        raised = True
    ok &= raised
    worst = max(residuals.values())
    report(3, ok,
           f"admissible-map residual {worst:.2e} (<=1e-10); rotation curl "
           f"error {curl_err:.2e} (<=1e-10); PathInconsistency raised: {raised}")


def test_criterion_4_imaging_end_to_end(design201, constants):
    design, build_time = design201
    t0 = time.perf_counter()
    mid = midfield_vertical(design.grid, design.rho, design.drho, constants)
    phase = build_phase(vertical(), mid, constants)
    lens = TraceableLens.from_design(design, phase)

    rng = np.random.default_rng(4)
    nodes = design.grid.nodes()
    inside = nodes[np.linalg.norm(nodes, axis=1) <= 0.65]
    samples = inside[rng.choice(inside.shape[0], size=1000, replace=False)]

    rep_fd = trace_through(lens, vertical(), constants, samples,
                           gradient_mode="fd_phase")
    rep_an = trace_through(lens, vertical(), constants, samples,
                           gradient_mode="analytic")
    elapsed = build_time + time.perf_counter() - t0
    landing = rep_fd.aggregates["max_landing_error"]
    direction = rep_an.aggregates["max_direction_error"]
    target_gap = float(np.max(np.abs(rep_fd.targets - 1.2 * samples)))
    passed = (landing <= 1e-4 and direction <= 1e-6 and target_gap == 0.0
              and elapsed < 30.0)
    report(4, passed,
           f"201^2 dilation design, 10^3 rays: fd_phase landing error "
           f"{landing:.2e} (<=1e-4), analytic direction error "
           f"{direction:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")


def test_criterion_5_closed_forms(design201):
    design, _ = design201
    surf = from_design(design, order=5)
    rng = np.random.default_rng(5)
    worst_hess = 0.0
    worst_mata = 0.0
    for _ in range(20):
        i, j = rng.integers(30, 171, 2)
        x = design.grid.node(i, j)
        closed = hessian_closed_form(design, x0=x)
        fd = fd_hessian(surf.height, x, FDStencil(1e-4, 1e-4))
        worst_hess = max(worst_hess,
                         float(np.max(np.abs(closed - fd)) / np.max(np.abs(closed))))
        a1 = matA_closed_form(design, x0=x)
        a2 = matA_direct(design, x0=x)
        worst_mata = max(worst_mata, float(np.max(np.abs(a1 - a2))))
    passed = worst_hess <= 1e-4 and worst_mata <= 1e-10
    report(5, passed,
           f"closed-form Hessian vs FD rel {worst_hess:.2e} (<=1e-4); "
           f"matrix-A two routes {worst_mata:.2e} (<=1e-10)")


def test_criterion_6_phase_gradient_identity(dilation_design, constants):
    surf = from_design(dilation_design)
    grid = dilation_design.grid
    k1 = constants.kappa1
    h1, h2 = grid.spacing
    fields = [vertical(), collimated((0.1, 0.05, 1.0)),
              point_source((0.0, 0.0, -5.0))]
    worst = 0.0
    for field in fields:
        mid = midfield_general(field, surf, constants, grid)
        phase = build_phase(field, mid, constants)
        g = k1 * phase.phi / constants.k - mid.rho - k1 * mid.d
        g1 = (g[2:, 1:-1] - g[:-2, 1:-1]) / (2 * h1)
        g2 = (g[1:-1, 2:] - g[1:-1, :-2]) / (2 * h2)
        n1, n2 = grid.shape
        ep = np.array([[field.eprime(grid.node(i, j))
                        for j in range(1, n2 - 1)] for i in range(1, n1 - 1)])
        worst = max(worst,
                    float(np.max(np.abs(g1 - ep[..., 0]))),
                    float(np.max(np.abs(g2 - ep[..., 1]))))
    report(6, worst <= 1e-5,
           f"e' vs interior gradient of (k1 f - rho - k1 d) over three "
           f"fields: {worst:.2e} (<=1e-5)")


def test_criterion_7_2d_convergence():
    # accuracy at the reference instance (z0 = 70)
    constants = OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=100.0, c=150.0)
    z_oracle = explicit_dilation_2d(0.3, 1.5, 100.0, 70.0, 1.0)
    t, rho = solve_rho_2d(lambda t: 0.3 * t, constants, (0.0, 1.0), 70.0, 1e-3)
    err_fine = abs((100.0 - rho[-1]) - z_oracle)

    # convergence order on the exactly rescaled trajectory (the ODE is
    # scale-invariant under (t, z, step) -> (t, z, step)/s): at z0 = 70 the
    # stated steps sit below the double-precision floor (~1e-13), so the
    # order is measured at s = 1000 where those same steps are asymptotic
    scaled = OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=0.2, c=0.3)
    z_scaled = explicit_dilation_2d(0.3, 1.5, 0.2, 0.07, 0.1)
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        _, rho_s = solve_rho_2d(lambda t: 0.3 * t, scaled, (0.0, 0.1), 0.07,
                                step)
        errs.append(abs((0.2 - rho_s[-1]) - z_scaled))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    passed = err_fine <= 1e-8 and min(orders) >= 3.8
    report(7, passed,
           f"RK4 vs quadrature oracle: error {err_fine:.2e} at step 1e-3 "
           f"(<=1e-8); observed orders {orders[0]:.2f}, {orders[1]:.2f} "
           f"(>=3.8, measured on the 1/1000-rescaled trajectory)")


def test_criterion_8_figure_reproduction(tmp_path):
    alphas = [-0.4, -0.2, 0.0, 0.2, 0.4]
    cfg = tmp_path / "plot.json"
    cfg.write_text(json.dumps({
        "constants": {"n1": 1.0, "n2": 1.5, "n3": 1.0, "a": 100.0, "c": 150.0},
        "alphas": alphas,
        "z0": 70.0,
        "t_range": [-1.0, 1.0],
        "step": 5e-3,
        "output_dir": str(tmp_path / "curves"),
    }))
    code = cli_main(["plot2d", "--config", str(cfg)])
    ok = code == 0
    flat_max = None
    for alpha in alphas:
        _, cols = io.read_csv(tmp_path / "curves" /
                              f"profile_alpha_{alpha:+g}.csv")
        t, rho = cols["t"], cols["rho"]
        z = 100.0 - rho
        lo = abs(alpha) * np.abs(t) / math.sqrt(1.5**2 - 1.0)
        ok &= bool(np.all((z > lo) & (z < 100.0)))          # feasibility
        right = rho[t >= 0.0]
        diffs = np.diff(right)
        if alpha > 0:
            ok &= bool(np.all(diffs <= 0.0))                # monotone down
        elif alpha < 0:
            ok &= bool(np.all(diffs >= 0.0))                # monotone up
        else:
            flat_max = float(np.max(np.abs(rho - 30.0)))
            ok &= flat_max == 0.0                           # exactly flat
    report(8, ok,
           f"plot2d z0=70 family: exit code {code}, all curves feasible and "
           f"monotone, alpha=0 deviation {flat_max} (= 0)")


def test_criterion_9_example_classification(constants):
    deep = OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=10.0, c=15.0)
    small = Grid2D.from_box(((-0.15, 0.15), (-0.15, 0.15)), 21)

    d_dil = solve_rho(dilation(0.2), constants, small, (0.0, 0.0))
    v_dil = existence_verdict(d_dil)

    d_id = solve_rho(identity(), constants, small, (0.0, 0.0), z0=0.5)
    v_id = existence_verdict(d_id)

    grid_h = Grid2D.from_box(((0.1, 0.4), (-0.15, 0.15)), 21)
    d_hor = solve_rho(horizontal_poly([0.05, 1.2]), constants, grid_h,
                      (0.25, 0.0), z0=0.6)
    v_hor = existence_verdict(d_hor)

    d_eik = solve_rho(eikonal_distance((1.0, 0.0)), deep, small, (0.0, 0.0),
                      z0=5.0)
    v_eik = existence_verdict(d_eik)

    ok = (v_dil.passed
          and (not v_id.passed) and v_id.margins.get("flat_lens_case") == 1.0
          and (not v_hor.passed)
          and ("zeta_perp = 0" in v_hor.details or "det DS = 0" in v_hor.details)
          and v_eik.passed
          and abs(v_eik.margins["zeta"]) <= 1e-9
          and abs(v_eik.margins["zeta_perp"] - 1.0) <= 1e-9)
    report(9, ok,
           f"dilation pass={v_dil.passed}; identity flat-lens case="
           f"{v_id.margins.get('flat_lens_case') == 1.0}; horizontal reason="
           f"{v_hor.details!r}; eikonal pass={v_eik.passed} with zeta="
           f"{v_eik.margins['zeta']:.1e}, zeta_perp="
           f"{v_eik.margins['zeta_perp']:.12f}")


def test_criterion_10_determinant_equivalence(constants):
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    agree = 0
    for trial in range(50):
        c = np.zeros((5, 5))
        c[0, 0] = 0.5
        c[1, 0], c[0, 1] = rng.uniform(-0.05, 0.05, 2)
        sign = 1.0 if trial % 4 < 2 else -1.0
        c[2, 0], c[0, 2] = sign * rng.uniform(0.15, 0.35, 2)
        c[1, 1] = rng.uniform(-0.05, 0.05)
        if trial % 2 == 1:  # alternate quadratic / quartic patches
            c[4, 0], c[0, 4], c[2, 2] = rng.uniform(-0.05, 0.05, 3)
        surf = polynomial(c)
        x0 = rng.uniform(-0.2, 0.2, 2)
        rg = sufficient_det_general(vertical(), surf, constants, x0)
        rv = sufficient_det_vertical(surf, constants, x0)
        det_big = rv.margins["det_big_reconstructed"]
        worst_rel = max(worst_rel, abs(rg.margins["det"] - det_big) / abs(det_big))
        agree += int(rg.passed == rv.passed)
    passed = agree == 50 and worst_rel <= 1e-6
    report(10, passed,
           f"general vs vertical checker on 50 random patches: verdicts "
           f"agree {agree}/50, determinant rel gap {worst_rel:.2e} (<=1e-6)")
