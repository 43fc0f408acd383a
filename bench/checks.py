"""Output checks for the benchmark workloads.

Each check compares what the program wrote, or returned, with a
property the method must have or with a computation made here.  None of
them reads a verdict or an aggregate the program computed about itself,
except ``farfield_verdict``, which checks that the program's own curl
and determinant checks passed.  Files are parsed here, not with
``hybridlens.io``, so a fault in the reader cannot hide a fault in the
writer.

Every check returns a :class:`Check`; it passes when ``worst <= tol``
(a NaN never passes).
"""

import math
from typing import NamedTuple

import numpy as np

#: Criterion 4's bound on the distance between a landing and its target.
LANDING_TOL = 1e-4
#: Exact in the vertical-field imaging construction; holds to ~1e-16.
FOOTPRINT_TOL = 1e-12
#: Refracted directions are unit vectors up to rounding.
UNIT_TOL = 1e-12
#: Exit directions of the far-field design in ``fd`` mode (1.4e-11 at
#: 101^2, 2.1e-10 at 31^2, 1.4e-9 at 21^2, so grids of 31^2 and up).
EXIT_DIRECTION_TOL = 1e-9
#: RK4 error of the z profile is O(h^4); the gap is about 7e-3 h^4.
Z_ROW_COEF = 0.1
#: Central differences are O(h^2); the gap is about 2.8e-2 h^2.
PHASE_GRADIENT_COEF = 0.3


class Check(NamedTuple):
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return bool(self.worst <= self.tol)

    def describe(self):
        verdict = "ok" if self.passed else "FAILED"
        return f"{self.name}: worst {self.worst:.3e} vs tol {self.tol:.1e} {verdict}"


def read_csv(path):
    """Columns of a numeric CSV with one header line, by name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        body = f.read()
    data = np.array(body.replace(",", " ").split(), dtype=float)
    data = data.reshape(-1, len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _worst(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return math.inf
    if np.isnan(values).any():
        return math.nan
    return float(np.max(values))


def footprint(rho_cols, phase_cols, alpha):
    """Every footprint point Q equals (1 + alpha)(x1, x2) of its node."""
    q = np.column_stack([phase_cols["Q1"], phase_cols["Q2"]])
    x = np.column_stack([rho_cols["x1"], rho_cols["x2"]])
    if q.shape != x.shape:
        return Check("imaging.footprint", math.inf, FOOTPRINT_TOL)
    err = np.abs(q - (1.0 + alpha) * x)
    return Check("imaging.footprint", _worst(err), FOOTPRINT_TOL)


def dilation_profile(t, z0, alpha, kappa1, substeps=8):
    """z(t) of z' = kappa1 s / (kappa1 - sqrt(s^2 + 1)), s = alpha t / z,
    with z(t[anchor]) = z0 where ``t`` is sorted and t[anchor] = 0.

    Classical RK4 with ``substeps`` steps per interval of ``t``, so its
    own error is ``substeps**4`` times below that of the design grid.
    """

    def deriv(tt, z):
        s = alpha * tt / z
        return kappa1 * s / (kappa1 - math.sqrt(s * s + 1.0))

    anchor = int(np.argmin(np.abs(t)))
    z = np.empty(len(t))
    z[anchor] = z0
    for direction in (1, -1):
        i = anchor
        while 0 <= i + direction < len(t):
            t0, t1 = t[i], t[i + direction]
            h = (t1 - t0) / substeps
            zz = z[i]
            for k in range(substeps):
                tk = t0 + k * h
                k1 = deriv(tk, zz)
                k2 = deriv(tk + 0.5 * h, zz + 0.5 * h * k1)
                k3 = deriv(tk + 0.5 * h, zz + 0.5 * h * k2)
                k4 = deriv(tk + h, zz + h * k3)
                zz += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            i += direction
            z[i] = zz
    return z


def z_row(rho_cols, alpha, kappa1):
    """The x2 = 0 row of z agrees with ``dilation_profile`` to RK4 accuracy.

    On that row S = (alpha x1, 0), so the design's z restricted to it
    solves the 1-D lens ODE.  The anchor value is taken from the file.
    """
    x1, x2, z = rho_cols["x1"], rho_cols["x2"], rho_cols["z"]
    row = np.abs(x2) == np.min(np.abs(x2))
    order = np.argsort(x1[row])
    t, zr = x1[row][order], z[row][order]
    if t.size < 2:
        return Check("imaging.z_row", math.inf, 0.0)
    ref = dilation_profile(t, zr[np.argmin(np.abs(t))], alpha, kappa1)
    h = float(np.max(np.diff(t)))
    return Check("imaging.z_row", _worst(np.abs(zr - ref)), Z_ROW_COEF * h**4)


def landing_errors(x, landings, alpha):
    """Distance of each landing from (1 + alpha) x, x the ray's start."""
    return np.linalg.norm(np.asarray(landings) - (1.0 + alpha) * np.asarray(x),
                          axis=1)


def retrace(trace_cols, alpha):
    """Every landing of the re-trace lies within 1e-4 of (1 + alpha) x,
    with x read from the ray's ``x1, x2`` columns (not its targets)."""
    x = np.column_stack([trace_cols["x1"], trace_cols["x2"]])
    land = np.column_stack([trace_cols["land1"], trace_cols["land2"]])
    return Check("retrace.landing", _worst(landing_errors(x, land, alpha)),
                 LANDING_TOL)


def unit_errors(directions):
    return np.abs(np.linalg.norm(np.asarray(directions), axis=1) - 1.0)


def farfield_verdict(verdict):
    """``verdict.json`` reports that the curl and determinant checks pass
    (worst is 0 when both pass and 1 otherwise)."""
    passed = all(
        bool(verdict.get(key, {}).get("passed"))
        for key in ("curl_condition", "sufficient_det_general")
    )
    return Check("farfield.verdict", 0.0 if passed else 1.0, 0.0)


def exit_vertical(trace_cols):
    """Every exit direction lies within 1e-9 of (0, 0, 1)."""
    w = np.column_stack([trace_cols["w1"], trace_cols["w2"], trace_cols["w3"]])
    err = np.linalg.norm(w - np.array([0.0, 0.0, 1.0]), axis=1)
    return Check("farfield.exit_direction", _worst(err), EXIT_DIRECTION_TOL)


def phase_gradient(phase_cols, shape, spacing):
    """Central differences of phi over the node grid equal
    DQ^T (dphi_du1, dphi_du2) to FD accuracy, on interior nodes.

    phi(Q(x)) is a function of the node x, so its x-derivative is the
    chain rule of the stored surface gradient through the footprint
    map Q; both sides use only the written samples.
    """
    cols = {k: phase_cols[k].reshape(shape) for k in
            ("Q1", "Q2", "phi", "dphi_du1", "dphi_du2")}
    inner = (slice(1, -1), slice(1, -1))
    g1, g2 = cols["dphi_du1"][inner], cols["dphi_du2"][inner]
    gaps = []
    for axis, h in enumerate(spacing):
        def central(f):
            d = (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
            return d[inner]

        predicted = central(cols["Q1"]) * g1 + central(cols["Q2"]) * g2
        gaps.append(np.abs(central(cols["phi"]) - predicted).ravel())
    worst = _worst(np.concatenate(gaps))
    tol = PHASE_GRADIENT_COEF * float(max(spacing)) ** 2
    return Check("farfield.phase_gradient", worst, tol)
