"""Independent references that only the tests compare the package against.

``explicit_dilation_2d`` is the quadrature oracle of the 2-D profile
solver and ``matA_direct`` assembles the non-singularity matrix from its
definition, to cross-check the paper's factored closed form.  They live
here, not in the package, because no command calls them, and the oracle
needs scipy, which the package does not.
"""

import math
import warnings

import numpy as np

from hybridlens.errors import FeasibilityViolation, HybridLensError
from hybridlens.geometry import outer
from hybridlens.imaging import (
    _state_at,
    delta_from_drho,
    hessian_closed_form,
    rhs_V,
)


class QuadratureError(HybridLensError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def matA_direct(design, x0=None, z0=None):
    """Direct assembly from D rho, D^2 rho and Delta, for cross-validation."""
    x0, z0 = _state_at(design, x0, z0)
    k1 = design.constants.kappa1
    x0 = np.asarray(x0, dtype=float)
    drho = -rhs_V(x0, np.asarray(z0), design.target_map, k1,
                  design.constants.a)
    delta = float(delta_from_drho(drho, k1))
    d2 = hessian_closed_form(design, x0, z0)
    return (
        np.eye(2)
        + ((k1**2 - 1.0) / k1**2) * outer(drho, drho)
        + ((1.0 - k1**2) * z0 / (k1**2 + delta)) * d2
    )


def explicit_dilation_2d(alpha, kappa1, a, z0, t):
    """Exact 2-D profile z(t) for S(t) = alpha t via separable quadrature.

    The homogeneous ODE z' = F(t/z) with
    F(v) = kappa1 alpha v / (kappa1 - sqrt(alpha^2 v^2 + 1))
    reduces, with v = t/z, to t(v) = z0 v exp(G(v)) and z = z0 exp(G(v)),
    G(v) the integral of F/(1 - w F(w)); given t the substitution
    parameter v is recovered by bracketed root-finding.  Entirely
    independent of the RK4 solver, so it can serve as its oracle.
    scipy is imported on each call, so a test can patch
    ``scipy.integrate.quad`` to reach the error path.
    """
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    if kappa1 <= 1.0:
        raise ValueError("kappa1 > 1 required")
    if not (0.0 < z0 < a):
        raise FeasibilityViolation("z0 must lie in (0, a)")
    t = abs(float(t))  # S is odd, hence z is even in t
    if t == 0.0 or alpha == 0.0:
        return z0

    def F(v):
        q = alpha * v
        return kappa1 * q / (kappa1 - math.hypot(q, 1.0))

    def integrand(w):
        fw = F(w)
        return fw / (1.0 - w * fw)

    def G(v):
        with warnings.catch_warnings():
            # near-machine tolerances trigger scipy's roundoff warning; the
            # returned error estimate is validated explicitly below
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(integrand, 0.0, v, epsabs=1e-13, epsrel=1e-13,
                            limit=200)
        if err > 1e-9 * max(1.0, abs(val)):
            raise QuadratureError(f"quadrature error estimate {err:.3e} too large")
        return val

    # Largest usable v: feasibility |alpha| v < sqrt(kappa1^2 - 1), and for
    # alpha > 0 also v F(v) < 1 (the separable form's singularity).
    v_feas = math.sqrt(kappa1**2 - 1.0) / abs(alpha)
    v_cap = v_feas * (1.0 - 1e-12)
    if alpha > 0.0:
        gsing = lambda v: 1.0 - v * F(v)
        if gsing(v_cap) < 0.0:
            v_cap = brentq(gsing, 1e-300, v_cap, xtol=1e-15, rtol=8.9e-16)
            v_cap *= 1.0 - 1e-9

    def log_t_of_v(v):
        return math.log(z0 * v) + G(v)

    target = math.log(t)
    v_lo = min(t / z0, v_cap) * 1e-6
    v_hi = min(t / z0, v_cap)
    while log_t_of_v(v_hi) < target:
        v_hi = 0.5 * (v_hi + v_cap) if v_hi > 0.9 * v_cap else min(2 * v_hi, v_cap)
        if v_cap - v_hi < 1e-14 * v_cap:
            raise FeasibilityViolation(
                f"t = {t} beyond the feasible range of the dilation profile"
            )
    while log_t_of_v(v_lo) > target:
        v_lo *= 0.5
    v = brentq(lambda w: log_t_of_v(w) - target, v_lo, v_hi,
               xtol=1e-300, rtol=8.9e-16)
    z = z0 * math.exp(G(v))
    if not (0.0 < z < a):
        raise FeasibilityViolation(f"explicit profile leaves (0, a): z = {z}")
    return z
