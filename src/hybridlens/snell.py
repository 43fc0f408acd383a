"""Vectorial refraction at conventional surfaces and metasurfaces.

The refraction laws are expressed through the tangential-momentum
conservation n1 (x cross nu) = n2 (m cross nu), resolved into
x - kappa m = lambda nu for a conventional interface and
x - grad(phi)/k - kappa m = mu nu for a metasurface.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    InvalidIncidence,
    MetaTotalInternalReflection,
    TotalInternalReflection,
)

# Clamp slightly negative discriminants caused by roundoff at grazing
# feasibility instead of letting sqrt produce NaN.
DISCRIMINANT_TOL = 1e-12


@dataclass(frozen=True)
class OpticalConstants:
    """Refractive indices of the three media and the lens geometry.

    Medium I is below the lower face, II inside the lens, III above the
    metasurface plane {x3 = a}; the target plane is {x3 = c}.  ``k`` is
    the wavenumber in medium II (the medium just before the metasurface).
    """

    n1: float
    n2: float
    n3: float
    k: float = 1.0
    a: float = 1.0
    c: float = 2.0

    def __post_init__(self):
        if min(self.n1, self.n2, self.n3) <= 0:
            raise ValueError("refractive indices must be positive")
        if self.k <= 0:
            raise ValueError("wavenumber must be positive")

    @property
    def kappa1(self):
        return self.n2 / self.n1

    @property
    def kappa2(self):
        return self.n3 / self.n2

    def require_lens_geometry(self):
        if not (self.kappa1 > 1.0):
            raise ValueError("lens problems require n2 > n1 (kappa1 > 1)")
        if not (self.c > self.a > 0.0):
            raise ValueError("lens problems require c > a > 0")


@dataclass(frozen=True)
class RefractionResult:
    """Refracted unit direction and the normal-component multiplier:
    (3,) and a float for one ray, (n, 3) and (n,) for a batch."""

    direction: np.ndarray
    multiplier: Union[float, np.ndarray]


def _rowdot(u, v):
    """Row-wise dot product of (n, 3) arrays; a (3,) operand broadcasts."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _dots(x, nu):
    """Floats x . nu and x . x of two 3-vectors, summed in ``_rowdot``'s
    order so that a single ray refracts exactly like its row in a batch."""
    x1, x2, x3 = x.tolist()
    n1, n2, n3 = nu.tolist()
    return x1 * n1 + x2 * n2 + x3 * n3, x1 * x1 + x2 * x2 + x3 * x3


def _first(bad):
    return int(np.flatnonzero(bad)[0])


def _refract_rows(xs, nu, kappa, xsdn, disc):
    """Array form of ``m = (xs - mu nu) / kappa`` shared by both laws."""
    mu = xsdn - np.sqrt(np.maximum(disc, 0.0))
    return RefractionResult(direction=(xs - mu[:, None] * nu) / kappa,
                            multiplier=mu)


def _standard_rows(x, nu, kappa):
    x = np.atleast_2d(x)
    xdn = _rowdot(x, nu)
    if np.any(xdn < 0.0):
        i = _first(xdn < 0.0)
        raise InvalidIncidence(
            f"ray {i}: x . nu = {xdn[i]} < 0; orient nu toward medium II"
        )
    disc = kappa * kappa - _rowdot(x, x) + xdn * xdn
    if kappa < 1.0 and np.any(disc < DISCRIMINANT_TOL):
        i = _first(disc < DISCRIMINANT_TOL)
        raise TotalInternalReflection(
            f"ray {i}: x . nu = {xdn[i]} < sqrt(1 - kappa^2) = "
            f"{math.sqrt(1 - kappa**2)}"
        )
    if np.any(disc < -DISCRIMINANT_TOL):
        raise FloatingPointError  # as for one ray: not unit directions
    return _refract_rows(x, nu, kappa, xdn, disc)


def _metasurface_rows(xs, nu, kappa):
    xs = np.atleast_2d(xs)
    xsdn = _rowdot(xs, nu)
    if np.any(xsdn < 0.0):
        i = _first(xsdn < 0.0)
        raise InvalidIncidence(
            f"ray {i}: (x - grad_phi/k) . nu = {xsdn[i]} < 0; orient nu "
            f"toward the outgoing medium"
        )
    disc = kappa * kappa - _rowdot(xs, xs) + xsdn * xsdn
    if np.any(disc < -DISCRIMINANT_TOL):
        i = _first(disc < -DISCRIMINANT_TOL)
        raise MetaTotalInternalReflection(
            f"ray {i}: feasibility bracket fails: {xsdn[i]**2} < "
            f"{_rowdot(xs[i], xs[i]) - kappa**2}"
        )
    return _refract_rows(xs, nu, kappa, xsdn, disc)


def refract_standard(x, nu, kappa):
    """Refract unit direction ``x`` at a surface with unit normal ``nu``.

    kappa = n2/n1 is the ratio of downstream to upstream indices.  The
    normal must point toward the outgoing medium: x . nu >= 0 is required
    and not silently fixed up, so orientation bugs surface immediately.

    ``x`` and ``nu`` are 3-vectors, or a batch: an (n, 3) array of rays
    with an (n, 3) or (3,) normal.  A batch returns (n, 3) directions and
    (n,) multipliers, computed row by row with the same formula, and its
    first failing ray raises the exception that ray raises alone.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if x.ndim != 1 or nu.ndim != 1:
        return _standard_rows(x, nu, kappa)
    xdn, xx = _dots(x, nu)
    if xdn < 0.0:
        raise InvalidIncidence(f"x . nu = {xdn} < 0; orient nu toward medium II")
    # same arithmetic as the metasurface branch with grad_phi = 0, so the
    # two laws coincide exactly (not just to roundoff) in that limit
    disc = kappa * kappa - xx + xdn * xdn
    if kappa < 1.0 and disc < DISCRIMINANT_TOL:
        raise TotalInternalReflection(
            f"x . nu = {xdn} < sqrt(1 - kappa^2) = {math.sqrt(1 - kappa**2)}"
        )
    if disc < 0.0:
        if disc < -DISCRIMINANT_TOL:
            raise FloatingPointError  # not a unit direction
        disc = 0.0
    lam = xdn - math.sqrt(disc)
    m = (x - lam * nu) / kappa
    return RefractionResult(direction=m, multiplier=lam)


def refract_metasurface(x, nu, kappa, grad_phi, k):
    """Refract at a metasurface carrying phase gradient ``grad_phi``.

    Implements the generalized law with the incident direction shifted by
    grad(phi)/k.  ``grad_phi`` may be a full 3-vector; when it is
    tangential (grad_phi . nu = 0) the formula coincides with the
    documented tangential special case.

    Takes the batch shapes of ``refract_standard``, with ``grad_phi``
    (n, 3) or (3,).
    """
    if kappa <= 0 or k <= 0:
        raise ValueError("kappa and k must be positive")
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    xs = x - np.asarray(grad_phi, dtype=float) / k
    if xs.ndim != 1 or nu.ndim != 1:
        return _metasurface_rows(xs, nu, kappa)
    xsdn, xsxs = _dots(xs, nu)
    if xsdn < 0.0:
        raise InvalidIncidence(
            f"(x - grad_phi/k) . nu = {xsdn} < 0; orient nu toward the outgoing medium"
        )
    disc = kappa * kappa - xsxs + xsdn * xsdn
    if disc < -DISCRIMINANT_TOL:
        raise MetaTotalInternalReflection(
            f"feasibility bracket fails: {xsdn**2} < {xsxs - kappa**2}"
        )
    mu = xsdn - math.sqrt(max(disc, 0.0))
    m = (xs - mu * nu) / kappa
    return RefractionResult(direction=m, multiplier=mu)


def deviation_lower_bound(kappa):
    """Proven lower bound for x . m over all valid refractions."""
    if kappa <= 0 or kappa == 1.0:
        raise ValueError("kappa must be positive and different from 1")
    return 1.0 / kappa if kappa > 1.0 else kappa
