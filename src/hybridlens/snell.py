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
    Constants that describe no lens, without n2 > n1 (kappa1 > 1) and
    c > a > 0, cannot be built.
    """

    n1: float
    n2: float
    n3: float
    k: float = 1.0
    a: float = 1.0
    c: float = 2.0

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "k", "a", "c"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if min(self.n1, self.n2, self.n3) <= 0:
            raise ValueError("refractive indices must be positive")
        if self.k <= 0:
            raise ValueError("wavenumber must be positive")
        if not (self.kappa1 > 1.0):
            raise ValueError("lens problems require n2 > n1 (kappa1 > 1)")
        if not (self.c > self.a > 0.0):
            raise ValueError("lens problems require c > a > 0")

    @property
    def kappa1(self):
        return self.n2 / self.n1

    @property
    def kappa2(self):
        return self.n3 / self.n2


@dataclass(frozen=True)
class RefractionResult:
    """Refracted unit direction and the normal-component multiplier:
    (3,) and a float for one ray, (n, 3) and (n,) for a batch."""

    direction: np.ndarray
    multiplier: Union[float, np.ndarray]


def _rowdot(u, v):
    """Row-wise dot product of (n, 3) arrays; a (3,) operand broadcasts."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _refract(xs, nu, kappa, metasurface):
    """The one refraction kernel: ``m = (xs - mu nu) / kappa`` row by row,
    with ``xs = x`` for the standard law and ``xs = x - grad_phi/k`` for
    the metasurface law.  A single ray is a batch of one, so it refracts
    bit-equal to its row in a batch.  The first failing row raises."""
    rows = xs.reshape(-1, 3)
    xsdn = _rowdot(rows, nu)
    xsxs = _rowdot(rows, rows)
    disc = kappa * kappa - xsxs + xsdn * xsdn
    tir = kappa < 1.0 and not metasurface
    bad = (xsdn < 0.0) | (disc < (DISCRIMINANT_TOL if tir else -DISCRIMINANT_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        if xsdn[i] < 0.0:
            raise InvalidIncidence(
                f"ray {i}: {'(x - grad_phi/k)' if metasurface else 'x'} . nu = "
                f"{xsdn[i]} < 0; orient nu toward the outgoing medium"
            )
        if metasurface:
            raise MetaTotalInternalReflection(
                f"ray {i}: feasibility bracket fails: {xsdn[i]**2} < "
                f"{xsxs[i] - kappa**2}"
            )
        if tir:
            raise TotalInternalReflection(
                f"ray {i}: x . nu = {xsdn[i]} < sqrt(1 - kappa^2) = "
                f"{math.sqrt(1 - kappa**2)}"
            )
        raise FloatingPointError(
            f"ray {i}: discriminant {disc[i]} < 0; x is not a unit direction"
        )
    mu = xsdn - np.sqrt(np.maximum(disc, 0.0))
    m = (rows - mu[:, None] * nu) / kappa
    if xs.ndim == 1 and nu.ndim == 1:
        return RefractionResult(direction=m[0], multiplier=float(mu[0]))
    return RefractionResult(direction=m, multiplier=mu)


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
    return _refract(np.asarray(x, dtype=float), np.asarray(nu, dtype=float),
                    kappa, metasurface=False)


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
    xs = np.asarray(x, dtype=float) - np.asarray(grad_phi, dtype=float) / k
    return _refract(xs, np.asarray(nu, dtype=float), kappa, metasurface=True)


def deviation_lower_bound(kappa):
    """Proven lower bound for x . m over all valid refractions."""
    if kappa <= 0 or kappa == 1.0:
        raise ValueError("kappa must be positive and different from 1")
    return 1.0 / kappa if kappa > 1.0 else kappa
