import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens.errors import (
    InvalidIncidence,
    MetaTotalInternalReflection,
    TotalInternalReflection,
)
from hybridlens.snell import (
    OpticalConstants,
    deviation_lower_bound,
    refract_metasurface,
    refract_standard,
)

KAPPAS = [1.33, 1.5, 2.0, 0.8]


def random_incidence(rng, kappa):
    """Random unit (x, nu) with x . nu >= 0 and above the TIR threshold."""
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    floor = math.sqrt(1.0 - kappa**2) if kappa < 1.0 else 0.0
    while True:
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        if np.dot(x, nu) > floor + 1e-6:
            return x, nu


def test_normal_incidence_passes_through():
    nu = np.array([0.0, 0.0, 1.0])
    res = refract_standard(nu, nu, 1.5)
    assert np.allclose(res.direction, nu)
    assert res.multiplier == pytest.approx(1.0 - 1.5)


def test_planar_snell_angles():
    # sin(theta_in) = kappa sin(theta_out) against the arcsin oracle
    kappa = 1.5
    nu = np.array([0.0, 0.0, 1.0])
    for theta_in in [0.1, 0.4, 1.0, 1.4]:
        x = np.array([math.sin(theta_in), 0.0, math.cos(theta_in)])
        m = refract_standard(x, nu, kappa).direction
        theta_out = math.asin(math.sin(theta_in) / kappa)
        assert np.allclose(
            m, [math.sin(theta_out), 0.0, math.cos(theta_out)], atol=1e-14
        )


@given(seed=st.integers(0, 2**31 - 1), kappa=st.sampled_from(KAPPAS))
@settings(max_examples=200, deadline=None)
def test_standard_invariants(seed, kappa):
    rng = np.random.default_rng(seed)
    x, nu = random_incidence(rng, kappa)
    res = refract_standard(x, nu, kappa)
    m = res.direction
    # tangential momentum: x cross nu = kappa (m cross nu)
    assert np.linalg.norm(np.cross(x, nu) - kappa * np.cross(m, nu)) < 1e-12
    assert abs(np.linalg.norm(m) - 1.0) < 1e-12
    assert np.dot(x, m) >= deviation_lower_bound(kappa) - 1e-12


def test_total_internal_reflection():
    kappa = 0.8
    nu = np.array([0.0, 0.0, 1.0])
    theta = math.sqrt(1.0 - kappa**2)
    x = np.array([math.sqrt(1 - (0.9 * theta) ** 2), 0.0, 0.9 * theta])
    with pytest.raises(TotalInternalReflection):
        refract_standard(x, nu, kappa)


def test_negative_incidence_rejected():
    nu = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvalidIncidence):
        refract_standard(np.array([0.0, 0.0, -1.0]), nu, 1.5)


@given(seed=st.integers(0, 2**31 - 1), kappa=st.sampled_from(KAPPAS))
@settings(max_examples=100, deadline=None)
def test_metasurface_zero_phase_matches_standard(seed, kappa):
    rng = np.random.default_rng(seed)
    x, nu = random_incidence(rng, kappa)
    std = refract_standard(x, nu, kappa)
    meta = refract_metasurface(x, nu, kappa, np.zeros(3), k=1.0)
    assert np.linalg.norm(std.direction - meta.direction) <= 1e-15
    assert abs(std.multiplier - meta.multiplier) <= 1e-15


def test_metasurface_tangential_balance(rng):
    # x - grad(phi)/k - kappa m is parallel to nu
    nu = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        x[2] = abs(x[2]) + 0.2
        x /= np.linalg.norm(x)
        g = np.array([*rng.normal(scale=0.1, size=2), 0.0])
        res = refract_metasurface(x, nu, 1.5, g, k=2.0)
        residual = x - g / 2.0 - 1.5 * res.direction
        assert np.linalg.norm(residual[:2]) < 1e-13
        assert abs(np.linalg.norm(res.direction) - 1.0) < 1e-13


def test_metasurface_feasibility_violation():
    nu = np.array([0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 1.0])
    # enormous tangential phase gradient pushes |x - grad/k| far beyond kappa
    g = np.array([10.0, 0.0, 0.0])
    with pytest.raises(MetaTotalInternalReflection):
        refract_metasurface(x, nu, 1.5, g, k=1.0)


def test_metasurface_backward_shift_rejected():
    nu = np.array([0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvalidIncidence):
        refract_metasurface(x, nu, 1.5, np.array([0.0, 0.0, 2.0]), k=1.0)


def random_batch(rng, kappa, n=200, margin=0.1):
    """(n, 3) unit rays and normals, x . nu at least ``margin`` above the
    TIR threshold, so a small phase gradient keeps every row feasible."""
    nu = rng.normal(size=(n, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    floor = math.sqrt(1.0 - kappa**2) if kappa < 1.0 else 0.0
    x = np.empty((n, 3))
    for i in range(n):
        while True:
            x[i] = rng.normal(size=3)
            x[i] /= np.linalg.norm(x[i])
            if np.dot(x[i], nu[i]) > floor + margin:
                break
    return x, nu


@pytest.mark.parametrize("kappa", KAPPAS)
def test_batch_matches_single_rays(kappa, rng):
    x, nu = random_batch(rng, kappa)
    g = np.zeros((len(x), 3))
    g[:, :2] = rng.normal(scale=0.01, size=(len(x), 2))
    std = refract_standard(x, nu, kappa)
    meta = refract_metasurface(x, nu, kappa, g, k=2.0)
    assert std.direction.shape == (len(x), 3)
    assert std.multiplier.shape == (len(x),)
    for i in range(len(x)):
        one = refract_standard(x[i], nu[i], kappa)
        assert np.array_equal(std.direction[i], one.direction)
        assert std.multiplier[i] == one.multiplier
        one = refract_metasurface(x[i], nu[i], kappa, g[i], k=2.0)
        assert np.array_equal(meta.direction[i], one.direction)
        assert meta.multiplier[i] == one.multiplier


@pytest.mark.parametrize("kappa", KAPPAS)
def test_batch_zero_phase_is_standard_exactly(kappa, rng):
    x, nu = random_batch(rng, kappa)
    std = refract_standard(x, nu, kappa)
    meta = refract_metasurface(x, nu, kappa, np.zeros((len(x), 3)), k=1.0)
    assert np.array_equal(meta.direction, std.direction)
    assert np.array_equal(meta.multiplier, std.multiplier)


def test_batch_broadcasts_one_normal(rng):
    x, _ = random_batch(rng, 1.5, n=20)
    nu = np.array([0.0, 0.0, 1.0])
    x[:, 2] = np.abs(x[:, 2])
    res = refract_standard(x, nu, 1.5)
    for i in range(len(x)):
        assert np.array_equal(res.direction[i],
                              refract_standard(x[i], nu, 1.5).direction)


def test_batch_with_one_tir_ray_raises(rng):
    kappa = 0.8
    x, nu = random_batch(rng, kappa, n=10)
    refract_standard(x, nu, kappa)  # the clean batch refracts
    nu[7] = [0.0, 0.0, 1.0]
    x[7] = np.array([1.0, 0.0, 0.1]) / math.hypot(1.0, 0.1)  # grazing row
    with pytest.raises(TotalInternalReflection, match="ray 7"):
        refract_standard(x, nu, kappa)


def test_batch_with_one_meta_tir_ray_raises():
    x = np.tile([0.0, 0.0, 1.0], (4, 1))
    g = np.zeros((4, 3))
    g[2, 0] = 10.0
    with pytest.raises(MetaTotalInternalReflection, match="ray 2"):
        refract_metasurface(x, np.array([0.0, 0.0, 1.0]), 1.5, g, k=1.0)


def test_batch_with_one_backward_ray_raises(rng):
    x, nu = random_batch(rng, 1.5, n=5)
    x[3] = -x[3]
    with pytest.raises(InvalidIncidence, match="ray 3"):
        refract_standard(x, nu, 1.5)


def test_mixed_bad_batch_raises_for_first_failing_row_standard(rng):
    kappa = 0.8
    x, nu = random_batch(rng, kappa, n=5)
    nu[1] = [0.0, 0.0, 1.0]
    x[1] = np.array([1.0, 0.0, 0.1]) / math.hypot(1.0, 0.1)  # grazing row
    x[3] = -x[3]  # backward row, later in the batch
    with pytest.raises(TotalInternalReflection, match="ray 1"):
        refract_standard(x, nu, kappa)


def test_mixed_bad_batch_raises_for_first_failing_row_metasurface():
    x = np.tile([0.0, 0.0, 1.0], (5, 1))
    g = np.zeros((5, 3))
    g[1, 0] = 10.0  # infeasible row
    g[3, 2] = 2.0  # backward row, later in the batch
    with pytest.raises(MetaTotalInternalReflection, match="ray 1"):
        refract_metasurface(x, np.array([0.0, 0.0, 1.0]), 1.5, g, k=1.0)


def test_non_unit_direction_raises_with_a_message():
    with pytest.raises(FloatingPointError, match="ray 0: discriminant -1.75"):
        refract_standard(np.array([2.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                         1.5)


def test_deviation_bound_values():
    assert deviation_lower_bound(2.0) == 0.5
    assert deviation_lower_bound(0.8) == 0.8
    with pytest.raises(ValueError):
        deviation_lower_bound(1.0)


class TestOpticalConstants:
    def test_kappas(self):
        c = OpticalConstants(n1=1.0, n2=1.5, n3=1.2)
        assert c.kappa1 == 1.5
        assert c.kappa2 == pytest.approx(0.8)

    def test_positive_indices_required(self):
        with pytest.raises(ValueError):
            OpticalConstants(n1=1.0, n2=-1.0, n3=1.0)

    def test_lens_geometry_requirements(self):
        """Constants that describe no lens cannot be built."""
        for values, message in [
            (dict(n1=1.5, n2=1.0), "require n2 > n1"),
            (dict(a=1.0, c=1.0), "require c > a > 0"),
            (dict(a=0.0), "require c > a > 0"),
            (dict(a=-1.0), "require c > a > 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                OpticalConstants(**{"n1": 1.0, "n2": 1.5, "n3": 1.0, **values})
        lens = OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=1.0, c=2.0)
        assert (lens.kappa1, lens.a, lens.c) == (1.5, 1.0, 2.0)
