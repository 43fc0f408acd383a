import numpy as np
import pytest

from hybridlens.geometry import Grid2D
from hybridlens.imaging import solve_rho
from hybridlens.maps import dilation
from hybridlens.snell import OpticalConstants


@pytest.fixture(scope="session")
def constants():
    return OpticalConstants(n1=1.0, n2=1.5, n3=1.0, a=1.0, c=1.5)


@pytest.fixture(scope="session")
def dilation_design(constants):
    """Reference imaging design: T x = 1.2 x on a 101^2 patch."""
    grid = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), 101)
    return solve_rho(dilation(0.2), constants, grid, x0=(0.0, 0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
