import numpy as np
import pytest

from powergap import (
    BackgroundOperator,
    Circle,
    Scene,
    fourier_data,
)
from powergap.mesh import build_mesh

from corpus import isotropic_background


@pytest.fixture(scope="session")
def disk_scene():
    return Scene(outer=Circle((0.0, 0.0), 1.0))


@pytest.fixture(scope="session")
def disk_mesh_h05(disk_scene):
    return build_mesh(disk_scene, 0.05)


@pytest.fixture(scope="session")
def identity_background():
    return isotropic_background(1.0, 1.0, gamma=0.0)


@pytest.fixture(scope="session")
def cos_data():
    return fourier_data([(1, 1.0, 0.0)])


@pytest.fixture(scope="session")
def disk_solution(disk_mesh_h05, identity_background, cos_data):
    """Reference solve: unit disk, identity tensor, g = cos(theta)."""
    op = BackgroundOperator(disk_mesh_h05, identity_background)
    return op.solve(cos_data)


@pytest.fixture(scope="session")
def twophase_scene():
    return Scene(outer=Circle((0.0, 0.0), 1.0),
                 interface=Circle((0.0, 0.0), 0.5),
                 rho0=0.3, K0=4.0)


@pytest.fixture(scope="session")
def twophase_mesh_h02(twophase_scene):
    return build_mesh(twophase_scene, 0.02)


@pytest.fixture(scope="session")
def twophase_background():
    # sigma = 1 outside, 2 inside; small complex part on both sides
    return isotropic_background(1.0, 2.0, gamma=0.05)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
