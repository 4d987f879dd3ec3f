"""Shared fixtures: one small synthetic world reused by the slower tests."""

import numpy as np
import pytest

from splatreloc import (
    CameraIntrinsics,
    SplatScene,
    SyntheticSceneConfig,
    build_anchor_db,
    generate_synthetic_scene,
)
from splatreloc.geometry import quat_normalize


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed unit quaternion (w >= 0 canonical form)."""
    return quat_normalize(rng.normal(size=4))


def scene_from(gaussians, sky=(0.0, 0.0, 0.0)) -> SplatScene:
    """A scene from (mean, quat, scale, opacity, color) rows, one per Gaussian."""
    n = len(gaussians)
    columns = list(zip(*gaussians)) if n else [()] * 5
    shapes = [(n, 3), (n, 4), (n, 3), (n,), (n, 3)]
    arrays = [np.array(c, dtype=float).reshape(s) for c, s in zip(columns, shapes)]
    return SplatScene(*arrays, sky_color=sky)


@pytest.fixture(scope="session")
def cam() -> CameraIntrinsics:
    return CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)


@pytest.fixture(scope="session")
def small_world():
    """Synthetic scene plus its ground-truth trajectory (kept small for speed)."""
    config = SyntheticSceneConfig(n_gaussians=1500)
    return generate_synthetic_scene(7, config)


@pytest.fixture(scope="session")
def small_scene(small_world):
    return small_world[0]


@pytest.fixture(scope="session")
def small_trajectory(small_world):
    return small_world[1]


@pytest.fixture(scope="session")
def anchor_db(small_world, cam):
    scene, trajectory = small_world
    return build_anchor_db(scene, trajectory, cam, spacing=3.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
