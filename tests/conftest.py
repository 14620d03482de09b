"""Shared fixtures and independent oracle helpers.

The helpers here recompute ground truth straight from definitions
(pinhole arithmetic, plane sweeps, point-line distances) without calling
the library code under test, so closure tests compare two genuinely
independent derivations.
"""

import numpy as np
import pytest

from ttckit import CameraIntrinsics, Scenario, SceneObject


@pytest.fixture
def intr800():
    return CameraIntrinsics(
        focal_px=800.0, principal_point=(320.0, 240.0), image_size=(640, 480)
    )


@pytest.fixture
def intr_origin():
    # principal point at (0,0): pixel coordinates double as pp-relative
    return CameraIntrinsics(focal_px=800.0, principal_point=(0.0, 0.0), allow_off_center=True)


def oracle_epipole(v_g, intrinsics):
    """Focus of expansion/contraction from the relative velocity alone."""
    v = np.asarray(v_g, dtype=np.float64)
    return np.array(
        [
            intrinsics.u0 + intrinsics.focal_px * v[0] / v[2],
            intrinsics.v0 + intrinsics.focal_px * v[1] / v[2],
        ]
    )


def oracle_k0(p, v_g):
    """Frames until the plane through p with normal v_g sweeps the origin."""
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(v_g, dtype=np.float64)
    return -float(p @ v) / float(v @ v)


def oracle_h(p, v_g):
    """Perpendicular miss distance in units of per-frame displacement."""
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(v_g, dtype=np.float64)
    v_hat = v / np.linalg.norm(v)
    lateral = p - (p @ v_hat) * v_hat
    return float(np.linalg.norm(lateral) / np.linalg.norm(v))


def oracle_signed_distance(line, p):
    """Perpendicular distance of pixel p from a line with a reference
    pixel and a unit direction, positive on the side the direction's
    quarter turn clockwise (+v for a line along +u) points to."""
    rel = np.asarray(p, dtype=np.float64) - line.reference
    return float(line.direction[0] * rel[1] - line.direction[1] * rel[0])


def oracle_project(p, intrinsics):
    p = np.asarray(p, dtype=np.float64)
    return np.array(
        [
            intrinsics.u0 + intrinsics.focal_px * p[0] / p[2],
            intrinsics.v0 + intrinsics.focal_px * p[1] / p[2],
        ]
    )


def wrap_half_pi(angle):
    """Fold an angle into (-pi/2, pi/2]; line angles are mod-pi objects."""
    return (angle + np.pi / 2.0) % np.pi - np.pi / 2.0


def random_approach_scenario(rng, intrinsics, *, planar=False, n_objects=1, n_points=3,
                             frame_count=3, noise=0.0):
    """Random noise-free approach scene with well-conditioned geometry.

    Every object keeps all points in front of the camera for the whole
    clip, moves fast enough for clearly nonzero flows, and has an
    epipole comfortably on the image side of infinity (|v_z| bounded
    away from 0).
    """
    objects = []
    for i in range(n_objects):
        depth = rng.uniform(12.0, 40.0)
        center = np.array(
            [rng.uniform(-0.15, 0.15) * depth, rng.uniform(-0.1, 0.1) * depth, depth]
        )
        points = center + rng.uniform(-0.6, 0.6, size=(n_points, 3))
        v = np.array(
            [
                rng.uniform(-0.5, 0.5),
                0.0 if planar else rng.uniform(-0.3, 0.3),
                -rng.uniform(0.8, 1.6),
            ]
        )
        k_min = min(oracle_k0(p, v) for p in points)
        if k_min < frame_count + 2.0:
            # slow it down so no point passes the camera mid-clip
            v = v * (k_min / (frame_count + 2.0))
        objects.append(SceneObject(f"obj{i}", points, v))
    return Scenario(
        intrinsics=intrinsics,
        objects=tuple(objects),
        camera_velocity=np.zeros(3),
        frame_count=frame_count,
        pixel_noise_sigma=noise,
        rng_seed=int(rng.integers(0, 2**31)),
    )
