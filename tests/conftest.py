"""Shared fixtures, independent oracle helpers and shared scenes.

The oracle helpers recompute ground truth straight from definitions
(pinhole arithmetic, plane sweeps, point-line distances) without calling
the library code under test, so closure tests compare two genuinely
independent derivations. The scene builders and references at the end
are shared by the unit tests and the acceptance gate, which imports no
other test module.
"""

import itertools

import numpy as np
import pytest

from ttckit import CameraIntrinsics, FlowVector, Scenario, SceneObject, TrackObservation, simulate, ttc_batch


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


def intr700():
    return CameraIntrinsics(focal_px=700.0, principal_point=(320.0, 240.0))


def two_frame_tracks(flows):
    """Each flow as the two-frame track from its p to its p_prime, the
    input cluster_flows takes."""
    return [TrackObservation.from_positions([fl.p, fl.p_prime]) for fl in flows]


def two_object_flows(n_points=5, noise=0.0, seed=0):
    """Flows of two rigid translations, object A first, then object B."""
    rng = np.random.default_rng(seed)
    intrinsics = intr700()
    scene = [
        (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
        (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
    ]
    objects = [
        SceneObject(
            f"obj{i}",
            center + rng.uniform(-0.7, 0.7, size=(n_points, 3)),
            velocity,
        )
        for i, (center, velocity) in enumerate(scene)
    ]
    scenario = Scenario(
        intrinsics=intrinsics,
        objects=tuple(objects),
        camera_velocity=np.zeros(3),
        frame_count=2,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )
    tracks, _ = simulate(scenario)
    flows = [FlowVector.from_track(t) for t in tracks]
    velocities = [scene[0][1], scene[1][1]]
    return flows, velocities, intrinsics


def triple_object_scenario(seed, noise):
    """The three-object segmentation scene: 8 points per object."""
    rng = np.random.default_rng(seed + 10_000)
    intrinsics = intr700()
    scene = [
        (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
        (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
        (np.array([0.5, -0.8, 16.0]), np.array([0.3, -0.08, -1.2])),
    ]
    objects = [
        SceneObject(f"obj{i}", c + rng.uniform(-0.7, 0.7, size=(8, 3)), v)
        for i, (c, v) in enumerate(scene)
    ]
    return Scenario(
        intrinsics=intrinsics,
        objects=tuple(objects),
        camera_velocity=np.zeros(3),
        frame_count=9,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )


def reference_consensus(flows, remaining, intrinsics, config):
    """Best consensus set over all index-ordered pair hypotheses.

    Independent re-derivation of the documented rule with a direct 2x2
    line intersection; returns (members, k_values) or None.
    """
    p0 = np.array([fl.p for fl in flows])
    p1 = np.array([fl.p_prime for fl in flows])
    normals = np.array([fl.n for fl in flows])
    best_key, best = None, None
    for i, j in itertools.combinations(range(len(remaining)), 2):
        a, b = remaining[i], remaining[j]
        sin_angle = abs(
            flows[a].direction[0] * flows[b].direction[1]
            - flows[a].direction[1] * flows[b].direction[0]
        )
        if sin_angle < np.sin(np.deg2rad(0.5)):
            continue
        lhs = np.array([normals[a], normals[b]])
        rhs = np.array([normals[a] @ p0[a], normals[b] @ p0[b]])
        e = np.linalg.solve(lhs, rhs)
        dist = np.abs(normals[remaining] @ e - np.einsum("ij,ij->i", normals[remaining], p0[remaining]))
        geo = dist < config.eps_dist
        if not np.any(geo):
            continue
        geo_idx = np.asarray(remaining)[geo]
        k, _ = ttc_batch(p0[geo_idx], p1[geo_idx], e, intrinsics)
        finite = np.isfinite(k)
        if not np.any(finite):
            continue
        median_k = float(np.median(k[finite]))
        eps_ttc = config.effective_eps_ttc(median_k)
        ok = finite & (np.abs(k - median_k) <= eps_ttc)
        members = geo_idx[ok]
        if members.size < config.min_cluster_size:
            continue
        rms = float(np.sqrt(np.mean(dist[geo][ok] ** 2)))
        key = (members.size, -rms)
        if best_key is None or key > best_key:
            best_key, best = key, (members, k[ok])
    return best


def wall_scenario(intr):
    wall = SceneObject(
        "wall", np.array([[0.0, 0.0, 30.0], [0.4, 0.1, 30.5]]), np.zeros(3)
    )
    return Scenario(
        intrinsics=intr,
        objects=(wall,),
        camera_velocity=np.array([0.0, 0.0, 1.2]),
        frame_count=40,
    )


def reduce_truth(scenario):
    """Independent per-scenario collision reduction from simulate() truth."""
    _, truth = simulate(scenario)
    best_k, best_miss, collides = np.inf, np.nan, False
    for pt in truth.points:
        if pt.k0 is None or pt.k0 <= 0.0:
            continue
        miss_m = pt.H * pt.speed
        if pt.k0 < best_k:
            best_k, best_miss = pt.k0, miss_m
        if pt.k0 <= scenario.frame_count and miss_m < 2.0:
            collides = True
    return best_k, best_miss, collides
