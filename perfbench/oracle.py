"""Collision-plane truth from pinhole geometry, written apart from ttckit.

Every check of the benchmark compares the program's output with these
formulas and never with ttckit's own truth:

* projection        pp + f * (X, Y) / Z
* frames to sweep   k0 = -(P . v) / |v|^2
* miss distance     H = |P - (P . v^) v^| / |v|   (per-frame units)
* epipole           pp + f * v_xy / v_z
* collision map     per cell, the smallest pending k0, the metric miss
                    distance of that point and the collision flag
* stereo depth      dZ = Z^2 dp / (B f)

Points are (N, 3) arrays in the camera frame (+Z forward, +Y down) and
v is the per-frame relative motion (object velocity minus camera
velocity), one row per point.
"""

from __future__ import annotations

import numpy as np


def project(points: np.ndarray, focal: float, pp: np.ndarray) -> np.ndarray:
    """Pixels of points, shape (..., 3) -> (..., 2)."""
    return pp + focal * points[..., :2] / points[..., 2:3]


def frames_to_sweep(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k0 = -(P . v) / |v|^2, broadcast over leading axes."""
    return -np.sum(points * v, axis=-1) / np.sum(v * v, axis=-1)


def miss_metric(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Metric miss distance |P - (P . v^) v^| of each motion line."""
    unit = v / np.linalg.norm(v, axis=-1, keepdims=True)
    along = np.sum(points * unit, axis=-1, keepdims=True)
    return np.linalg.norm(points - along * unit, axis=-1)


def miss_frames(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H: the miss distance in units of the per-frame displacement |v|."""
    return miss_metric(points, v) / np.linalg.norm(v, axis=-1)


def epipole(v: np.ndarray, focal: float, pp: np.ndarray) -> np.ndarray:
    """Image of the relative-motion direction, pp + f * v_xy / v_z."""
    return pp + focal * v[..., :2] / v[..., 2:3]


def collision_cells(
    points: np.ndarray,
    velocities: np.ndarray,
    camera_velocity: np.ndarray,
    lateral: np.ndarray,
    forward: np.ndarray,
    frame_count: int,
    radius: float,
) -> dict[str, np.ndarray]:
    """Collision state of every cell of a camera-velocity grid.

    Cell (fi, li) adds (lateral[li], 0, forward[fi]) to the camera
    velocity. Returns forward-major flat arrays: the offsets, the
    smallest positive k0 over all points (inf when none is pending), the
    metric miss distance of that point (nan when none) and whether any
    pending point sweeps within frame_count frames closer than radius.
    """
    dv_f, dv_l = np.meshgrid(forward, lateral, indexing="ij")
    dv_f = dv_f.ravel()
    dv_l = dv_l.ravel()
    cam = camera_velocity + np.column_stack([dv_l, np.zeros_like(dv_l), dv_f])
    rel = velocities[np.newaxis, :, :] - cam[:, np.newaxis, :]  # cells x points x 3
    k0 = frames_to_sweep(points[np.newaxis, :, :], rel)
    miss = miss_metric(points[np.newaxis, :, :], rel)
    pending = k0 > 0.0
    k_pending = np.where(pending, k0, np.inf)
    nearest = np.argmin(k_pending, axis=1)
    rows = np.arange(len(cam))
    min_k = k_pending[rows, nearest]
    min_miss = np.where(np.isfinite(min_k), miss[rows, nearest], np.nan)
    hit = np.any(pending & (k0 <= frame_count) & (miss < radius), axis=1)
    return {
        "dv_lateral": dv_l,
        "dv_forward": dv_f,
        "min_ttc": min_k,
        "miss": min_miss,
        "collision": hit,
    }


def stereo_depth_error(z: np.ndarray, baseline_m: float, focal_px: float, dp_px: float) -> np.ndarray:
    """First-order stereo depth error Z^2 dp / (B f)."""
    return z**2 * dp_px / (baseline_m * focal_px)


def close(actual, expected, *, rel: float = 0.0, abs_: float = 0.0) -> np.ndarray:
    """|a - e| <= abs_ + rel * |e| elementwise; equal infinities and two nans match."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        near = np.isfinite(expected) & (np.abs(actual - expected) <= abs_ + rel * np.abs(expected))
    same_inf = np.isinf(actual) & (actual == expected)
    both_nan = np.isnan(actual) & np.isnan(expected)
    return near | same_inf | both_nan
