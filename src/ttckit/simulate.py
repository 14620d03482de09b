"""Synthetic constant-velocity scenes with analytic collision ground truth.

The simulator is the package's oracle: it renders point tracks through
the pinhole model and, independently of any estimator, derives the exact
collision quantities from 3D geometry:

* true epipole: image of the relative-motion direction at infinity,
  e = pp + focal * (v_x, v_y) / v_z for relative motion v (antipode
  invariant; undefined when v_z = 0, i.e. motion parallel to the image
  plane).
* true k at frame 0: -(P0 . v) / |v|^2, the instant the plane through
  the point with normal v sweeps the camera center, in frames.
* true H: perpendicular distance of the motion line from the camera
  center divided by |v|, i.e. the miss distance in per-frame units. The
  point is closest to the camera at its sweep, so H = |P0 + k0 v| / |v|.

One camera-free broadcasting function derives k0 and H for any number of
points and relative motions; point_truth, simulate and collision_map all
call it, so they cannot disagree. The epipole depends only on the motion,
so it is computed once per motion, and never for collision_map.

Everything uses the relative-motion formulation: the camera stays at the
origin and each point advances by v_g = object velocity minus camera
velocity per frame, so simulating (v_obj, v_cam) and (v_obj - v_cam, 0)
is the same computation by construction.

collision_map() re-evaluates the analytic truth over a grid of camera
velocity changes, which is the planning view: which speed adjustments
clear every collision within the lookahead. It evaluates blocks of grid
cells, all points of all objects in each, with one truth call per block;
a block holds about _MAP_BLOCK_ROWS (cell, point) rows, so memory stays
bounded whatever the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project
from .errors import InvalidInput, _valid_seed
from .ttc import MotionClass, TrackObservation

__all__ = [
    "CollisionMap",
    "GridSpec",
    "GroundTruth",
    "PointTruth",
    "SceneObject",
    "Scenario",
    "collision_map",
    "point_truth",
    "simulate",
]

# Points closer than this to the image plane are treated as departed;
# projections just above Z=0 are numerically meaningless.
_Z_FLOOR = 1e-9

# Relative speeds below this count as zero (constant bearing, no TTC).
_SPEED_FLOOR = 1e-12

# (cell, point) rows per _truth call of collision_map: bounds its work
# arrays to a few MB whatever the grid size.
_MAP_BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class SceneObject:
    """Rigid point set translating with one per-frame velocity.

    Attributes:
        object_id: label carried into ground truth and cluster ids.
        points: initial positions, shape (M, 3), all Z > 0.
        velocity: per-frame displacement, shape (3,).
    """

    object_id: str
    points: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise InvalidInput(f"points must have shape (M, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidInput("points must be finite")
        if np.any(pts[:, 2] <= 0.0):
            raise InvalidInput(f"object {self.object_id!r}: initial Z must be > 0")
        vel = np.asarray(self.velocity, dtype=np.float64)
        if vel.shape != (3,) or not np.all(np.isfinite(vel)):
            raise InvalidInput(f"velocity must be a finite 3-vector, got {vel}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "velocity", vel)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one synthetic episode.

    Attributes:
        intrinsics: camera model.
        objects: translating point sets.
        camera_velocity: camera per-frame displacement, shape (3,).
        frame_count: frames to render, >= 2.
        pixel_noise_sigma: isotropic Gaussian pixel noise, >= 0.
        rng_seed: seed for the noise generator, a non-negative integer.
    """

    intrinsics: CameraIntrinsics
    objects: tuple[SceneObject, ...]
    camera_velocity: np.ndarray
    frame_count: int
    pixel_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if int(self.frame_count) != self.frame_count or self.frame_count < 2:
            raise InvalidInput(f"frame_count must be an integer >= 2, got {self.frame_count}")
        object.__setattr__(self, "frame_count", int(self.frame_count))
        if not np.isfinite(self.pixel_noise_sigma) or self.pixel_noise_sigma < 0.0:
            raise InvalidInput(f"pixel_noise_sigma must be >= 0, got {self.pixel_noise_sigma}")
        vel = np.asarray(self.camera_velocity, dtype=np.float64)
        if vel.shape != (3,) or not np.all(np.isfinite(vel)):
            raise InvalidInput(f"camera_velocity must be a finite 3-vector, got {vel}")
        object.__setattr__(self, "camera_velocity", vel)
        object.__setattr__(self, "rng_seed", _valid_seed(self.rng_seed, "rng_seed"))
        # An empty object tuple is a valid (if quiet) scenario.
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class PointTruth:
    """Analytic ground truth for one tracked point.

    Attributes:
        track_index: index into the simulate() track list.
        object_id: owning object's label.
        cluster_id: index of the owning object (clustering ground truth).
        v_g: per-frame relative motion, shape (3,).
        speed: |v_g|.
        epipole: true epipole pixel, or None when undefined (zero
            relative speed, or motion parallel to the image plane).
        k0: frames until the collision-plane sweep, counted from frame
            0; None when speed is zero.
        H: lateral miss distance in per-frame units; None when speed is
            zero.
        label: approaching / receding / constant bearing.
        valid_frames: frames before the point left the Z > 0 half-space
            (equals the scenario frame_count when it never did).
    """

    track_index: int
    object_id: str
    cluster_id: int
    v_g: np.ndarray
    speed: float
    epipole: np.ndarray | None
    k0: float | None
    H: float | None
    label: MotionClass
    valid_frames: int

    def k_at(self, frame: int) -> float | None:
        """True k counted from the given frame; decreases by 1 per frame."""
        if self.k0 is None:
            return None
        return self.k0 - frame


@dataclass(frozen=True)
class GroundTruth:
    """Per-point analytic truth for a simulated scenario."""

    points: tuple[PointTruth, ...]
    frame_count: int

    def __len__(self) -> int:
        return len(self.points)


def _truth(points, v_g):
    """Analytic truth of points under relative motions, broadcast over rows.

    points (..., 3) are frame-0 positions and v_g (..., 3) per-frame
    relative motions. Returns (k0, H, speed, miss): k0 = -(P . v) / |v|^2;
    miss = |P + k0 v|, the distance at the sweep, which is the closest
    approach; H = miss / |v|, in per-frame units; speed = |v|. k0, H and
    miss are NaN below _SPEED_FLOOR.
    """
    points, v_g = np.broadcast_arrays(points, v_g)
    px, py, pz = points[..., 0], points[..., 1], points[..., 2]
    vx, vy, vz = v_g[..., 0], v_g[..., 1], v_g[..., 2]
    # Component sums add in the order of np.sum over the last axis, so the
    # bits match it. np.sum starts from +0.0, hence the + 0.0: it turns a
    # dot product of all -0.0 terms into +0.0, as np.sum does.
    speed = np.sqrt(vx * vx + vy * vy + vz * vz)
    moving = speed >= _SPEED_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.where(moving, -(px * vx + py * vy + pz * vz + 0.0) / speed**2, np.nan)
        mx, my, mz = px + k0 * vx, py + k0 * vy, pz + k0 * vz
        miss = np.sqrt(mx * mx + my * my + mz * mz)
        h = miss / speed
    return k0, h, speed, miss


def _motion_epipole(v_g, intrinsics: CameraIntrinsics) -> np.ndarray:
    """True epipole of relative motions v_g (..., 3), shape (..., 2); NaN
    below _SPEED_FLOOR or for motion parallel to the image plane."""
    vx, vy, vz = v_g[..., 0], v_g[..., 1], v_g[..., 2]
    speed = np.sqrt(vx * vx + vy * vy + vz * vz)
    facing = np.abs(vz) >= _SPEED_FLOOR * np.maximum(1.0, speed)
    with np.errstate(divide="ignore", invalid="ignore"):
        epipole = intrinsics.pp + intrinsics.focal_px * v_g[..., :2] / v_g[..., 2:]
    return np.where(facing[..., np.newaxis], epipole, np.nan)


def _point_record(k0, h, speed, miss, epipole, **fields) -> PointTruth:
    """PointTruth from one row of _truth and a copy of its motion's
    epipole; NaN quantities become None."""
    if not miss >= 1e-12:  # on the motion line, or no motion
        label = MotionClass.CONSTANT_BEARING
    else:
        label = MotionClass.APPROACHING if k0 > 0.0 else MotionClass.RECEDING
    return PointTruth(
        speed=float(speed),
        epipole=None if np.isnan(epipole[0]) else epipole.copy(),
        k0=None if np.isnan(k0) else float(k0),
        H=None if np.isnan(h) else float(h),
        label=label,
        **fields,
    )


def point_truth(
    p0,
    v_g,
    intrinsics: CameraIntrinsics,
    *,
    track_index: int = 0,
    object_id: str = "point",
    cluster_id: int = 0,
    valid_frames: int = 0,
) -> PointTruth:
    """Analytic truth for a single point and relative motion.

    Exposed for tests and planners that need truth without building a
    whole scenario.
    """
    v_g = np.asarray(v_g, dtype=np.float64)
    return _point_record(
        *_truth(np.asarray(p0, dtype=np.float64), v_g), _motion_epipole(v_g, intrinsics),
        track_index=track_index, object_id=object_id, cluster_id=cluster_id,
        v_g=v_g, valid_frames=valid_frames,
    )


def simulate(scenario: Scenario) -> tuple[list[TrackObservation | None], GroundTruth]:
    """Render tracks and analytic ground truth for a scenario.

    Returns:
        (tracks, truth): tracks[i] corresponds to truth.points[i].
        Points that leave the Z > 0 half-space are truncated at their
        last valid frame; a point with fewer than 2 valid frames yields
        None in the track list (no observation pair exists) while its
        truth entry is still present with valid_frames recorded.

    Noise is isotropic Gaussian with scale pixel_noise_sigma, drawn from
    one generator seeded with rng_seed in deterministic point order, so
    identical scenarios reproduce identical tracks byte for byte. Each
    object takes one projection and one noise draw, in point-major order.
    """
    rng = np.random.default_rng(scenario.rng_seed)
    steps = np.arange(scenario.frame_count, dtype=np.float64)
    tracks: list[TrackObservation | None] = []
    truths: list[PointTruth] = []
    for cluster_id, obj in enumerate(scenario.objects):
        v_g = obj.velocity - scenario.camera_velocity
        epipole = _motion_epipole(v_g, scenario.intrinsics)
        truth = zip(*(column.tolist() for column in _truth(obj.points, v_g)))
        # (M, frames, 3); each point is valid until its first Z <= _Z_FLOOR
        positions = obj.points[:, np.newaxis, :] + steps[:, np.newaxis] * v_g[np.newaxis, :]
        ahead = positions[..., 2] > _Z_FLOOR
        valid = np.where(ahead.all(axis=1), scenario.frame_count, np.argmin(ahead, axis=1))
        kept = np.where(valid >= 2, valid, 0)
        pixels = project(positions[steps < kept[:, np.newaxis]], scenario.intrinsics)
        if scenario.pixel_noise_sigma > 0.0:
            pixels = pixels + rng.normal(0.0, scenario.pixel_noise_sigma, size=pixels.shape)
        per_point = np.split(pixels, np.cumsum(kept)[:-1])
        for row, valid_frames, n, uv in zip(truth, valid.tolist(), kept.tolist(), per_point):
            truths.append(_point_record(
                *row, epipole, track_index=len(truths), object_id=obj.object_id,
                cluster_id=cluster_id, v_g=v_g, valid_frames=valid_frames,
            ))
            tracks.append(TrackObservation(np.arange(n, dtype=np.int64), uv) if n else None)
    return tracks, GroundTruth(points=tuple(truths), frame_count=scenario.frame_count)


@dataclass(frozen=True)
class GridSpec:
    """Grid of camera velocity changes for collision_map.

    Cell centers span [-extent, +extent] per axis with an exact 0.0 in
    the middle, which is why cell counts must be odd. Units match the
    scenario's per-frame velocities.
    """

    lateral_extent: float
    forward_extent: float
    lateral_cells: int = 11
    forward_cells: int = 11

    def __post_init__(self):
        for name, cells in (("lateral_cells", self.lateral_cells), ("forward_cells", self.forward_cells)):
            if int(cells) != cells or cells < 1 or cells % 2 == 0:
                raise InvalidInput(f"{name} must be an odd positive integer, got {cells}")
        for name, extent, cells in (
            ("lateral_extent", self.lateral_extent, self.lateral_cells),
            ("forward_extent", self.forward_extent, self.forward_cells),
        ):
            if not np.isfinite(extent) or extent < 0.0:
                raise InvalidInput(f"{name} must be finite and >= 0, got {extent}")
            if cells > 1 and extent <= 0.0:
                raise InvalidInput(f"{name} must be > 0 for {cells} cells")

    @staticmethod
    def _centers(extent: float, cells: int) -> np.ndarray:
        if cells == 1:
            return np.zeros(1)
        # Integer index times step keeps the middle cell at exactly 0.0.
        step = extent / (cells // 2)
        return (np.arange(cells) - cells // 2) * step

    @property
    def lateral_offsets(self) -> np.ndarray:
        return self._centers(self.lateral_extent, self.lateral_cells)

    @property
    def forward_offsets(self) -> np.ndarray:
        return self._centers(self.forward_extent, self.forward_cells)


@dataclass(frozen=True)
class CollisionMap:
    """Collision relations over a grid of camera velocity changes.

    Arrays are indexed [forward_index, lateral_index] matching
    forward_offsets and lateral_offsets.

    Attributes:
        min_ttc: smallest positive true k over all points, np.inf when
            no point has a pending collision-plane sweep.
        miss_distance: metric miss distance H * |v_g| of the min-TTC
            point, np.nan where min_ttc is np.inf.
        collision: True where some point sweeps within frame_count
            frames at a metric miss distance below collision_radius.
    """

    lateral_offsets: np.ndarray
    forward_offsets: np.ndarray
    min_ttc: np.ndarray
    miss_distance: np.ndarray
    collision: np.ndarray
    collision_radius: float
    frame_count: int

    @property
    def center_index(self) -> tuple[int, int]:
        return len(self.forward_offsets) // 2, len(self.lateral_offsets) // 2


def collision_map(
    scenario: Scenario, grid: GridSpec, collision_radius: float = 2.0
) -> CollisionMap:
    """Evaluate collision state over camera velocity perturbations.

    Each cell adds (lateral, 0, forward) to the camera velocity and
    recomputes the analytic truth for every point; the center cell
    reproduces the unmodified scenario's collision state. Cells go
    through _truth in forward-major blocks of about _MAP_BLOCK_ROWS
    (cell, point) rows, one call per block, so the work arrays take a
    few MB whatever the grid size. Each cell's values equal those of a
    _truth call on that cell alone.

    Args:
        scenario: base scene.
        grid: velocity-change grid; see GridSpec.
        collision_radius: metric miss distance below which a pending
            sweep within frame_count frames counts as a collision.

    Raises:
        InvalidInput: non-positive collision_radius (grid validation
            happens in GridSpec).
    """
    if not np.isfinite(collision_radius) or collision_radius <= 0.0:
        raise InvalidInput(f"collision_radius must be > 0, got {collision_radius}")
    lat = grid.lateral_offsets
    fwd = grid.forward_offsets
    n_cells = len(fwd) * len(lat)
    min_ttc = np.full(n_cells, np.inf)
    miss = np.full(n_cells, np.nan)
    hit = np.zeros(n_cells, dtype=bool)
    # every point of every object, in object order, beside its velocity
    objects = scenario.objects
    points = np.concatenate([np.zeros((0, 3))] + [obj.points for obj in objects])
    velocities = np.concatenate(
        [np.zeros((0, 3))] + [np.broadcast_to(obj.velocity, obj.points.shape) for obj in objects]
    )
    if len(points):
        # each cell's camera velocity, forward-major, as camera_velocity
        # + [dv_l, 0.0, dv_f]
        change = np.zeros((n_cells, 3))
        change[:, 0] = np.tile(lat, len(fwd))
        change[:, 2] = np.repeat(fwd, len(lat))
        cam_v = scenario.camera_velocity + change
        block = max(1, _MAP_BLOCK_ROWS // len(points))
        for start in range(0, n_cells, block):
            cells = slice(start, start + block)
            k0, h, speed, _ = _truth(points, velocities - cam_v[cells, np.newaxis])
            pending = k0 > 0.0
            miss_m = h * speed
            # first point of the smallest pending k0 per cell, in object
            # order; point 0 of a cell without one, which is not pending
            ttc = np.where(pending, k0, np.inf)
            rows, nearest = np.arange(len(ttc)), np.argmin(ttc, axis=1)
            min_ttc[cells] = ttc[rows, nearest]
            miss[cells] = np.where(pending[rows, nearest], miss_m[rows, nearest], np.nan)
            hit[cells] = np.any(
                pending & (k0 <= scenario.frame_count) & (miss_m < collision_radius), axis=1
            )
    shape = (len(fwd), len(lat))
    return CollisionMap(
        lateral_offsets=lat,
        forward_offsets=fwd,
        min_ttc=min_ttc.reshape(shape),
        miss_distance=miss.reshape(shape),
        collision=hit.reshape(shape),
        collision_radius=float(collision_radius),
        frame_count=scenario.frame_count,
    )
