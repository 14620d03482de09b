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

One camera-free broadcasting kernel derives k0 and H for any number of
points and relative motions: _truth builds the sums P . v and |v|^2 and
_truth_from_sums finishes from them. simulate calls _truth through
_truth_columns, collision_map builds the same sums in the same order and
calls _truth_from_sums, so they cannot disagree. The epipole depends
only on the motion, so it is computed once per motion, and never for
collision_map.

simulate renders each object in one pass and returns columns: a
TrackTable of every track and a GroundTruth of every point, with no
per-point object between the renderer and the files. PointTruth and
TrackObservation records are built only when an item is read.

Finite scenario numbers can still overflow float64 on the way: Scenario
rejects a relative motion or a truth quantity that overflows, simulate a
pixel, collision_map a cell, each naming the object, without a warning.

Everything uses the relative-motion formulation: the camera stays at the
origin and each point advances by v_g = object velocity minus camera
velocity per frame, so simulating (v_obj, v_cam) and (v_obj - v_cam, 0)
is the same computation by construction.

collision_map() re-evaluates the analytic truth over a grid of camera
velocity changes, which is the planning view: which speed adjustments
clear every collision within the lookahead. It evaluates blocks of about
ttc._BLOCK_ROWS (cell, point) rows, all points of all objects in each, so
memory stays bounded whatever the grid size; the parts of the truth sums
that vary along one grid axis only are computed once per row of cells or
forward block, not once per (cell, point).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .camera import CameraIntrinsics, _rows, _vector, project
from .errors import InvalidInput, _count, _plain, _real, _whole
from .ttc import _BLOCK_ROWS, MotionClass, TrackTable, _Rows

__all__ = [
    "CollisionMap",
    "GridSpec",
    "GroundTruth",
    "PointTruth",
    "SceneObject",
    "Scenario",
    "collision_map",
    "simulate",
]

# Points closer than this to the image plane are treated as departed;
# projections just above Z=0 are numerically meaningless.
_Z_FLOOR = 1e-9

# Relative speeds below this count as zero (constant bearing, no TTC).
_SPEED_FLOOR = 1e-12


@dataclass(frozen=True)
class SceneObject:
    """Rigid point set translating with one per-frame velocity.

    Attributes:
        object_id: label carried into ground truth and cluster ids.
        points: initial positions, finite, shape (M, 3), M >= 1, all Z > 0.
        velocity: per-frame displacement, a finite 3-vector.
    """

    object_id: str
    points: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pts = _rows(self.points, 3, "points")
        if not len(pts):
            raise InvalidInput("points must hold at least one point")
        if np.any(pts[:, 2] <= 0.0):
            raise InvalidInput(f"object {self.object_id!r}: initial Z must be > 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "velocity", _vector(self.velocity, 3, "velocity"))


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

    Construction rejects, with InvalidInput naming the object, a
    relative motion or a truth quantity (speed, k0, H, epipole) that
    overflows float64.
    """

    intrinsics: CameraIntrinsics
    objects: tuple[SceneObject, ...]
    camera_velocity: np.ndarray
    frame_count: int
    pixel_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frame_count", _count(self.frame_count, "frame_count", 2))
        object.__setattr__(self, "pixel_noise_sigma", _real(self.pixel_noise_sigma, "pixel_noise_sigma", ge=0))
        object.__setattr__(self, "camera_velocity", _vector(self.camera_velocity, 3, "camera_velocity"))
        object.__setattr__(self, "rng_seed", _count(self.rng_seed, "rng_seed", 0))
        # An empty object tuple is a valid (if quiet) scenario.
        object.__setattr__(self, "objects", tuple(self.objects))
        _scenario_truth(self)  # rejects relative motion or truth that overflows


@dataclass(frozen=True)
class PointTruth:
    """Analytic ground truth for one tracked point.

    Attributes:
        track_index: index into the simulate() track table.
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


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic truth of a simulated scenario, stored as columns.

    Row i is point i, the point of track i of simulate(), in object
    order. Quantities that are undefined for a point are NaN.

    Attributes:
        frame_count: frames of the scenario.
        object_ids: label of each of the O objects.
        v_g: (O, 3) per-frame relative motion of each object.
        epipole: (O, 2) true epipole of each object; NaN for zero
            relative speed or motion parallel to the image plane.
        cluster_id: (N,) int64 index of each point's object.
        k0, H: (N,) float64 true k at frame 0 and miss distance; NaN
            for zero relative speed.
        speed: (N,) float64 |v_g| of each point's object.
        label: (N,) int8 index into LABELS of each point's motion class.
        valid_frames: (N,) int64 frames before each point left the
            Z > 0 half-space.

    _rows reads rows as Python tuples and _epipoles the objects'
    epipoles as lists; points (a ttc._Rows) and fileio.truth_document
    build their records from them when an item is read, and len(points)
    builds none.
    """

    frame_count: int
    object_ids: tuple[str, ...]
    v_g: np.ndarray
    epipole: np.ndarray
    cluster_id: np.ndarray
    k0: np.ndarray
    H: np.ndarray
    speed: np.ndarray
    label: np.ndarray
    valid_frames: np.ndarray

    LABELS: ClassVar[tuple[MotionClass, ...]] = (
        MotionClass.CONSTANT_BEARING, MotionClass.APPROACHING, MotionClass.RECEDING,
    )

    def __len__(self) -> int:
        return len(self.k0)

    @property
    def points(self) -> _Rows:
        return _Rows(len(self), self._points)

    def _rows(self, start: int, stop: int) -> list[tuple]:
        """Rows start to stop as Python tuples (object, speed, k0, H,
        label code, valid frames); NaN k0 and H become None."""
        rows = slice(start, stop)
        return [
            (obj, speed, None if math.isnan(k0) else k0, None if math.isnan(h) else h, label, valid)
            for obj, speed, k0, h, label, valid in zip(
                self.cluster_id[rows].tolist(),
                self.speed[rows].tolist(),
                self.k0[rows].tolist(),
                self.H[rows].tolist(),
                self.label[rows].tolist(),
                self.valid_frames[rows].tolist(),
            )
        ]

    def _epipoles(self) -> list[list[float] | None]:
        """Each object's epipole as [u, v]; None where it is undefined (NaN)."""
        return [None if math.isnan(e[0]) else e for e in self.epipole.tolist()]

    def _points(self, start: int, stop: int) -> list[PointTruth]:
        """Rows start to stop as PointTruth records, each owning a copy
        of its object's epipole."""
        epipoles = self._epipoles()
        return [
            PointTruth(
                track_index=i,
                object_id=self.object_ids[obj],
                cluster_id=obj,
                v_g=self.v_g[obj],
                speed=speed,
                epipole=None if epipoles[obj] is None else np.array(epipoles[obj]),
                k0=k0,
                H=h,
                label=self.LABELS[label],
                valid_frames=valid,
            )
            for i, (obj, speed, k0, h, label, valid) in enumerate(self._rows(start, stop), start)
        ]


def _truth(points, v_g):
    """Analytic truth of points under relative motions, component-major.

    points (px, py, pz) are frame-0 positions and v_g (vx, vy, vz)
    per-frame relative motions: each a sequence of three arrays, such as
    the rows of a (3, ...) array, that broadcast against each other.
    Returns (k0, H, speed, miss): k0 = -(P . v) / |v|^2; miss =
    |P + k0 v|, the distance at the sweep, which is the closest approach;
    H = miss / |v|, in per-frame units; speed = |v|, of v_g's shape.
    k0, H and miss are NaN below _SPEED_FLOOR.

    It builds the two sums P . v and |v|^2 and hands them to
    _truth_from_sums, which derives everything else.
    """
    px, py, pz = points
    vx, vy, vz = v_g
    dot = np.asarray(px * vx + py * vy + pz * vz)
    sq = np.asarray(vx * vx + vy * vy + vz * vz)
    return _truth_from_sums(points, v_g, dot, sq)


def _truth_from_sums(points, v_g, dot, sq):
    """_truth of points and v_g from its two sums, dot = P . v and sq =
    |v|^2, each added x, y, z as (x + y) + z.

    Component sums add in the order of np.sum over the last axis of a
    (..., 3) row, so the bits match it; collision_map builds the sums
    from per-axis parts in the same order. The +0.0 added to dot here is
    np.sum's starting value: it turns a dot product of all -0.0 terms
    into +0.0, as np.sum does.

    Works in place: dot and sq are float64 arrays that it overwrites,
    dot of the full broadcast shape of points and v_g, sq of v_g's.
    """
    px, py, pz = points
    vx, vy, vz = v_g
    speed = np.sqrt(sq, out=sq)
    moving = speed >= _SPEED_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.add(dot, 0.0, out=dot)
        np.negative(k0, out=k0)
        k0 /= np.square(speed)
        if not moving.all():
            np.copyto(k0, np.nan, where=~moving)
        # |P + k0 v|, its squares added x, y, z in two buffers of k0's shape
        miss = np.multiply(k0, vx, out=np.empty_like(k0))
        miss += px
        miss *= miss
        term = np.empty_like(k0)
        for p, v in ((py, vy), (pz, vz)):
            np.multiply(k0, v, out=term)
            term += p
            term *= term
            miss += term
        np.sqrt(miss, out=miss)
        h = np.divide(miss, speed, out=term)
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


def _overflows(k0, h, speed) -> np.ndarray:
    """Rows of _truth whose speed, or whose k0 or H where defined,
    overflowed float64."""
    return ~(np.isfinite(speed) & ((np.isfinite(k0) & np.isfinite(h)) | (speed < _SPEED_FLOOR)))


def _truth_columns(object_ids, points, v_g, intrinsics: CameraIntrinsics) -> dict:
    """The GroundTruth columns that do not depend on rendering, for
    objects whose points (a list of (M, 3) arrays) move by the relative
    motions v_g (O, 3): one _truth call over every point and one
    _motion_epipole call over every object.

    Raises:
        InvalidInput: a relative motion, or a truth quantity where it is
            defined, overflows float64; the message names the object.
    """
    sizes = [len(p) for p in points]
    cluster_id = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        k0, h, speed, miss = _truth(np.concatenate([np.zeros((0, 3)), *points]).T, v_g[cluster_id].T)
        epipole = _motion_epipole(v_g, intrinsics)
    object_ok = ~np.isinf(epipole).any(axis=1)
    object_ok[cluster_id[_overflows(k0, h, speed)]] = False
    if not object_ok.all():
        j = int(np.argmin(object_ok))
        what = "collision truth" if np.isfinite(v_g[j]).all() else "relative motion"
        raise InvalidInput(f"object {object_ids[j]!r}: {what} overflows")
    # codes into GroundTruth.LABELS; on the motion line, or no motion,
    # a point keeps a constant bearing
    label = np.where(~(miss >= 1e-12), 0, np.where(k0 > 0.0, 1, 2)).astype(np.int8)
    return dict(
        object_ids=tuple(object_ids), v_g=v_g, epipole=epipole, cluster_id=cluster_id,
        k0=k0, H=h, speed=speed, label=label,
    )


def _scenario_truth(scenario) -> dict:
    """_truth_columns of every object of a scenario."""
    objects = scenario.objects
    with np.errstate(over="ignore"):
        v_g = np.reshape([obj.velocity - scenario.camera_velocity for obj in objects], (-1, 3))
    return _truth_columns(
        [obj.object_id for obj in objects], [obj.points for obj in objects], v_g, scenario.intrinsics
    )


def simulate(scenario: Scenario) -> tuple[TrackTable, GroundTruth]:
    """Render tracks and analytic ground truth for a scenario, as columns.

    Returns:
        (tracks, truth): tracks is a TrackTable with one row per point,
        in object order, and truth its GroundTruth: tracks[i] corresponds
        to truth.points[i]. Points that leave the Z > 0 half-space are
        truncated at their last valid frame; a point with fewer than 2
        valid frames gets a track of length 0, which reads as None (no
        observation pair exists), while its truth row is still present
        with valid_frames recorded. Neither builds a TrackObservation or
        a PointTruth until an item is read.

    Noise is isotropic Gaussian with scale pixel_noise_sigma, drawn from
    one generator seeded with rng_seed in deterministic point order, so
    identical scenarios reproduce identical tracks byte for byte. Each
    object takes one projection and one noise draw, in point-major order.

    Raises:
        InvalidInput: a pixel overflows float64, the message naming the
            object; or frame_count is too large to render, its arrays
            past the np.intp bytes numpy can index.
    """
    frame_count = scenario.frame_count
    # 24 bytes per (point, frame): a position (3 float64) while rendering, then a pixel and a frame index
    limit = np.iinfo(np.intp).max
    if 24 * max(sum(len(obj.points) for obj in scenario.objects), 1) * frame_count > limit:
        raise InvalidInput(f"frame_count {frame_count} is too large: its render arrays would exceed {limit} bytes")
    # only noise draws from it, and importing numpy.random costs about 5 MB
    rng = np.random.default_rng(scenario.rng_seed) if scenario.pixel_noise_sigma > 0.0 else None
    steps = np.arange(frame_count, dtype=np.float64)
    columns = _scenario_truth(scenario)
    valid, kept, pixels = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros((0, 2))]
    for obj, v_g in zip(scenario.objects, columns["v_g"]):
        # (M, frames, 3); each point is valid until its first Z <= _Z_FLOOR.
        # These stay finite: a finite speed bounds |v_g| below 1.4e154.
        positions = obj.points[:, np.newaxis, :] + steps[:, np.newaxis] * v_g
        ahead = positions[..., 2] > _Z_FLOOR
        n_valid = np.where(ahead.all(axis=1), frame_count, np.argmin(ahead, axis=1))
        n_kept = np.where(n_valid >= 2, n_valid, 0)
        overflow = InvalidInput(f"object {obj.object_id!r}: pixels overflow")
        try:
            uv = project(positions[steps < n_kept[:, np.newaxis]], scenario.intrinsics)
        except InvalidInput:  # the points are finite and ahead: a pixel overflows
            raise overflow from None
        if scenario.pixel_noise_sigma > 0.0:
            with np.errstate(over="ignore"):
                uv = uv + rng.normal(0.0, scenario.pixel_noise_sigma, size=uv.shape)
            if not np.isfinite(uv).all():
                raise overflow
        valid.append(n_valid)
        kept.append(n_kept)
        pixels.append(uv)
    length = np.concatenate(kept)
    start = np.cumsum(length) - length
    uv = np.concatenate(pixels)
    frames = np.arange(len(uv), dtype=np.int64) - np.repeat(start, length)
    truth = GroundTruth(frame_count=frame_count, valid_frames=np.concatenate(valid), **columns)
    return TrackTable(frames, uv, start, length), truth


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
            whole = _whole(cells)
            if whole is None or whole < 1 or whole % 2 == 0:
                raise InvalidInput(f"{name} must be an odd positive integer, got {_plain(cells)}")
            object.__setattr__(self, name, whole)
        for name, extent, cells in (
            ("lateral_extent", self.lateral_extent, self.lateral_cells),
            ("forward_extent", self.forward_extent, self.forward_cells),
        ):
            extent = _real(extent, name, ge=0)
            if cells > 1 and extent <= 0.0:
                raise InvalidInput(f"{name} must be > 0 for {cells} cells")
            object.__setattr__(self, name, extent)

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
    reproduces the unmodified scenario's collision state. _map_blocks
    derives the truth in forward-major blocks of about _BLOCK_ROWS
    (cell, point) rows, so the work arrays take a few MB whatever the
    grid size. Each cell's values equal those of a _truth call on that
    cell alone, bit for bit.

    Args:
        scenario: base scene.
        grid: velocity-change grid; see GridSpec.
        collision_radius: metric miss distance below which a pending
            sweep within frame_count frames counts as a collision.

    Raises:
        InvalidInput: non-positive collision_radius (grid validation
            happens in GridSpec), or a cell whose relative motion or
            truth overflows float64, named with its object.
    """
    collision_radius = _real(collision_radius, "collision_radius", gt=0)
    # a frame count past float64 is a lookahead no finite k reaches
    lookahead = min(scenario.frame_count, sys.float_info.max)
    lat = grid.lateral_offsets
    fwd = grid.forward_offsets
    shape = (len(fwd), len(lat))
    min_ttc = np.full(shape, np.inf)
    miss = np.full(shape, np.nan)
    hit = np.zeros(shape, dtype=bool)
    # every point of every object, in object order, beside its velocity,
    # component-major: points[i] and velocities[i] are contiguous rows
    objects = scenario.objects
    points = np.concatenate([np.zeros((0, 3))] + [obj.points for obj in objects]).T.copy()
    velocities = np.repeat(
        np.reshape([obj.velocity for obj in objects], (-1, 3)).T,
        [len(obj.points) for obj in objects], axis=1,
    )
    n_points = points.shape[1]
    blocks = _map_blocks(points, velocities, scenario.camera_velocity, lat, fwd) if n_points else ()
    # also covers _map_blocks: a generator runs under its consumer's error state
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, chunk, k0, h, speed in blocks:
            miss_m = h * speed
            # a finite miss_m needs a finite h and speed, which rules out
            # every overflow
            if not np.isfinite(miss_m).all():
                bad = _overflows(k0, h, speed)
                if bad.any():
                    f, l, point = np.argwhere(bad)[0]
                    owner = np.searchsorted(np.cumsum([len(obj.points) for obj in objects]), point, side="right")
                    change = [float(lat[chunk][l]), 0.0, float(fwd[rows][f])]
                    raise InvalidInput(
                        f"object {objects[owner].object_id!r}: collision truth overflows at camera "
                        f"velocity change {change}"
                    )
            # first point of the smallest pending k0 per cell, in object
            # order; point 0 of a cell without one, which is not pending
            block = k0.shape[:2]
            ttc = np.where(k0 > 0.0, k0, np.inf).reshape(-1, n_points)
            miss_m = miss_m.reshape(-1, n_points)
            cells, nearest = np.arange(len(ttc)), np.argmin(ttc, axis=1)
            cell_ttc = ttc[cells, nearest]
            min_ttc[rows, chunk] = cell_ttc.reshape(block)
            miss[rows, chunk] = np.where(cell_ttc < np.inf, miss_m[cells, nearest], np.nan).reshape(block)
            hit[rows, chunk] = np.any(
                (ttc <= lookahead) & (miss_m < collision_radius), axis=1
            ).reshape(block)
    return CollisionMap(
        lateral_offsets=lat,
        forward_offsets=fwd,
        min_ttc=min_ttc,
        miss_distance=miss,
        collision=hit,
        collision_radius=collision_radius,
        frame_count=scenario.frame_count,
    )


def _map_blocks(points, velocities, camera_velocity, lat, fwd):
    """_truth of every (cell, point) row of a collision map, in blocks.

    points and velocities are (3, points) component rows; cell (f, l)
    moves the camera by camera_velocity + [lat[l], 0.0, fwd[f]]. Yields
    (rows, chunk, k0, H, speed) per block, in forward-major order: the
    block covers forward cells fwd[rows] and lateral cells lat[chunk],
    and its arrays are (forward cells, lateral cells, points).

    A block holds about _BLOCK_ROWS rows: whole rows of the grid, or,
    when one row of cells holds more, one lateral chunk of one row. The
    relative velocity's x varies only with the lateral cell, its z only
    with the forward cell and its y with neither, and so do the x + y and
    z parts of the sums P . v and |v|^2. Each part is computed once per
    lateral chunk or forward block, and a block pays only the two
    additions that join them before _truth_from_sums.
    """
    px, py, pz = points
    n_points = len(px)
    lat_cells = min(len(lat), max(1, _BLOCK_ROWS // n_points))
    # 1 when a row splits into chunks
    fwd_cells = max(1, _BLOCK_ROWS // (lat_cells * n_points))
    chunks = [slice(l, l + lat_cells) for l in range(0, len(lat), lat_cells)]

    def lateral(chunk):
        """vx and the x + y parts of P . v and |v|^2, (cells, points)."""
        vx = velocities[0] - (camera_velocity[0] + lat[chunk, np.newaxis])
        return vx, px * vx + py * vy, vx * vx + vy * vy

    vy = velocities[1] - (camera_velocity[1] + 0.0)
    # when a whole row fits a block, its one chunk serves every block
    whole_row = lateral(chunks[0]) if len(chunks) == 1 else None
    for f in range(0, len(fwd), fwd_cells):
        rows = slice(f, f + fwd_cells)
        vz = velocities[2] - (camera_velocity[2] + fwd[rows, np.newaxis, np.newaxis])
        dot_z, sq_z = pz * vz, vz * vz
        for chunk in chunks:
            vx, dot_xy, sq_xy = whole_row or lateral(chunk)
            k0, h, speed, _ = _truth_from_sums(points, (vx, vy, vz), dot_xy + dot_z, sq_xy + sq_z)
            yield rows, chunk, k0, h, speed
