"""Time-to-collision and collision-plane decomposition for tracked points.

Model: the camera is held at the origin and the tracked 3D point moves
with the constant per-frame relative displacement v_g (object velocity
minus camera velocity). The plane through the point with normal v_g is
the collision plane; it sweeps toward (or away from) the camera center as
the point moves. Two image observations of the point plus the epipole of
the relative motion determine, purely from angles:

* k, the real-valued number of frames until the collision plane passes
  the camera center, measured from the first frame of the observation
  pair. k > 1 means the sweep is ahead; negative k means it already
  happened |k| frames ago.
* H >= 0, the lateral miss distance of the point's motion line from the
  camera center, in units of per-frame displacement |v_g|.

The angles are true 3D angles between viewing rays: from the epipole ray
r_e to a point's ray r, tan = |r_e x r| / (r_e . r); a negative dot
product marks the obtuse, after-the-sweep regime.

The angle identity used throughout: with angles measured from the ray the
point comes from, the point observed at frames t and t+1 satisfies
tan(angle(t)) = H / (k - t). The two-frame solution is
k = tan(beta) / (tan(beta) - tan(alpha)) and H = k * tan(alpha). The
epipole ray and its antipode image to the same pixel: the angle to the
epipole ray grows between frames for a point coming from it and shrinks
for one coming from the antipode (receding), where H changes sign and k
does not.

_decompose is the only code that turns observations and an epipole into
k, H and a reason code, N rows at a time. ttc_batch wraps it for the
clustering gates and the sensitivity sweep, and _collision_rows adds the
collision-plane directions; ttckit estimate calls it on every track at
once, and collision_estimate is its one-row wrapper.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, _dot_rows, _rows, _zero_rows, as_pixel
from .errors import (
    _COINCIDENT, _CONSTANT_BEARING, _EPS_TAN, _NOT_FINITE, _ZERO_FLOW, InvalidInput, _count, _plain, _real,
    _reason_error, _whole,
)

__all__ = [
    "CollisionEstimate",
    "MotionClass",
    "TrackObservation",
    "TrackTable",
    "classify_motion",
    "collision_estimate",
    "ttc_batch",
]

# Pixel coincidence tolerance for "epipole on top of a track point".
_EPS_COINCIDENT = 1e-9

# Rows of one pass of a blocked kernel: collision_map's (cell, point)
# rows and the RANSAC gate's (hypothesis, flow) rows. Bounds their work
# arrays to a few MB whatever the input size.
_BLOCK_ROWS = 16_384


class MotionClass(enum.Enum):
    """Qualitative motion of a tracked point relative to the camera."""

    APPROACHING = "Approaching"
    RECEDING = "Receding"
    CONSTANT_BEARING = "ConstantBearing"


@dataclass(frozen=True)
class TrackObservation:
    """Pixel positions of one tracked point over consecutive frames.

    Args:
        frames: integer frame indices, length N >= 2, strictly
            increasing with step exactly 1 (stored as a tuple). The
            constant-velocity model needs uniform temporal sampling.
        positions: float pixel coordinates, shape (N, 2), finite.
    """

    frames: tuple
    positions: np.ndarray

    def __post_init__(self):
        try:  # past int64, for NaN or a fraction, the cast fails or the comparison below does
            with np.errstate(invalid="ignore"):
                frames = np.asarray(self.frames, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            frames = None
        if frames is None or np.any(frames != np.asarray(self.frames)):
            raise InvalidInput(f"frame indices must be 64-bit integers, got {_plain(self.frames)!r}")
        frames = frames if frames.ndim == 1 else np.zeros(0, np.int64)  # not a sequence: no frames
        if problem := _track_problem(frames, np.zeros(1, np.int64), np.array([len(frames)])):
            raise InvalidInput(problem[1])
        positions = _rows(self.positions, 2, "track positions")
        if len(positions) != len(frames):
            raise InvalidInput(f"positions shape {positions.shape} does not match {len(frames)} frames")
        object.__setattr__(self, "frames", tuple(int(f) for f in frames))
        object.__setattr__(self, "positions", positions)

    @classmethod
    def from_positions(cls, positions) -> "TrackObservation":
        """The track of positions, shape (N, 2), at frames 0 to N - 1."""
        positions = _rows(positions, 2, "track positions")
        return cls(frames=np.arange(len(positions), dtype=np.int64), positions=positions)

    def __len__(self) -> int:
        return len(self.frames)

    def pixel(self, i: int) -> np.ndarray:
        """The position at index i, a whole number in [-N, N): from the end if negative."""
        n, index = len(self.frames), _whole(i)
        if index is None or not -n <= index < n:
            raise InvalidInput(f"frame index must be an integer from {-n} to {n - 1}, got {_plain(i)!r}")
        return self.positions[index]


def _track_problem(frames: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[int, str] | None:
    """The first track of the int64 columns frames, start and length (see
    TrackTable) with under 2 rows or a frame step other than 1, as
    (track, message); None when every track keeps that rule."""
    # the int64 difference wraps past 2**63, so a step of 1 must also rise
    steps_ok = (np.diff(frames) == 1) & (frames[1:] > frames[:-1])
    steps_ok[start[1:] - 1] = True  # a step between two tracks is no step
    bad = length < 2
    bad[np.searchsorted(start, np.flatnonzero(~steps_ok), side="right") - 1] = True
    if not bad.any():
        return None
    t = int(np.argmax(bad))
    if length[t] < 2:
        return t, "track needs at least 2 frames"
    steps = np.diff(frames[start[t]:start[t] + length[t]].astype(object))  # exact where int64 wraps
    return t, f"frame indices must increase by exactly 1, got steps {steps.tolist()}"


class TrackTable(Sequence):
    """Many tracks stored as columns, the rows of each track contiguous.

    Attributes:
        frames: (R,) int64 frame indices.
        positions: (R, 2) float64 pixels.
        start, length: (N,) int64 first row and row count of each track.

    The columns are taken as valid tracks: at least 2 rows each, frames
    stepping by exactly 1 (the rule _track_problem checks), finite
    pixels; or 0 rows, which stands for no track. Indexing builds a
    TrackObservation on demand, or gives None for a track of 0 rows; a
    slice gives a table. pixels() reads one pixel of every track without
    building any, and needs every track to have rows.
    """

    def __init__(self, frames: np.ndarray, positions: np.ndarray, start: np.ndarray, length: np.ndarray):
        self.frames = frames
        self.positions = positions
        self.start = start
        self.length = length

    @classmethod
    def from_tracks(cls, tracks) -> "TrackTable":
        """The tracks of a sequence of TrackObservation or None, in order;
        None becomes a track of 0 rows."""
        present = [t for t in tracks if t is not None]
        length = np.array([0 if t is None else len(t) for t in tracks], dtype=np.int64)
        frames = np.array([f for t in present for f in t.frames], dtype=np.int64)
        positions = np.concatenate([t.positions for t in present]) if present else np.empty((0, 2))
        return cls(frames, positions, np.cumsum(length) - length, length)

    def __len__(self) -> int:
        return len(self.length)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        n = self.length[i]
        if n == 0:
            return None
        rows = slice(self.start[i], self.start[i] + n)
        return TrackObservation(frames=self.frames[rows], positions=self.positions[rows])

    def pixels(self, i: int) -> np.ndarray:
        """Pixel i of every track, shape (N, 2); a negative i counts from
        each track's end, and an i past a track's end reads its last pixel."""
        offset = np.clip(i if i >= 0 else self.length + i, 0, self.length - 1)
        return self.positions[self.start + offset]

    def rows(self) -> np.ndarray:
        """Index of every row of every track in track order, shape
        (sum(length),): frames[rows()] lists the tracks one after another."""
        packed = np.cumsum(self.length) - self.length
        return np.arange(self.length.sum(), dtype=np.int64) + np.repeat(self.start - packed, self.length)

    def take(self, index) -> "TrackTable":
        """The tracks at the given indices, sharing this table's rows."""
        return TrackTable(self.frames, self.positions, self.start[index], self.length[index])


class _Rows(Sequence):
    """n records built from columns when read: len() builds none, an
    index or a slice builds those records afresh. build(start, stop)
    returns records start to stop as a list. GroundTruth.points and the
    lists of result documents are _Rows."""

    def __init__(self, n: int, build):
        self._n = n
        self._build = build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            rows = range(self._n)[i]
            return self._build(rows.start, rows.stop) if rows.step == 1 else [self[j] for j in rows]
        i = range(self._n)[i]
        return self._build(i, i + 1)[0]


@dataclass(frozen=True)
class CollisionEstimate:
    """Collision-plane decomposition of one observation pair.

    Attributes:
        k: frames until the collision plane sweeps the camera center,
            counted from the first frame of the pair used.
        H: lateral miss distance, >= 0, in units of per-frame relative
            displacement.
        v_g_dir: unit 3-vector of the direction the point comes from,
            the negated relative motion direction: the viewing ray
            through the epipole for an approaching point, its antipode
            for a receding one.
        v_H_dir: unit 3-vector of the lateral offset, orthogonal to
            v_g_dir, in the plane spanned by v_g_dir and the point's ray.
        point: reconstructed 3D position k * v_g_dir + H * v_H_dir, in
            per-frame displacement units: the scene position at the
            first frame of the pair divided by |v_g|.
    """

    k: float
    H: float
    v_g_dir: np.ndarray
    v_H_dir: np.ndarray
    point: np.ndarray


def _decompose(p0: np.ndarray, p1: np.ndarray, e: np.ndarray, intrinsics: CameraIntrinsics):
    """Collision-plane decomposition of N observation pairs against their epipoles.

    Args:
        p0, p1: float pixels at the pair's two frames, shape (N, 2).
        e: epipole pixel, shape (2,) shared by all rows or (N, 2).

    Returns:
        (k, H, from_epipole, code), each of shape (N,). from_epipole
        is True where the angle to the epipole ray grows between the
        frames: the point comes from that ray, elsewhere from its
        antipode. Since k * tan(alpha) = 1 / (cot(alpha) - cot(beta)),
        the angle grows exactly where k * tan(alpha) > 0, and H is its
        magnitude. code is each row's int8 reason code: 0, or by
        precedence _ZERO_FLOW (norm 0 by camera._zero_rows, which a span
        of 1e-170 px has too), _COINCIDENT or _CONSTANT_BEARING, where k
        and H are NaN.
    """
    pp = intrinsics.pp
    f = intrinsics.focal_px
    ex, ey = (e - pp).T
    coincident = np.zeros(len(p0), dtype=bool)
    tangents = []
    for p in (p0, p1):
        # tan = |r_e x r| / (r_e . r) with r = (x, y, f), r_e = (ex, ey, f),
        # one frame at a time and in place, with the same products and sums
        x = p[:, 0] - pp[0]
        y = p[:, 1] - pp[1]
        gap = np.hypot(p[:, 0] - e[..., 0], p[:, 1] - e[..., 1])
        coincident |= gap < _EPS_COINCIDENT
        gap *= f
        cross = ex * y
        cross -= ey * x
        rise = np.hypot(gap, cross, out=gap)
        x *= ex
        y *= ey
        x += y
        x += f * f
        tangents.append((rise, x))
    (ya, xa), (yb, xb) = tangents
    # k = tan(beta) / (tan(beta) - tan(alpha)) and h = k * tan(alpha), the
    # tangents kept as fractions so that a right angle (x = 0, the point
    # at its sweep) needs no special case. Angular motion |tan(beta) -
    # tan(alpha)| below _EPS_TAN is constant bearing.
    k = yb * xa
    den = k - ya * xb
    xa *= xb
    still = ~(np.abs(den) >= _EPS_TAN * np.abs(xa, out=xa)) | (den == 0.0)
    den[still] = 1.0
    k /= den
    h = ya * yb
    h /= den
    code = np.zeros(len(k), dtype=np.int8)
    code[still] = _CONSTANT_BEARING
    code[coincident] = _COINCIDENT
    code[_zero_rows(p1 - p0)] = _ZERO_FLOW
    bad = code != 0
    k[bad] = np.nan
    h[bad] = np.nan
    return k, np.abs(h), h >= 0.0, code


def _collision_rows(p0: np.ndarray, p1: np.ndarray, e: np.ndarray, intrinsics: CameraIntrinsics):
    """Full collision-plane decomposition of N observation pairs.

    Args:
        p0, p1: float pixels at the pair's two frames, shape (N, 2).
        e: epipole pixel, shape (2,) shared by all rows or (N, 2).

    Returns:
        (k, H, v_g_dir, v_H_dir, point, code): k and H of shape (N,),
        the three CollisionEstimate vectors of shape (N, 3), and code,
        _decompose's int8 reason code of each row, or _NOT_FINITE where a
        value overflowed; no message reads a column. Rows of a non-zero
        code hold NaN or meaningless values, and non-finite epipoles are
        allowed there.
    """
    n = len(p0)
    pp = intrinsics.pp
    f = np.full(n, intrinsics.focal_px)
    with np.errstate(divide="ignore", invalid="ignore"):
        k, h, from_epipole, code = _decompose(p0, p1, e, intrinsics)
        # the point comes from the epipole ray or from its antipode
        v_g_dir = np.column_stack([np.broadcast_to(e - pp, (n, 2)), f])
        v_g_dir *= (np.where(from_epipole, 1.0, -1.0) / np.sqrt(_dot_rows(v_g_dir, v_g_dir)))[:, np.newaxis]
        ray0 = np.column_stack([p0 - pp, f])
        # Lateral direction: the component of the point's ray orthogonal to
        # the motion axis.
        lateral = ray0 - _dot_rows(ray0, v_g_dir)[:, np.newaxis] * v_g_dir
        v_h_dir = lateral / np.sqrt(_dot_rows(lateral, lateral))[:, np.newaxis]
    point = k[:, np.newaxis] * v_g_dir + h[:, np.newaxis] * v_h_dir
    finite = np.isfinite(np.column_stack([k, h, v_g_dir, v_h_dir, point])).all(axis=1)
    code[~finite & (code == 0)] = _NOT_FINITE
    return k, h, v_g_dir, v_h_dir, point, code


def _pair(track: TrackObservation, pair_index) -> np.ndarray:
    """Positions of track's frames pair_index and pair_index + 1; InvalidInput unless 0 <= pair_index <= N - 2."""
    i = _count(pair_index, "pair_index", 0)
    if i > len(track) - 2:
        raise InvalidInput(f"pair_index {i} out of range for {len(track)} frames")
    return track.positions[i : i + 2]


def collision_estimate(
    track: TrackObservation,
    epipole,
    intrinsics: CameraIntrinsics,
    *,
    pair_index: int = 0,
) -> CollisionEstimate:
    """Full collision-plane decomposition of one track against an epipole.

    Args:
        track: observations; the pair (pair_index, pair_index + 1) is used.
        epipole: epipole pixel position, or any object with a
            ``position`` attribute holding one.
        intrinsics: camera model.
        pair_index: which consecutive frame pair to decompose; k is
            counted from track.frames[pair_index].

    Raises:
        StationaryPoint: constant-bearing track (zero or sub-threshold
            angular motion). Callers should report MotionClass
            CONSTANT_BEARING with H = 0 instead of failing.
        DegenerateGeometry: epipole coincides with a track point, or a value overflows.
        InvalidInput: pair_index not an integer >= 0, or out of range.
    """
    pair = _pair(track, pair_index)
    e = as_pixel(epipole)
    k, h, v_g_dir, v_h_dir, point, code = _collision_rows(pair[:1], pair[1:], e, intrinsics)
    if code[0]:
        raise _reason_error(code[0], {})
    return CollisionEstimate(k=float(k[0]), H=float(h[0]), v_g_dir=v_g_dir[0], v_H_dir=v_h_dir[0], point=point[0])


def classify_motion(track: TrackObservation, epipole, *, eps_px: float = 0.05) -> MotionClass:
    """Approaching / receding / constant-bearing from epipole distances.

    Compares the pixel distance to the epipole at the last frame against
    the first. Changes smaller than eps_px, a finite real >= 0, count as
    constant bearing.
    """
    eps_px = _real(eps_px, "eps_px", ge=0)
    e = as_pixel(epipole)
    d_first = float(np.linalg.norm(track.pixel(0) - e))
    d_last = float(np.linalg.norm(track.pixel(len(track) - 1) - e))
    if d_last - d_first > eps_px:
        return MotionClass.APPROACHING
    if d_first - d_last > eps_px:
        return MotionClass.RECEDING
    return MotionClass.CONSTANT_BEARING


def ttc_batch(
    p0: np.ndarray,
    p1: np.ndarray,
    epipole,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (k, H) of many observation pairs.

    Args:
        p0: first-frame pixels, finite, shape (N, 2).
        p1: second-frame pixels, finite, shape (N, 2).
        epipole: one epipole pixel shared by all pairs, shape (2,), or
            one per pair, shape (N, 2); finite.
        intrinsics: camera model.

    Returns:
        (k, H) float arrays of shape (N,). Degenerate rows (zero flow,
        epipole on the flow's pixels, angular motion |tan(beta) -
        tan(alpha)| below _EPS_TAN) are NaN rather than raised, so batch
        callers can mask them. Each row equals collision_estimate on that
        pair.
    """
    p0, p1 = _rows(p0, 2, "p0"), _rows(p1, 2, "p1")
    e = _rows(getattr(epipole, "position", epipole), 2, "epipole", single=True)
    if p1.shape != p0.shape or e.shape not in ((2,), p0.shape):
        shapes = f"{p0.shape}, {p1.shape} and {e.shape}"
        raise InvalidInput(f"p0, p1 and epipole must have matching rows, got shapes {shapes}")
    k, h, _, _ = _decompose(p0, p1, e, intrinsics)
    return k, h
