"""Epipole estimators and horizon calibration.

The epipole is the image point where a tracked point would project after
moving infinitely far along the negated relative motion direction; it is
the 2D signature of the relative translation. For pure translation every
flow line (the image line through one point's consecutive observations)
passes through the epipole exactly, which yields three estimators:

* planar_epipole: motion confined to a horizontal plane puts the epipole
  on the horizon line, so one flow line suffices: intersect it with the
  horizon.
* epipole_least_squares: several flow lines from one rigid translation
  meet in the epipole; solve the stacked point-on-line constraints.
* epipole_offset_three_frames: arbitrary translation observed over three
  frames. The horizon intersection is generally wrong by an in-line
  angular offset x; requiring the two frame-pair TTC values to differ by
  exactly one frame pins x in closed form.

calibrate_horizon inverts the planar construction: epipoles collected
from several planar motion episodes all lie on the horizon, so a total
least squares line fit through them recovers it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics, _dot_rows, _unit_rows, _vector, as_pixel
from .errors import (
    _ALL_PARALLEL, _AT_INFINITY, _EPS_TAN, _FEW_FLOWS, _FEW_FRAMES, _PARALLEL_TO_HORIZON, _TTC_UNDEFINED,
    _UNIFORM_ANGLES, _ZERO_DISPLACEMENT, _ZERO_FLOW, EPS_PARALLEL_DEG, InsufficientData, InvalidInput, SingularGeometry,
    _real, _reason_error,
)
from .ttc import TrackObservation, TrackTable, _decompose, _pair

__all__ = [
    "Epipole",
    "EpipoleMethod",
    "FlowVector",
    "HorizonLine",
    "calibrate_horizon",
    "epipole_least_squares",
    "epipole_offset_three_frames",
    "planar_epipole",
]

# |sin| of EPS_PARALLEL_DEG, the angle below which two image lines count as parallel
_MIN_SIN_PARALLEL = np.sin(np.deg2rad(EPS_PARALLEL_DEG))


class EpipoleMethod(enum.Enum):
    HORIZON_INTERSECTION = "HorizonIntersection"
    LEAST_SQUARES = "LeastSquares"
    THREE_FRAME_OFFSET = "ThreeFrameOffset"


@dataclass(frozen=True)
class Epipole:
    """Estimated epipole.

    Attributes:
        position: pixel location, finite.
        method: which estimator produced it.
        residual: method-specific fit quality in pixels, >= 0.
            Zero by construction for the planar intersection; RMS
            point-line distance for least squares; |k01 - k12 - 1| of
            the observed pixels for the three-frame offset method.
    """

    position: np.ndarray
    method: EpipoleMethod
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", as_pixel(self.position))
        object.__setattr__(self, "residual", _real(self.residual, "residual", ge=0))


@dataclass(frozen=True)
class HorizonLine:
    """Image line holding the epipoles of all ground-plane motions.

    Attributes:
        reference: any pixel on the line.
        direction: unit 2-vector along the line.
        fit_residual: RMS perpendicular distance when produced by
            calibrate_horizon; 0 for exactly constructed lines.
    """

    reference: np.ndarray
    direction: np.ndarray
    fit_residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "reference", as_pixel(self.reference))
        unit, zero = _unit_rows(_vector(self.direction, 2, "direction")[np.newaxis])
        if zero[0]:
            raise InvalidInput("direction must be nonzero")
        object.__setattr__(self, "direction", unit[0])

    @classmethod
    def level(cls, v0: float) -> "HorizonLine":
        """Horizontal horizon v = v0 of a level camera."""
        return cls(reference=(0.0, v0), direction=(1.0, 0.0))

    @classmethod
    def from_slope_intercept(cls, a: float, b: float) -> "HorizonLine":
        """Line v = a * u + b."""
        return cls(reference=(0.0, b), direction=(1.0, a))


@dataclass(frozen=True)
class FlowVector:
    """One point's image displacement between two frames.

    Attributes:
        p: pixel at the first frame.
        p_prime: pixel at the second frame.

    Derived on construction: t = p_prime - p (displacement) and n, the
    unit normal of the flow line (t rotated a quarter turn and
    normalized). Zero displacement defines no line and is rejected.
    """

    p: np.ndarray
    p_prime: np.ndarray
    t: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)

    def __post_init__(self):
        p = as_pixel(self.p)
        q = as_pixel(self.p_prime)
        normals, _, zero = _flow_lines(p[np.newaxis], q[np.newaxis])
        if zero[0]:
            raise _reason_error(_ZERO_DISPLACEMENT, {"pixel": p[np.newaxis]})
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_prime", q)
        object.__setattr__(self, "t", q - p)
        object.__setattr__(self, "n", normals[0])

    @classmethod
    def from_track(cls, track: TrackObservation, pair_index: int = 0) -> "FlowVector":
        """The flow of track's frames pair_index and pair_index + 1, by collision_estimate's pair rule."""
        return cls(*_pair(track, pair_index))

    @property
    def direction(self) -> np.ndarray:
        """Unit displacement direction."""
        return np.array([self.n[1], -self.n[0]])


def _cut_horizon(points: np.ndarray, directions: np.ndarray, horizon: HorizonLine):
    """Cut N lines, a pixel and a unit direction each of shape (N, 2),
    with the horizon: (positions, sin), sin being the signed sine of each
    line's angle to the horizon. Error grows like 1 / sin, so callers
    reject |sin| under their own floor; sin = 0, or one so small that the
    quotient overflows, gives a non-finite position."""
    d_hor = horizon.direction
    sin = directions[:, 0] * d_hor[1] - directions[:, 1] * d_hor[0]
    rel = horizon.reference - points
    # cross both sides of points + s * directions = reference + u * d_hor with d_hor
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (rel[:, 0] * d_hor[1] - rel[:, 1] * d_hor[0]) / sin
        return points + s[:, np.newaxis] * directions, sin


def _tls_lines(points: np.ndarray):
    """Total least squares lines through point sets of shape (..., n, 2):
    (centroid, unit direction, spread), each of shape (..., 2), (..., 2)
    and (...).

    The line is the principal axis of the set's scatter sxx, syy, sxy
    about its centroid (Pearson 1901), in closed form: direction
    (cos t, sin t) with t = atan2(2 sxy, sxx - syy) / 2, so u >= 0, taken
    from the eigenvector of the largest eigenvalue without trigonometry.
    spread = sqrt(largest eigenvalue), the largest singular value of the
    centered points. Each centered set is divided by its largest
    |coordinate| before squaring and the spread multiplied back, so no
    square overflows or underflows. Where all points of a set coincide
    the spread is 0, and where the scatter has no principal axis the
    direction is (1, 0).
    """
    # centered on the first point, then on the mean offset from it, so
    # coincident points center to exact zeros
    centered = points - points[..., :1, :]
    offset = centered.mean(axis=-2, keepdims=True)
    centroid = (points[..., :1, :] + offset)[..., 0, :]
    centered -= offset
    scale = np.abs(centered).max(axis=(-2, -1))
    centered /= np.where(scale > 0.0, scale, 1.0)[..., np.newaxis, np.newaxis]
    x, y = centered[..., 0], centered[..., 1]
    sxx, syy, sxy = (x * x).sum(axis=-1), (y * y).sum(axis=-1), (x * y).sum(axis=-1)
    half = (sxx - syy) / 2.0
    r = np.hypot(half, sxy)
    # (lambda - syy, sxy) or (sxy, lambda - sxx), whichever adds two
    # non-negative terms; the second turned so that u >= 0
    wide = half >= 0.0
    u = np.where(wide, half + r, np.abs(sxy))
    v = np.where(wide, sxy, np.copysign(r - half, sxy))
    norm = np.hypot(u, v)
    axis = norm > 0.0
    norm = np.where(axis, norm, 1.0)
    direction = np.stack([np.where(axis, u / norm, 1.0), v / norm], axis=-1)
    return centroid, direction, scale * np.sqrt((sxx + syy) / 2.0 + r)


def _planar_epipoles(p: np.ndarray, q: np.ndarray, horizon: HorizonLine):
    """Cut the flow lines through pixels p and q, shape (N, 2), with the horizon.

    Returns:
        (positions, code, columns): the epipoles, shape (N, 2), the int8
        reason code of each row (zero displacement before parallel to the
        horizon), and the columns its messages read: "pixel" (p) and
        "direction" (the unit flow directions, shape (N, 2)). Rows of a
        non-zero code hold NaN positions: a cut of an almost parallel
        line can be finite but so far off that decomposing a pair against
        it overflows.
    """
    directions, still = _unit_rows(q - p)
    positions, sin = _cut_horizon(p, directions, horizon)
    code = np.zeros(len(p), dtype=np.int8)
    code[np.abs(sin) < _MIN_SIN_PARALLEL] = _PARALLEL_TO_HORIZON
    code[still] = _ZERO_DISPLACEMENT
    positions[code != 0] = np.nan
    return positions, code, {"pixel": p, "direction": directions}


def planar_epipole(flow: FlowVector, horizon: HorizonLine) -> Epipole:
    """Epipole of planar motion: flow line intersected with the horizon.

    Raises:
        ParallelToHorizon: flow line within EPS_PARALLEL_DEG of the
            horizon direction; fall back to the least-squares or
            three-frame estimators.
    """
    positions, code, columns = _planar_epipoles(flow.p[np.newaxis], flow.p_prime[np.newaxis], horizon)
    if code[0]:
        raise _reason_error(code[0], columns)
    return Epipole(position=positions[0], method=EpipoleMethod.HORIZON_INTERSECTION, residual=0.0)


def _flow_lines(p: np.ndarray, q: np.ndarray):
    """Lines of the flows from pixels p to pixels q, shape (N, 2).

    Returns:
        (normals, offsets, zero): the unit normals of shape (N, 2), the
        offsets n . p of shape (N,), so that a pixel e lies at signed
        distance n . e - offset from a line, and zero, True for a flow of
        zero displacement. The normal of such a row is its displacement
        turned a quarter, not a unit vector. FlowVector takes its n from
        one row, and raises for a zero one.
    """
    directions, zero = _unit_rows(q - p)
    normals = np.column_stack([-directions[:, 1], directions[:, 0]])
    return normals, np.einsum("ij,ij->i", normals, p), zero


def _cross_abs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|sin(angle)| between lines of unit normals a and b, shape (..., 2),
    broadcast. Orientation-free: it is the 2D cross product of the
    normals, which equals that of the flow directions exactly."""
    return np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])


def _lines_spread(normals: np.ndarray, min_sin: float) -> bool:
    """Whether some two of N >= 2 unit line normals make |sin(angle)| >= min_sin.

    The verdict is that of _cross_abs over every pair, in O(N log N). The
    line directions, angles mod pi, are sorted round the circle; all lines
    lie on the arc left by the widest gap, from line a to line b. Row a
    is tested against every line: on an arc under pi/4 the line farthest
    from a is b (the pair that bounds the arc), and on a wider arc some
    line lies 45-135 deg from a, so row a finds a witness whenever the
    lines spread by more than rounding. Otherwise the only pairs that can
    still pass are those of lines within rounding of the two ends of the
    arc, and they are tested directly.
    """
    theta = np.arctan2(normals[:, 1], normals[:, 0]) % np.pi
    order = np.argsort(theta)
    gaps = np.diff(theta[order], append=theta[order[0]] + np.pi)
    widest = int(np.argmax(gaps))
    a, b = order[(widest + 1) % len(order)], order[widest]
    if _cross_abs(normals[a], normals).max() >= min_sin:
        return True
    if _cross_abs(normals[a], normals[b]) < min_sin - 1e-12:
        return False
    # within rounding of the threshold: angle errors are ~1e-16 rad
    from_a = (theta - theta[a]) % np.pi
    arc = from_a[b]
    ends_a = np.unique(normals[from_a <= 1e-12], axis=0)
    ends_b = np.unique(normals[from_a >= arc - 1e-12], axis=0)
    return bool(np.any(_cross_abs(ends_a[:, np.newaxis], ends_b) >= min_sin))


def _least_squares_epipole(normals: np.ndarray, offsets: np.ndarray):
    """Least-squares meeting point of N flow lines given as _flow_lines rows.

    Returns:
        (position, residual, code): the epipole pixel, the RMS distance
        of the lines from it, and the lines' reason code: 0, _FEW_FLOWS
        (its message reads the column "flows", the line count) or
        _ALL_PARALLEL, where position and residual are None.
    """
    if len(normals) < 2:
        return None, None, _FEW_FLOWS
    if not _lines_spread(normals, _MIN_SIN_PARALLEL):
        return None, None, _ALL_PARALLEL
    solution, *_ = np.linalg.lstsq(normals, offsets, rcond=None)
    distances = normals @ solution - offsets
    return solution, float(np.sqrt(np.mean(distances**2))), 0


def epipole_least_squares(flows: list[FlowVector]) -> Epipole:
    """Epipole as the least-squares meeting point of several flow lines.

    Stacks one point-on-line constraint n_i . e = n_i . p_i per flow and
    solves by orthogonal factorization (np.linalg.lstsq), which stays
    well conditioned for near-parallel bundles.

    Raises:
        InsufficientData: fewer than 2 flows.
        SingularGeometry: no two flow directions differ by more than
            EPS_PARALLEL_DEG (the lines meet nowhere or everywhere).
    """
    p = np.array([fl.p for fl in flows]).reshape(-1, 2)
    q = np.array([fl.p_prime for fl in flows]).reshape(-1, 2)
    normals, offsets, _ = _flow_lines(p, q)
    position, residual, code = _least_squares_epipole(normals, offsets)
    if code:
        raise _reason_error(code, {"flows": [len(normals)]})
    return Epipole(position=position, method=EpipoleMethod.LEAST_SQUARES, residual=residual)


def _offset_three_frames(tracks: TrackTable, horizon: HorizonLine, intrinsics: CameraIntrinsics):
    """Three-frame offset fit of the N tracks of a table at once, from
    the pixels p0, p1, p2 of each track's first three frames.

    Each row is worked as epipole_offset_three_frames describes: the
    flow line p0 -> p1 is cut with the horizon, and with the angles a,
    b, c of p0, p1, p2 measured from that anchor along the line (the
    3-D angles between viewing rays, as camera.LineAngleFrame measures
    them) the offset x is solved in closed form, and the epipole moved
    to in-line angle (anchor angle) - x. The residual of each row comes
    from two row-wise _decompose calls, one over the pairs (0, 1) and one
    over the pairs (1, 2) against the corrected epipoles, so no work
    array holds more than N rows.

    Returns:
        (x, positions, residual, code, columns): x and residual of shape
        (N,), the corrected epipoles of shape (N, 2), the int8 reason
        code of each row, that of the first problem listed under
        epipole_offset_three_frames' Raises, and the columns its messages
        read ("direction", "denominator", "angle", "frames"). Rows of a
        non-zero code hold meaningless values; a track of 2 frames is
        worked with its last pixel as p2.
    """
    p0, p1, p2 = (tracks.pixels(i) for i in range(3))
    anchors, planar, columns = _planar_epipoles(p0, p1, horizon)
    directions = columns["direction"]
    pp = intrinsics.pp
    with np.errstate(divide="ignore", invalid="ignore"):
        # the line frame of p0 -> p1: its foot nearest the principal point,
        # and the distance from the camera center to the line
        foot = p0 + _dot_rows(pp - p0, directions)[:, np.newaxis] * directions
        depth = np.hypot(np.sqrt(_dot_rows(foot - pp, foot - pp)), intrinsics.focal_px)
        angle_anchor = np.arctan2(_dot_rows(anchors - foot, directions), depth)
        ta, tb, tc = (np.tan(np.arctan2(_dot_rows(p - foot, directions), depth) - angle_anchor)
                      for p in (p0, p1, p2))
        denominator = ta - 2.0 * tb + tc
        x = np.arctan((ta * tb - 2.0 * ta * tc + tb * tc) / denominator)
        angle = angle_anchor - x
        positions = foot + (depth * np.tan(angle))[:, np.newaxis] * directions
        # Residual: the observed pairs' TTC must differ by exactly one frame.
        k = _decompose(p0, p1, positions, intrinsics)[0]
        k -= _decompose(p1, p2, positions, intrinsics)[0]
        residual = np.abs(k - 1.0)
        at_infinity = np.abs(np.cos(angle)) < 1e-12
    code = np.select(
        [tracks.length < 3, planar == _ZERO_DISPLACEMENT, planar != 0,
         np.abs(denominator) < _EPS_TAN, at_infinity, ~np.isfinite(residual)],
        [_FEW_FRAMES, _ZERO_FLOW, _PARALLEL_TO_HORIZON, _UNIFORM_ANGLES, _AT_INFINITY, _TTC_UNDEFINED],
    ).astype(np.int8)
    columns.update(denominator=denominator, angle=angle, frames=tracks.length)
    return x, positions, residual, code, columns


def epipole_offset_three_frames(
    track: TrackObservation,
    horizon: HorizonLine,
    intrinsics: CameraIntrinsics,
) -> tuple[float, Epipole]:
    """Angular offset and corrected epipole from three frames of one track.

    With angles a, b, c of the three observations measured from the
    flow-line / horizon intersection, demanding that the TTC of the
    first frame pair exceed the TTC of the second by exactly one frame
    has the closed-form solution

        x = arctan( (tan a tan b - 2 tan a tan c + tan b tan c)
                    / (tan a - 2 tan b + tan c) )

    and the true epipole sits on the flow line at in-line angle
    (angle of the intersection) - x. x = 0 exactly when the true epipole
    already lies on the horizon.

    Returns:
        (x, epipole): the offset angle in radians, wrapped to
        (-pi/2, pi/2), and the corrected epipole. The epipole's residual
        is |k01 - k12 - 1|, the TTC (ttc_batch) of the observed pixel
        pairs (0, 1) and (1, 2) against it; 0 without noise.

    Raises, for the first of these problems:
        InsufficientData: fewer than 3 frames.
        StationaryPoint: no displacement between the first two frames,
            by the zero-flow rule of collision_estimate.
        ParallelToHorizon: the track's flow line never meets the horizon.
        DegenerateConfiguration: vanishing offset denominator (uniformly
            spaced angles).
        DegenerateGeometry: corrected epipole at infinity.
        DegenerateConfiguration: no finite TTC against the corrected
            epipole.
    """
    x, positions, residual, code, columns = _offset_three_frames(TrackTable.from_tracks([track]), horizon, intrinsics)
    if code[0]:
        raise _reason_error(code[0], columns)
    epipole = Epipole(
        position=positions[0], method=EpipoleMethod.THREE_FRAME_OFFSET, residual=float(residual[0])
    )
    return float(x[0]), epipole


def calibrate_horizon(epipoles: list[Epipole]) -> HorizonLine:
    """Total least squares horizon through epipoles of planar motions.

    Uses the perpendicular-residual line fit (_tls_lines: the principal
    axis of the positions' scatter, in closed form), since epipole
    errors have no preferred axis. The line passes through the
    epipoles' centroid, and its direction points to +u (u >= 0; (0, +-1)
    for a vertical fit). The fit residual (RMS perpendicular distance)
    is stored on the returned line.

    Raises:
        InsufficientData: fewer than 2 epipoles.
        SingularGeometry: all positions coincident.
    """
    if len(epipoles) < 2:
        raise InsufficientData(f"need at least 2 epipoles, got {len(epipoles)}")
    pts = np.array([as_pixel(e) for e in epipoles])
    centroid, direction, spread = _tls_lines(pts)
    if spread < 1e-9:
        raise SingularGeometry("all epipoles coincident; horizon direction undefined")
    perp = (pts - centroid) @ np.array([-direction[1], direction[0]])
    residual = float(np.sqrt(np.mean(perp**2)))
    return HorizonLine(reference=centroid, direction=direction, fit_residual=residual)
