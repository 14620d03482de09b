"""Pinhole camera model, coordinate conventions, and pixel-to-angle maps.

Conventions used across the package:

* Camera frame: +Z along the optical axis (forward), +X right, +Y down.
  A scene point is a length-3 float array ``[X, Y, Z]``; projection
  requires ``Z > 0``.
* Image frame: origin at the top-left corner, u right, v down, in pixels.
  A pixel point is a length-2 float array ``[u, v]``. Pixel coordinates
  may fall outside the image bounds; bounds are metadata, not a clip.
* The horizon of a level camera is the image line ``v = v0``.
* Angles are plain floats in radians. Any angle derived from a pixel
  coordinate lies strictly inside (-pi/2, pi/2).

:class:`LineAngleFrame` is a 1D angular parameterization of an
arbitrary image line as seen from the camera center. Every pixel on the
line maps to the exact 3D angle between its viewing ray and the ray
through the line's closest point to the principal point. It is exact:
the offset along the line is perpendicular to the camera-to-line distance
vector in 3D, so tan(angle) = offset / distance holds without
approximation. No estimator calls it (the three-frame offset fit works
the same line frame as arrays); it is the independent angular reference
that their results are checked against.

Inputs: _vector is the one check of a fixed-length vector and _rows of an
array of points (scene points, track positions, pixel pairs), each naming
its field; CameraIntrinsics owns its image_size and allow_off_center rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _AT_INFINITY, BehindCamera, DegenerateGeometry, InvalidInput, _plain, _real, _reason_error, _whole

__all__ = [
    "CameraIntrinsics",
    "LineAngleFrame",
    "as_pixel",
    "line_angle_frame",
    "project",
]


def as_pixel(p) -> np.ndarray:
    """Coerce p to a finite float64 array of shape (2,) [u, v].

    Objects exposing a ``position`` attribute (epipole records) are
    unwrapped first, so estimator outputs can be passed wherever a pixel
    is expected.
    """
    return _vector(getattr(p, "position", p), 2, "pixel point")


def _vector(value, n: int, name: str) -> np.ndarray:
    """value as a finite float64 array of shape (n,), else InvalidInput
    naming name: the one check of a fixed-length vector."""
    try:
        vector = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise InvalidInput(f"{name} has a number too large for float64") from None
    except (TypeError, ValueError):
        vector = None
    if vector is None or vector.shape != (n,) or not np.isfinite(vector).all():
        got = _plain(value) if vector is None or vector.ndim == 0 else vector.tolist()
        raise InvalidInput(f"{name} must be a finite {n}-vector, got {got!r}")
    return vector


def _rows(value, width: int, name: str, *, single: bool = False) -> np.ndarray:
    """value as a finite float64 array of shape (N, width), or with single
    also (width,), else InvalidInput naming name and giving the shape,
    never the array: the one check of an array of points."""
    try:
        rows = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise InvalidInput(f"{name} has a number too large for float64") from None
    except (TypeError, ValueError):  # not numbers, or ragged
        rows = None
    if rows is None or rows.shape[-1:] != (width,) or not (rows.ndim == 2 or single and rows.ndim == 1):
        shapes = f"({width},) or (N, {width})" if single else f"(N, {width})"
        got = "" if rows is None else f", got shape {rows.shape}"
        raise InvalidInput(f"{name} must be an array of numbers of shape {shapes}{got}")
    if not np.isfinite(rows).all():
        raise InvalidInput(f"{name} must be finite")
    return rows


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of (N, d) arrays, shape (N,).

    Each row goes through the same dot kernel as ``a[i] @ b[i]`` (BLAS
    may fuse its multiply-adds, where an elementwise sum would not), so
    batch kernels reproduce their one-row calls bit for bit.
    """
    return np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]


def _zero_rows(t: np.ndarray) -> np.ndarray:
    """True where the 2-D displacement t has norm 0, shape (N,): an exact
    zero, or a span so small that t . t underflows. The one zero-flow
    rule of the package."""
    return _dot_rows(t, t) == 0.0


def _unit_rows(t: np.ndarray):
    """Unit directions of the 2-D displacements t, shape (N, 2).

    Returns:
        (unit, zero): t divided by its norm sqrt(t . t), shape (N, 2),
        and zero, shape (N,), the _zero_rows mask. Zero rows are left as
        they are in unit: they have no direction.
    """
    zero = _zero_rows(t)
    norm = np.sqrt(_dot_rows(t, t))
    return t / np.where(zero, 1.0, norm)[:, np.newaxis], zero


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal length in pixels, principal point, size.

    Args:
        focal_px: focal length in pixels, a finite real > 0.
        principal_point: (u0, v0) in pixels, a finite 2-vector.
        image_size: (width, height), positive integers, or None when
            unknown. With a size given, the principal point must lie in
            [0, width] x [0, height] unless allow_off_center is set.
        allow_off_center: a bool; True permits a principal point outside the image.

    The focal length is always in pixels. Metric focal lengths must be
    converted by the caller with an explicit pixel pitch; see
    :func:`ttckit.stereo.focal_px_from_metric`.
    """

    focal_px: float
    principal_point: tuple[float, float]
    image_size: tuple[int, int] | None = None
    allow_off_center: bool = False

    def __post_init__(self):
        object.__setattr__(self, "focal_px", _real(self.focal_px, "focal_px", gt=0))
        u0, v0 = _vector(self.principal_point, 2, "principal_point").tolist()
        object.__setattr__(self, "principal_point", (u0, v0))
        if not isinstance(self.allow_off_center, (bool, np.bool_)):
            raise InvalidInput(f"allow_off_center must be a boolean, got {_plain(self.allow_off_center)!r}")
        if self.image_size is not None:
            size = tuple(map(_whole, self.image_size)) if np.iterable(self.image_size) else ()
            if len(size) != 2 or None in size or min(size) <= 0:
                raise InvalidInput(f"image_size must be positive integers, got {_plain(self.image_size)!r}")
            object.__setattr__(self, "image_size", size)
            if not (self.allow_off_center or 0.0 <= u0 <= size[0] and 0.0 <= v0 <= size[1]):
                raise InvalidInput(
                    f"principal point {self.principal_point} outside image "
                    f"{self.image_size}; pass allow_off_center=True to permit"
                )

    @property
    def u0(self) -> float:
        return self.principal_point[0]

    @property
    def v0(self) -> float:
        return self.principal_point[1]

    @property
    def pp(self) -> np.ndarray:
        """Principal point as a length-2 array."""
        return np.array(self.principal_point, dtype=np.float64)


def project(point, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project scene point(s) with Z > 0 onto the image plane.

    Args:
        point: array of shape (3,) or (N, 3) in the camera frame.
        intrinsics: camera model.

    Returns:
        Pixel array of shape (2,) or (N, 2):
        u = u0 + focal_px * X / Z, v = v0 + focal_px * Y / Z.

    Raises:
        BehindCamera: if any Z <= 0.
        InvalidInput: non-finite or wrongly shaped input, or a pixel
            that overflows float64 (a point almost on the image plane),
            naming the first such point by its index.
    """
    pts = _rows(point, 3, "scene points", single=True)
    z = pts[..., 2:]  # shape (N, 1), or (1,) for one point
    if np.any(z <= 0.0):
        bad = pts.reshape(-1, 3)[z.ravel() <= 0.0][0]
        raise BehindCamera(f"cannot project point with Z <= 0: {bad.tolist()}")
    with np.errstate(over="ignore"):
        pixels = intrinsics.pp + intrinsics.focal_px * pts[..., :2] / z
    overflow = ~np.isfinite(pixels.reshape(-1, 2)).all(axis=1)
    if overflow.any():
        raise InvalidInput(f"the pixel of scene point {int(np.argmax(overflow))} overflows float64")
    return pixels


@dataclass(frozen=True)
class LineAngleFrame:
    """Exact 1D angular parameterization of an image line.

    foot is the point of the line closest to the principal point,
    direction the unit 2-vector orienting the line, and depth the 3D
    distance from the camera center to the line:
    depth = hypot(|foot - principal_point|, focal_px).

    The viewing rays of all pixels on the line span a plane through the
    camera center. Inside that plane, the pixel at signed arc offset s
    from the foot sits at angle arctan(s / depth) from the foot's ray.
    Angle differences measured in this frame are true 3D angles between
    viewing rays, which is what the time-to-collision relations require.
    """

    foot: np.ndarray
    direction: np.ndarray
    depth: float

    def offset_of(self, p) -> float:
        """Signed arc offset of pixel p's projection onto the line."""
        return float((as_pixel(p) - self.foot) @ self.direction)

    def angle_of(self, p) -> float:
        """In-plane ray angle of pixel p, in (-pi/2, pi/2)."""
        return float(np.arctan2(self.offset_of(p), self.depth))

    def point_at(self, angle: float) -> np.ndarray:
        """Pixel on the line whose in-plane ray angle equals angle.

        tan is pi-periodic, so angles outside (-pi/2, pi/2) wrap to the
        antipodal intersection of the same ray pencil with the line.

        Raises:
            DegenerateGeometry: angle within ~1e-12 of an odd multiple
                of pi/2 (the requested pixel lies at infinity).
            InvalidInput: angle not a finite real.
        """
        a = _real(angle, "angle")
        if abs(np.cos(a)) < 1e-12:
            raise _reason_error(_AT_INFINITY, {"angle": [a]})
        return self.foot + self.depth * np.tan(a) * self.direction


def line_angle_frame(a, b, intrinsics: CameraIntrinsics) -> LineAngleFrame:
    """Build the angular frame of the image line through pixels a and b.

    The line is oriented from a to b.

    Raises:
        DegenerateGeometry: a and b coincide (no unique line).
    """
    pa = as_pixel(a)
    pb = as_pixel(b)
    chord = pb - pa
    norm = float(np.linalg.norm(chord))
    if norm == 0.0:
        raise DegenerateGeometry(f"coincident pixels {pa.tolist()} define no line")
    direction = chord / norm
    pp = intrinsics.pp
    foot = pa + ((pp - pa) @ direction) * direction
    depth = float(np.hypot(np.linalg.norm(foot - pp), intrinsics.focal_px))
    return LineAngleFrame(foot=foot, direction=direction, depth=depth)
