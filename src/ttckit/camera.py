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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DegenerateGeometry, InvalidInput

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
    p = getattr(p, "position", p)
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (2,):
        raise InvalidInput(f"pixel point must have shape (2,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"pixel point must be finite, got {arr}")
    return arr


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
        focal_px: focal length in pixels; must be > 0.
        principal_point: (u0, v0) in pixels.
        image_size: (width, height) in pixels, or None when unknown.
            With a size given, the principal point must lie inside
            [0, width] x [0, height] unless allow_off_center is set.
        allow_off_center: permit a principal point outside the image.

    The focal length is always in pixels. Metric focal lengths must be
    converted by the caller with an explicit pixel pitch; see
    :func:`ttckit.stereo.focal_px_from_metric`.
    """

    focal_px: float
    principal_point: tuple[float, float]
    image_size: tuple[int, int] | None = None
    allow_off_center: bool = False

    def __post_init__(self):
        f = float(self.focal_px)
        if not np.isfinite(f) or f <= 0.0:
            raise InvalidInput(f"focal_px must be positive and finite, got {self.focal_px}")
        u0, v0 = (float(c) for c in self.principal_point)
        if not (np.isfinite(u0) and np.isfinite(v0)):
            raise InvalidInput(f"principal point must be finite, got {self.principal_point}")
        object.__setattr__(self, "focal_px", f)
        object.__setattr__(self, "principal_point", (u0, v0))
        if self.image_size is not None:
            w, h = self.image_size
            if int(w) != w or int(h) != h or w <= 0 or h <= 0:
                raise InvalidInput(f"image_size must be positive integers, got {self.image_size}")
            object.__setattr__(self, "image_size", (int(w), int(h)))
            inside = 0.0 <= u0 <= w and 0.0 <= v0 <= h
            if not inside and not self.allow_off_center:
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
        InvalidInput: non-finite or wrongly shaped input.
    """
    pts = np.asarray(point, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInput(f"expected shape (3,) or (N, 3), got {np.shape(point)}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("scene points must be finite")
    z = pts[:, 2]
    if np.any(z <= 0.0):
        bad = pts[z <= 0.0][0]
        raise BehindCamera(f"cannot project point with Z <= 0: {bad}")
    uv = intrinsics.pp + intrinsics.focal_px * pts[:, :2] / z[:, np.newaxis]
    return uv[0] if single else uv


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
        """
        a = float(angle)
        if abs(np.cos(a)) < 1e-12:
            raise DegenerateGeometry(f"angle {a} maps to a point at infinity on the line")
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
        raise DegenerateGeometry(f"coincident pixels {pa} define no line")
    direction = chord / norm
    pp = intrinsics.pp
    foot = pa + ((pp - pa) @ direction) * direction
    depth = float(np.hypot(np.linalg.norm(foot - pp), intrinsics.focal_px))
    return LineAngleFrame(foot=foot, direction=direction, depth=depth)
