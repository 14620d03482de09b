"""Stereo depth error model and stereo-vs-monocular sensitivity sweep.

A stereo rig with baseline B and focal length f (pixels) sees an object
at depth Z with disparity d = B f / Z. A detection error of dp pixels on
the disparity propagates to a depth error of

    dZ = Z^2 dp / (B f)

to first order, growing quadratically in Z. Estimating an object's
heading from two triangulated stereo positions therefore degrades fast
with distance: the depth errors soon dwarf the true between-frame
displacement.

The monocular collision-plane alternative never triangulates. It fits
the image flow line of the tracked point and intersects it with the
horizon; the intersection is the epipole of the relative motion, whose
image offset from the principal point encodes the heading directly. Its
accuracy is set by the angular uncertainty of the flow segment, which
stays bounded as Z grows (and improves with segment length), not by Z
squared.

orientation_error_sweep runs both estimators on the same seeded
Monte-Carlo perturbations, all trials of one depth as arrays, and
tabulates the comparison per depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project
from .epipole import HorizonLine, _cut_horizon, _tls_lines
from .errors import InvalidInput, _count, _real
from .presets import (
    PRESET_BASELINE_M,
    PRESET_DETECTION_ERROR_PX,
    PRESET_FOCAL_MM,
    PRESET_HEADING_DEG,
    PRESET_SPEED_KMH,
)
from .ttc import ttc_batch

__all__ = [
    "SensitivityRow",
    "SensitivityTable",
    "StereoErrorModel",
    "disparity_px",
    "focal_px_from_metric",
    "orientation_error_sweep",
    "preset_approach_45deg",
    "stereo_depth_error",
]

# Height of the swept point below the camera axis, meters. It must be
# nonzero: at 0 every flow line would be the horizon.
_HEIGHT_OFFSET_M = 2.0


def focal_px_from_metric(focal_mm: float, pixel_pitch_um: float) -> float:
    """A metric focal length in pixels via the sensor pixel pitch, both reals > 0."""
    return _real(focal_mm, "focal_mm", gt=0) * 1000.0 / _real(pixel_pitch_um, "pixel_pitch_um", gt=0)


@dataclass(frozen=True)
class StereoErrorModel:
    """Stereo rig and object-motion parameters for the sensitivity sweep.

    Attributes:
        baseline_m: stereo baseline B in meters, > 0.
        focal_px: focal length in pixels, > 0.
        detection_error_px: per-detection pixel error dp, >= 0.
        speed_mps: object speed relative to the camera, m/s, > 0.
        heading_deg: motion direction in the horizontal plane, degrees
            from the optical axis (0 = head-on).

    Each field is a real (errors._real) within its bound, stored as a float.
    """

    baseline_m: float
    focal_px: float
    detection_error_px: float
    speed_mps: float
    heading_deg: float

    def __post_init__(self):
        for name, bound in (("baseline_m", "gt"), ("focal_px", "gt"), ("detection_error_px", "ge"), ("speed_mps", "gt")):
            object.__setattr__(self, name, _real(getattr(self, name), name, **{bound: 0}))
        object.__setattr__(self, "heading_deg", _real(self.heading_deg, "heading_deg"))


def preset_approach_45deg(pixel_pitch_um: float) -> StereoErrorModel:
    """The built-in sweep preset; pixel pitch must be supplied."""
    return StereoErrorModel(
        baseline_m=PRESET_BASELINE_M,
        focal_px=focal_px_from_metric(PRESET_FOCAL_MM, pixel_pitch_um),
        detection_error_px=PRESET_DETECTION_ERROR_PX,
        speed_mps=PRESET_SPEED_KMH / 3.6,
        heading_deg=PRESET_HEADING_DEG,
    )


def _depths(z_m) -> np.ndarray:
    """z_m, a depth or an array of them, as float64; the module's one depth
    rule: InvalidInput from errors._real for the first that is not > 0."""
    try:
        z = np.asarray(z_m, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        z = np.asarray(_real(z_m, "depth", gt=0))
    bad = ~np.isfinite(z) | (z <= 0.0)
    if bad.any():
        _real(z[bad][0], "depth", gt=0)
    return z


def disparity_px(model: StereoErrorModel, z_m) -> np.ndarray | float:
    """Stereo disparity B f / Z in pixels, of finite depths Z > 0; one
    too large for float64 (a tiny Z) is inf, without a warning."""
    z = _depths(z_m)
    with np.errstate(over="ignore"):
        d = model.baseline_m * model.focal_px / z
    return float(d) if np.isscalar(z_m) else d


def stereo_depth_error(model: StereoErrorModel, z_m) -> np.ndarray | float:
    """First-order depth error dZ = Z^2 dp / (B f). Accepts scalars or
    arrays of finite depths Z > 0.

    Evaluated as Z (Z (dp / (B f))), so no Z^2 intermediate overflows: a
    depth whose error fits in float64 gets it, and one whose error does
    not gets inf, without a warning.
    """
    z = _depths(z_m)
    with np.errstate(over="ignore"):
        dz = z * (z * (model.detection_error_px / (model.baseline_m * model.focal_px)))
    return float(dz) if np.isscalar(z_m) else dz


@dataclass(frozen=True)
class SensitivityRow:
    """One depth's comparison of stereo and collision-plane estimates.

    Heading errors are mean absolute errors in degrees over the valid
    Monte-Carlo trials; ttc_error_frames likewise in frames. Trials
    whose perturbed geometry turned degenerate (flow parallel to the
    horizon, non-positive disparity) are excluded from the means and
    counted in degenerate_trials; they are marked, not silently dropped.
    """

    z_m: float
    stereo_depth_error_m: float
    stereo_heading_error_deg: float
    plane_heading_error_deg: float
    ttc_error_frames: float
    degenerate_trials: int


@dataclass(frozen=True)
class SensitivityTable:
    """Sweep output plus the parameters that produced it."""

    rows: tuple[SensitivityRow, ...]
    model: StereoErrorModel
    frame_dt: float
    track_frames: int
    trials: int
    rng_seed: int


def _atan2_deg(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise atan2 in degrees through libm's math.atan2: np.arctan2's
    SIMD kernel, picked per CPU, can differ in the last bit."""
    return np.degrees([math.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())])


def orientation_error_sweep(
    model: StereoErrorModel,
    z_values,
    *,
    frame_dt: float = 1.0 / 12.0,
    track_frames: int = 8,
    trials: int = 200,
    rng_seed: int = 0,
) -> SensitivityTable:
    """Monte-Carlo heading/TTC error comparison per object depth.

    For each depth Z the object starts at (0, _HEIGHT_OFFSET_M, Z), 2 m
    below the camera axis, and translates with model.speed_mps at
    model.heading_deg for track_frames frames of length frame_dt. Each
    trial perturbs every pixel detection with Gaussian noise of scale
    detection_error_px and estimates:

    * stereo heading: triangulate the first two frames from noisy
      left/right detections, take the direction of the position change.
    * collision-plane heading: total-least-squares line through the
      noisy monocular track, intersected with the (known, level)
      horizon; the intersection is the epipole and arctan of its offset
      over the focal length is the heading.
    * TTC: the collision-plane kernel (ttc_batch) on the first and last
      noisy pixels against that epipole.

    One mask drops a degenerate trial (flow line exactly parallel to the
    horizon, non-positive disparity, undefined TTC) from all three means.

    The object must stay in front of the camera for the whole segment;
    too-small Z raises InvalidInput, and so does a Z whose row (its
    depth error or a trial mean) overflows float64, such as Z = 1e160,
    whose depth error does.

    Args:
        model: rig and motion parameters.
        z_values: depths in meters, finite reals.
        frame_dt: seconds per frame, a finite real > 0 whose step,
            speed_mps * frame_dt, has a nonzero finite float64 square.
        track_frames: observations per segment, an integer >= 2; heading
            accuracy of the monocular method scales with segment length.
        trials: Monte-Carlo repetitions per depth, an integer >= 1; with
            track_frames, its noise array must fit numpy's index range.
        rng_seed: seed, a non-negative integer; identical calls
            reproduce identical tables.

    Returns:
        SensitivityTable with one row per depth.
    """
    rng_seed = _count(rng_seed, "rng_seed", 0)
    track_frames = _count(track_frames, "track_frames", 2)
    trials = _count(trials, "trials", 1)
    # the noise array, (trials, 2 * track_frames + 4) float64, is the largest
    limit = np.iinfo(np.intp).max
    if trials * (2 * track_frames + 4) * 8 > limit:
        raise InvalidInput(f"trials {trials} with {track_frames} frames: the noise array would exceed {limit} bytes")
    frame_dt = _real(frame_dt, "frame_dt", gt=0)
    z_values = [_real(z, "z_values") for z in np.atleast_1d(np.asarray(z_values, dtype=object))]

    intr = CameraIntrinsics(focal_px=model.focal_px, principal_point=(0.0, 0.0))
    f = model.focal_px
    theta = math.radians(model.heading_deg)
    v_g = model.speed_mps * np.array([-math.sin(theta), 0.0, -math.cos(theta)])
    with np.errstate(over="ignore"):
        step = v_g * frame_dt
        square = float(step @ step)  # k's denominator; finite only if step is
    if not 0.0 < square < math.inf:
        flow = "underflows" if square == 0.0 else "overflows"
        raise InvalidInput(f"frame_dt {frame_dt} s at {model.speed_mps} m/s: the step's square {flow} float64")
    b = model.baseline_m
    span = track_frames - 1

    rng = np.random.default_rng(rng_seed)
    rows = []
    for z in z_values:
        p_start = np.array([0.0, _HEIGHT_OFFSET_M, z])
        idx = np.arange(track_frames, dtype=np.float64)
        positions = p_start[np.newaxis, :] + idx[:, np.newaxis] * step[np.newaxis, :]
        if positions[-1, 2] <= 0.1:
            raise InvalidInput(
                f"Z = {z} m leaves the segment behind the camera; "
                f"minimum usable depth is {0.1 - span * step[2]:.2f} m"
            )
        pixels_true = project(positions, intr)
        # True quantities for this depth; a k past float64 fails the row below.
        with np.errstate(over="ignore"):
            k_true = float(-(p_start @ step) / (step @ step))
        # One row of noise per trial: the monocular track, then the left
        # and the right detections of the first two frames.
        noise = rng.normal(0.0, model.detection_error_px, size=(trials, 2 * track_frames + 4))
        noisy = pixels_true + noise[:, : 2 * track_frames].reshape(trials, track_frames, 2)
        # Stereo image coordinates: left camera at the origin, right
        # camera baseline b to the +X side, so disparity = u_L - u_R.
        # Heading comes from two consecutive triangulated positions.
        ul = pixels_true[[0, 1], 0] + noise[:, -4:-2]
        ur = intr.u0 + f * (positions[[0, 1], 0] - b) / positions[[0, 1], 2] + noise[:, -2:]
        disp = ul - ur

        # Monocular path: TLS flow line, horizon cut, TTC against that epipole.
        centroid, direction, _ = _tls_lines(noisy)
        e_px, sin = _cut_horizon(centroid, direction, HorizonLine.level(intr.v0))
        valid = (np.abs(sin) >= 1e-12) & np.all(disp > 1e-9, axis=1)
        k = np.full(trials, np.nan)
        k[valid], _ = ttc_batch(noisy[valid, 0], noisy[valid, -1], e_px[valid], intr)
        valid &= np.isfinite(k)

        # Stereo path: triangulate both frames, heading of the change.
        with np.errstate(divide="ignore", invalid="ignore"):
            z_est = b * f / disp
            x_est = (ul - intr.u0) * z_est / f
        heading_st = _atan2_deg(-(x_est[:, 1] - x_est[:, 0]), -(z_est[:, 1] - z_est[:, 0]))
        err = np.abs(heading_st - model.heading_deg) % 360.0
        with np.errstate(over="ignore"):
            errors = (
                np.minimum(err, 360.0 - err),
                np.abs(_atan2_deg(e_px[:, 0] - intr.u0, np.full(trials, f)) - model.heading_deg),
                np.abs(k * span - k_true),
            )
            means = [float(np.mean(e[valid])) if valid.any() else float("nan") for e in errors]
            depth_error = float(stereo_depth_error(model, z))
        if not math.isfinite(depth_error) or (valid.any() and not np.isfinite(means).all()):
            raise InvalidInput(f"Z = {z} m: sensitivity row overflows float64")
        rows.append(
            SensitivityRow(
                z_m=z,
                stereo_depth_error_m=depth_error,
                stereo_heading_error_deg=means[0],
                plane_heading_error_deg=means[1],
                ttc_error_frames=means[2],
                degenerate_trials=int(np.count_nonzero(~valid)),
            )
        )
    return SensitivityTable(
        rows=tuple(rows),
        model=model,
        frame_dt=frame_dt,
        track_frames=track_frames,
        trials=trials,
        rng_seed=rng_seed,
    )
