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
from .errors import InvalidInput, _valid_seed
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

# Sweep preset: small automotive stereo rig, object crossing at 45
# degrees with 50 km/h. Pixel pitch stays caller-supplied; the metric
# focal length cannot become pixels without it.
PRESET_BASELINE_M = 0.15
PRESET_FOCAL_MM = 8.0
PRESET_DETECTION_ERROR_PX = 0.2
PRESET_SPEED_KMH = 50.0
PRESET_HEADING_DEG = 45.0

# Height of the swept point below the camera axis, meters. It must be
# nonzero: at 0 every flow line would be the horizon.
_HEIGHT_OFFSET_M = 2.0


def focal_px_from_metric(focal_mm: float, pixel_pitch_um: float) -> float:
    """Convert a metric focal length to pixels via the sensor pixel pitch."""
    for name, value in (("focal_mm", focal_mm), ("pixel_pitch_um", pixel_pitch_um)):
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value}")
    if focal_mm <= 0.0 or pixel_pitch_um <= 0.0:
        raise InvalidInput("focal_mm and pixel_pitch_um must be > 0")
    return float(focal_mm * 1000.0 / pixel_pitch_um)


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

    Every field must be finite; NaN or infinity raises InvalidInput.
    """

    baseline_m: float
    focal_px: float
    detection_error_px: float
    speed_mps: float
    heading_deg: float

    def __post_init__(self):
        for name in ("baseline_m", "focal_px", "detection_error_px", "speed_mps", "heading_deg"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {getattr(self, name)}")
        if self.baseline_m <= 0.0:
            raise InvalidInput(f"baseline_m must be > 0, got {self.baseline_m}")
        if self.focal_px <= 0.0:
            raise InvalidInput(f"focal_px must be > 0, got {self.focal_px}")
        if self.detection_error_px < 0.0:
            raise InvalidInput(f"detection_error_px must be >= 0, got {self.detection_error_px}")
        if self.speed_mps <= 0.0:
            raise InvalidInput(f"speed_mps must be > 0, got {self.speed_mps}")


def preset_approach_45deg(pixel_pitch_um: float) -> StereoErrorModel:
    """The built-in sweep preset; pixel pitch must be supplied."""
    return StereoErrorModel(
        baseline_m=PRESET_BASELINE_M,
        focal_px=focal_px_from_metric(PRESET_FOCAL_MM, pixel_pitch_um),
        detection_error_px=PRESET_DETECTION_ERROR_PX,
        speed_mps=PRESET_SPEED_KMH / 3.6,
        heading_deg=PRESET_HEADING_DEG,
    )


def disparity_px(model: StereoErrorModel, z_m) -> np.ndarray | float:
    """Stereo disparity B f / Z in pixels."""
    z = np.asarray(z_m, dtype=np.float64)
    if np.any(z <= 0.0):
        raise InvalidInput("depth must be > 0")
    d = model.baseline_m * model.focal_px / z
    return float(d) if np.isscalar(z_m) else d


def stereo_depth_error(model: StereoErrorModel, z_m) -> np.ndarray | float:
    """First-order depth error dZ = Z^2 dp / (B f). Accepts scalars or arrays.

    Evaluated as Z (Z (dp / (B f))), so no Z^2 intermediate overflows: a
    depth whose error fits in float64 gets it, and one whose error does
    not gets inf, without a warning.
    """
    z = np.asarray(z_m, dtype=np.float64)
    if np.any(z <= 0.0):
        raise InvalidInput("depth must be > 0")
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
        z_values: depths in meters, finite.
        frame_dt: seconds per frame, finite and > 0.
        track_frames: observations per segment, >= 2; heading accuracy
            of the monocular method scales with segment length.
        trials: Monte-Carlo repetitions per depth.
        rng_seed: seed, a non-negative integer; identical calls
            reproduce identical tables.

    Returns:
        SensitivityTable with one row per depth.
    """
    rng_seed = _valid_seed(rng_seed, "rng_seed")
    if track_frames < 2:
        raise InvalidInput(f"track_frames must be >= 2, got {track_frames}")
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    if not math.isfinite(frame_dt):
        raise InvalidInput(f"frame_dt must be finite, got {frame_dt}")
    if frame_dt <= 0.0:
        raise InvalidInput(f"frame_dt must be > 0, got {frame_dt}")
    z_values = [float(z) for z in np.atleast_1d(np.asarray(z_values, dtype=np.float64))]
    for z in z_values:
        if not math.isfinite(z):
            raise InvalidInput(f"z_values must be finite, got {z}")

    intr = CameraIntrinsics(focal_px=model.focal_px, principal_point=(0.0, 0.0))
    f = model.focal_px
    theta = math.radians(model.heading_deg)
    v_g = model.speed_mps * np.array([-math.sin(theta), 0.0, -math.cos(theta)])
    step = v_g * frame_dt
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
        # True quantities for this depth.
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
