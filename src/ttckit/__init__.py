"""Monocular collision-plane motion estimation from sparse point tracks.

The toolkit treats every tracked image point as defining a collision
plane: the plane through the 3D point whose normal is the point's
relative motion. From two or three image observations plus the epipole
of that motion it recovers, without any depth measurement:

* k, the number of frames until the plane sweeps the camera center
  (a real-valued time to collision), and
* H, the lateral miss distance in units of per-frame displacement.

Modules:

* camera: pinhole model, coordinate conventions, exact pixel-to-angle
  maps along arbitrary image lines.
* ttc: the core two-frame collision decomposition and motion
  classification.
* epipole: epipole estimators (horizon intersection, least squares,
  three-frame offset) and horizon calibration.
* clustering: RANSAC segmentation of flows into independent motions.
* simulate: synthetic constant-velocity scenes with analytic ground
  truth, plus collision maps over velocity changes.
* stereo: stereo depth error model and the stereo-vs-monocular
  sensitivity sweep.
* fileio: track CSV, scenario JSON, and result document formats.
* cli: the ``ttckit`` command-line interface.

Only point tracks are consumed; feature detection, matching, and any
rotation compensation are out of scope.
"""

from .camera import (
    CameraIntrinsics,
    LineAngleFrame,
    line_angle_frame,
    project,
)
from .clustering import ClusteringConfig, MotionCluster, cluster_flows
from .epipole import (
    Epipole,
    EpipoleMethod,
    FlowVector,
    HorizonLine,
    calibrate_horizon,
    epipole_least_squares,
    epipole_offset_three_frames,
    planar_epipole,
)
from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    DegenerateFlow,
    DegenerateGeometry,
    InsufficientData,
    InvalidInput,
    ParallelToHorizon,
    SingularGeometry,
    StationaryPoint,
    TtcError,
)
from .simulate import (
    CollisionMap,
    GridSpec,
    GroundTruth,
    PointTruth,
    SceneObject,
    Scenario,
    collision_map,
    point_truth,
    simulate,
)
from .stereo import (
    SensitivityRow,
    SensitivityTable,
    StereoErrorModel,
    disparity_px,
    focal_px_from_metric,
    orientation_error_sweep,
    preset_approach_45deg,
    stereo_depth_error,
)
from .ttc import (
    CollisionEstimate,
    MotionClass,
    TrackObservation,
    classify_motion,
    collision_estimate,
    ttc_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BehindCamera",
    "CameraIntrinsics",
    "ClusteringConfig",
    "CollisionEstimate",
    "CollisionMap",
    "DegenerateConfiguration",
    "DegenerateFlow",
    "DegenerateGeometry",
    "Epipole",
    "EpipoleMethod",
    "FlowVector",
    "GridSpec",
    "GroundTruth",
    "HorizonLine",
    "InsufficientData",
    "InvalidInput",
    "LineAngleFrame",
    "MotionClass",
    "MotionCluster",
    "ParallelToHorizon",
    "PointTruth",
    "SceneObject",
    "Scenario",
    "SensitivityRow",
    "SensitivityTable",
    "SingularGeometry",
    "StationaryPoint",
    "StereoErrorModel",
    "TrackObservation",
    "TtcError",
    "calibrate_horizon",
    "classify_motion",
    "cluster_flows",
    "collision_estimate",
    "collision_map",
    "disparity_px",
    "epipole_least_squares",
    "epipole_offset_three_frames",
    "focal_px_from_metric",
    "line_angle_frame",
    "orientation_error_sweep",
    "planar_epipole",
    "point_truth",
    "preset_approach_45deg",
    "project",
    "simulate",
    "stereo_depth_error",
    "ttc_batch",
]
