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
* presets: the rig and motion of the approach-45deg sweep preset.
* fileio: track CSV, scenario JSON, and result document formats.
* cli: the ``ttckit`` command-line interface.

The package imports none of them up front: a public name such as
ttckit.collision_estimate loads its submodule on first use, so a
``ttckit`` command loads only the modules it runs.

Only point tracks are consumed; feature detection, matching, and any
rotation compensation are out of scope.
"""

import importlib
import sys
import types

# each public name, by the submodule that defines it
_NAMES = {
    "camera": ("CameraIntrinsics", "LineAngleFrame", "line_angle_frame", "project"),
    "clustering": ("ClusteringConfig", "MotionCluster", "cluster_flows"),
    "epipole": (
        "Epipole", "EpipoleMethod", "FlowVector", "HorizonLine", "calibrate_horizon",
        "epipole_least_squares", "epipole_offset_three_frames", "planar_epipole",
    ),
    "errors": (
        "BehindCamera", "DegenerateConfiguration", "DegenerateFlow", "DegenerateGeometry",
        "InsufficientData", "InvalidInput", "ParallelToHorizon", "SingularGeometry",
        "StationaryPoint", "TtcError",
    ),
    "simulate": (
        "CollisionMap", "GridSpec", "GroundTruth", "PointTruth", "SceneObject", "Scenario",
        "collision_map", "point_truth", "simulate",
    ),
    "stereo": (
        "SensitivityRow", "SensitivityTable", "StereoErrorModel", "disparity_px",
        "focal_px_from_metric", "orientation_error_sweep", "preset_approach_45deg",
        "stereo_depth_error",
    ),
    "ttc": (
        "CollisionEstimate", "MotionClass", "TrackObservation", "TrackTable",
        "classify_motion", "collision_estimate", "ttc_batch",
    ),
}
_SOURCE = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = ("camera", "cli", "clustering", "epipole", "errors", "fileio", "presets", "simulate", "stereo", "ttc")

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """A public name, imported from its submodule on first use and kept;
    a submodule name, the submodule."""
    module = _SOURCE.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package's module type. Importing the submodule ttckit.simulate
    binds its name on the package, which would hide the public function
    simulate; that one binding is dropped, so ttckit.simulate stays the
    function (the submodule is sys.modules["ttckit.simulate"])."""

    def __setattr__(self, name: str, value) -> None:
        if name == "simulate" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
