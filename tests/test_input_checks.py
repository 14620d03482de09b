"""Input checks of the public constructors and functions: each rejects a
malformed value with its own exception and message."""

import math

import numpy as np
import pytest

from ttckit import (
    CameraIntrinsics,
    DegenerateFlow,
    DegenerateGeometry,
    GridSpec,
    HorizonLine,
    InvalidInput,
    Scenario,
    SceneObject,
    TrackObservation,
    TrackTable,
    cluster_flows,
    collision_estimate,
    line_angle_frame,
    project,
)
from ttckit.fileio import read_scenario

NAN, INF = float("nan"), float("inf")
K = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))


def read_list_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[1]", encoding="utf-8")
    read_scenario(path)


CASES = [
    (lambda _: CameraIntrinsics(focal_px=800.0, principal_point=(NAN, 1.0)),
     InvalidInput, "principal point must be finite, got (nan, 1.0)"),
    (lambda _: CameraIntrinsics(focal_px=800.0, principal_point=(0.0, 0.0), image_size=(640.5, 480)),
     InvalidInput, "image_size must be positive integers, got (640.5, 480)"),
    (lambda _: project(np.ones((2, 2)), K),
     InvalidInput, "expected shape (3,) or (N, 3), got (2, 2)"),
    (lambda _: project([0.0, NAN, 10.0], K),
     InvalidInput, "scene points must be finite"),
    (lambda _: line_angle_frame((0.0, 0.0), (10.0, 0.0), K).point_at(math.pi / 2),
     DegenerateGeometry, "angle 1.5707963267948966 maps to a point at infinity on the line"),
    (lambda _: HorizonLine(reference=(0.0, 0.0), direction=[NAN, 1.0]),
     InvalidInput, "direction must be a finite 2-vector, got [nan  1.]"),
    (lambda _: SceneObject("a", np.array([[0.0, NAN, 5.0]]), np.zeros(3)),
     InvalidInput, "points must be finite"),
    (lambda _: Scenario(
        intrinsics=K, objects=(SceneObject("a", np.array([[0.0, 0.0, 5.0]]), np.zeros(3)),),
        camera_velocity=[INF, 0.0, 0.0], frame_count=3,
    ), InvalidInput, "camera_velocity must be a finite 3-vector, got [inf  0.  0.]"),
    (lambda _: TrackObservation.from_positions([[0, 0], [NAN, 1]]),
     InvalidInput, "track positions must be finite"),
    (lambda _: TrackObservation(frames=[0.5, 1.5], positions=np.zeros((2, 2))),
     InvalidInput, "frame indices must be 64-bit integers, got [0.5, 1.5]"),
    (lambda _: TrackObservation(frames=[2**63, 2**63 + 1], positions=np.zeros((2, 2))),
     InvalidInput, "frame indices must be 64-bit integers, got [9223372036854775808, 9223372036854775809]"),
    (lambda _: collision_estimate(
        TrackObservation.from_positions([[600.0, 300.0], [610.0, 305.0]]), (640.0, 360.0), K, pair_index=1
    ), InvalidInput, "pair_index 1 out of range for 2 frames"),
    (read_list_scenario,
     InvalidInput, "scenario: top level must be an object"),
    (lambda _: cluster_flows(
        TrackTable(np.array([0]), np.array([[0.0, 0.0]]), np.array([0]), np.array([1])), intrinsics=K
    ),
     InvalidInput, "every track needs at least 2 frames to derive a flow"),
    (lambda _: cluster_flows([TrackObservation.from_positions([[0.0, 0.0], [0.0, 0.0]])] * 3, intrinsics=K),
     DegenerateFlow, "zero displacement at pixel [0.0, 0.0]"),
    (lambda _: Scenario(intrinsics=K, objects=(), camera_velocity=np.zeros(3), frame_count=INF),
     InvalidInput, "frame_count must be an integer >= 2, got inf"),
    (lambda _: Scenario(intrinsics=K, objects=(), camera_velocity=np.zeros(3), frame_count=NAN),
     InvalidInput, "frame_count must be an integer >= 2, got nan"),
    (lambda _: GridSpec(1.0, 1.0, INF, 3),
     InvalidInput, "lateral_cells must be an odd positive integer, got inf"),
    (lambda _: CameraIntrinsics(800.0, (0.0, 0.0), (NAN, 3)),
     InvalidInput, "image_size must be positive integers, got (nan, 3)"),
    (lambda _: TrackObservation(frames=np.array([1e20, 2e20]), positions=np.zeros((2, 2))),
     InvalidInput, "frame indices must be 64-bit integers, got array([1.e+20, 2.e+20])"),
    (lambda _: TrackObservation(frames=np.array([0.0, NAN]), positions=np.zeros((2, 2))),
     InvalidInput, "frame indices must be 64-bit integers, got array([ 0., nan])"),
]


@pytest.mark.parametrize("call, error, message", CASES, ids=[message for _, _, message in CASES])
def test_rejected_with_its_message(call, error, message, tmp_path):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    assert str(raised.value) == message
