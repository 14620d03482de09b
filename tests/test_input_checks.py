"""Input checks of the public constructors and functions: each rejects a
malformed value with its own exception and message, every scalar number
goes through one rule of its kind (errors._real, errors._count), and every
array of points through one (camera._rows)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import (
    BehindCamera,
    CameraIntrinsics,
    ClusteringConfig,
    DegenerateFlow,
    DegenerateGeometry,
    Epipole,
    EpipoleMethod,
    FlowVector,
    GridSpec,
    HorizonLine,
    InvalidInput,
    Scenario,
    SceneObject,
    StereoErrorModel,
    TrackObservation,
    TrackTable,
    classify_motion,
    cluster_flows,
    collision_estimate,
    collision_map,
    disparity_px,
    focal_px_from_metric,
    line_angle_frame,
    orientation_error_sweep,
    project,
    simulate,
    stereo_depth_error,
    ttc_batch,
)
from ttckit.fileio import read_scenario

NAN, INF = float("nan"), float("inf")
K = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))
RIG = StereoErrorModel(baseline_m=0.15, focal_px=800.0, detection_error_px=0.2, speed_mps=10.0, heading_deg=45.0)
TRACK = TrackObservation.from_positions([[600.0, 300.0], [610.0, 305.0], [620.0, 310.0]])
P0, P1 = np.array([[600.0, 300.0], [500.0, 200.0]]), np.array([[610.0, 305.0], [490.0, 195.0]])


def scenario(**fields):
    """A one-point scene of 3 frames, fields replacing its values."""
    values = dict(
        intrinsics=K, objects=(SceneObject("a", np.array([[1.0, 0.5, 20.0]]), np.array([0.0, 0.0, -1.0])),),
        camera_velocity=np.zeros(3), frame_count=3,
    )
    return Scenario(**{**values, **fields})


def flows():
    """Eight flows of two motions, so a round has more pairs (28) than a
    hypothesis budget of up to 10 and samples them."""
    objects = tuple(
        SceneObject(name, np.array([[x, 0.5, 20.0 + x] for x in (-3.0, -1.0, 1.0, 3.0)]), v)
        for name, v in (("a", np.array([0.2, 0.0, -1.0])), ("b", np.array([-0.4, 0.0, -0.5])))
    )
    tracks, _ = simulate(scenario(objects=objects, frame_count=4))
    return tracks


def read_list_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[1]", encoding="utf-8")
    read_scenario(path)


CASES = [
    (lambda _: CameraIntrinsics(focal_px=800.0, principal_point=(NAN, 1.0)),
     InvalidInput, "principal_point must be a finite 2-vector, got [nan, 1.0]"),
    (lambda _: CameraIntrinsics(focal_px=800.0, principal_point=(0.0, 0.0), image_size=(640.5, 480)),
     InvalidInput, "image_size must be positive integers, got (640.5, 480)"),
    (lambda _: project(np.ones((2, 2)), K),
     InvalidInput, "scene points must be an array of numbers of shape (3,) or (N, 3), got shape (2, 2)"),
    (lambda _: project([0.0, NAN, 10.0], K),
     InvalidInput, "scene points must be finite"),
    (lambda _: line_angle_frame((0.0, 0.0), (10.0, 0.0), K).point_at(math.pi / 2),
     DegenerateGeometry, "angle 1.5707963267948966 maps to a point at infinity on the line"),
    (lambda _: HorizonLine(reference=(0.0, 0.0), direction=[NAN, 1.0]),
     InvalidInput, "direction must be a finite 2-vector, got [nan, 1.0]"),
    (lambda _: SceneObject("a", np.array([[0.0, NAN, 5.0]]), np.zeros(3)),
     InvalidInput, "points must be finite"),
    (lambda _: Scenario(
        intrinsics=K, objects=(SceneObject("a", np.array([[0.0, 0.0, 5.0]]), np.zeros(3)),),
        camera_velocity=[INF, 0.0, 0.0], frame_count=3,
    ), InvalidInput, "camera_velocity must be a finite 3-vector, got [inf, 0.0, 0.0]"),
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
    # frames given as a numpy array, printed as a Python list; the id says an array went in
    pytest.param(lambda _: TrackObservation(frames=np.array([1e20, 2e20]), positions=np.zeros((2, 2))),
                 InvalidInput, "frame indices must be 64-bit integers, got [1e+20, 2e+20]",
                 id="frame indices must be 64-bit integers, got array [1e+20, 2e+20]"),
    pytest.param(lambda _: TrackObservation(frames=np.array([0.0, NAN]), positions=np.zeros((2, 2))),
                 InvalidInput, "frame indices must be 64-bit integers, got [0.0, nan]",
                 id="frame indices must be 64-bit integers, got array [0.0, nan]"),
    # a count, a real and a vector, each by its one rule
    (lambda _: ClusteringConfig(max_iterations=2.5),
     InvalidInput, "max_iterations must be an integer >= 1, got 2.5"),
    (lambda _: ClusteringConfig(max_iterations=INF),
     InvalidInput, "max_iterations must be an integer >= 1, got inf"),
    (lambda _: ClusteringConfig(min_cluster_size=NAN),
     InvalidInput, "min_cluster_size must be an integer >= 3, got nan"),
    (lambda _: ClusteringConfig(min_cluster_size=3.5),
     InvalidInput, "min_cluster_size must be an integer >= 3, got 3.5"),
    (lambda _: ClusteringConfig(eps_dist="x"),
     InvalidInput, "eps_dist must be finite, got 'x'"),
    (lambda _: orientation_error_sweep(RIG, [20.0], track_frames=2.5),
     InvalidInput, "track_frames must be an integer >= 2, got 2.5"),
    (lambda _: orientation_error_sweep(RIG, [20.0], trials=NAN),
     InvalidInput, "trials must be an integer >= 1, got nan"),
    (lambda _: collision_estimate(TRACK, (640.0, 360.0), K, pair_index=0.5),
     InvalidInput, "pair_index must be a non-negative integer, got 0.5"),
    (lambda _: GridSpec(None, 1.0),
     InvalidInput, "lateral_extent must be finite, got None"),
    (lambda _: collision_map(scenario(), GridSpec(1.0, 1.0), collision_radius=None),
     InvalidInput, "collision_radius must be finite, got None"),
    (lambda _: scenario(pixel_noise_sigma=None),
     InvalidInput, "pixel_noise_sigma must be finite, got None"),
    (lambda _: StereoErrorModel("x", 800.0, 0.2, 10.0, 45.0),
     InvalidInput, "baseline_m must be finite, got 'x'"),
    (lambda _: CameraIntrinsics(800.0, (0.0, 0.0, 1.0)),
     InvalidInput, "principal_point must be a finite 2-vector, got [0.0, 0.0, 1.0]"),
    (lambda _: CameraIntrinsics(800.0, None),
     InvalidInput, "principal_point must be a finite 2-vector, got None"),
    (lambda _: CameraIntrinsics(10**400, (0.0, 0.0)),
     InvalidInput, "focal_px is too large for float64"),
    (lambda _: SceneObject("a", np.array([[0.0, 0.0, 5.0]]), np.float64(1.0)),
     InvalidInput, "velocity must be a finite 3-vector, got 1.0"),
    # a depth: finite and > 0
    (lambda _: disparity_px(RIG, NAN), InvalidInput, "depth must be finite, got nan"),
    (lambda _: stereo_depth_error(RIG, INF), InvalidInput, "depth must be finite, got inf"),
    (lambda _: stereo_depth_error(RIG, "x"), InvalidInput, "depth must be finite, got 'x'"),
    (lambda _: disparity_px(RIG, np.array([20.0, -INF])), InvalidInput, "depth must be finite, got -inf"),
    (lambda _: stereo_depth_error(RIG, np.array([20.0, 0.0])), InvalidInput, "depth must be > 0, got 0.0"),
    # a frame count whose render arrays numpy cannot index, rejected before any allocation
    (lambda _: simulate(scenario(frame_count=2**63)), InvalidInput,
     "frame_count 9223372036854775808 is too large: its render arrays would exceed 9223372036854775807 bytes"),
    (lambda _: simulate(scenario(frame_count=2**62)), InvalidInput,
     "frame_count 4611686018427387904 is too large: its render arrays would exceed 9223372036854775807 bytes"),
    (lambda _: simulate(scenario(frame_count=10**20)), InvalidInput,
     "frame_count 100000000000000000000 is too large: its render arrays would exceed 9223372036854775807 bytes"),
    # a step so short that k's denominator, its square, underflows
    (lambda _: orientation_error_sweep(RIG, [20.0], frame_dt=1e-200, trials=3),
     InvalidInput, "frame_dt 1e-200 s at 10.0 m/s: the step's square underflows float64"),
    # messages print Python values, not numpy's
    (lambda _: project([0.0, 0.0, -1.0], K),
     BehindCamera, "cannot project point with Z <= 0: [0.0, 0.0, -1.0]"),
    (lambda _: line_angle_frame((1.0, 2.0), (1.0, 2.0), K),
     DegenerateGeometry, "coincident pixels [1.0, 2.0] define no line"),
    # image_size and allow_off_center by CameraIntrinsics' own rules
    (lambda _: CameraIntrinsics(800.0, (0.0, 0.0), image_size=5),
     InvalidInput, "image_size must be positive integers, got 5"),
    (lambda _: CameraIntrinsics(800.0, (0.0, 0.0), image_size=(640,)),
     InvalidInput, "image_size must be positive integers, got (640,)"),
    (lambda _: CameraIntrinsics(800.0, (900.0, 0.0), (640, 480), allow_off_center="false"),
     InvalidInput, "allow_off_center must be a boolean, got 'false'"),
    (lambda _: CameraIntrinsics(800.0, (900.0, 0.0), (640, 480), allow_off_center=[0]),
     InvalidInput, "allow_off_center must be a boolean, got [0]"),
    # an array of points by its one rule, named by its field, never printed
    (lambda _: SceneObject("a", "x", np.zeros(3)),
     InvalidInput, "points must be an array of numbers of shape (N, 3)"),
    pytest.param(lambda _: SceneObject("a", [[1.0, 0.0, 5.0], [1.0]], np.zeros(3)),
                 InvalidInput, "points must be an array of numbers of shape (N, 3)", id="points ragged"),
    (lambda _: SceneObject("a", [[1.0, 10**400, 5.0]], np.zeros(3)),
     InvalidInput, "points has a number too large for float64"),
    (lambda _: SceneObject("a", np.zeros((0, 3)), np.zeros(3)),
     InvalidInput, "points must hold at least one point"),
    (lambda _: TrackObservation((0, 1), "x"),
     InvalidInput, "track positions must be an array of numbers of shape (N, 2)"),
    pytest.param(lambda _: TrackObservation.from_positions("x"),
                 InvalidInput, "track positions must be an array of numbers of shape (N, 2)",
                 id="from_positions not an array"),
    (lambda _: TrackObservation((0, 1), [[0.0, 0.0], [10**400, 1.0]]),
     InvalidInput, "track positions has a number too large for float64"),
    (lambda _: project("x", K),
     InvalidInput, "scene points must be an array of numbers of shape (3,) or (N, 3)"),
    (lambda _: project([10**400, 0.0, 1.0], K),
     InvalidInput, "scene points has a number too large for float64"),
    # a point almost on the image plane, whose pixel overflows, without a warning
    (lambda _: project([[1.0, 0.0, 5.0], [1.0, 0.0, 5e-324]], K),
     InvalidInput, "the pixel of scene point 1 overflows float64"),
    (lambda _: ttc_batch("x", P1, (640.0, 360.0), K),
     InvalidInput, "p0 must be an array of numbers of shape (N, 2)"),
    (lambda _: ttc_batch(P0, P1, "x", K),
     InvalidInput, "epipole must be an array of numbers of shape (2,) or (N, 2)"),
    (lambda _: ttc_batch(P0, [[610.0, NAN], [490.0, 195.0]], (640.0, 360.0), K),
     InvalidInput, "p1 must be finite"),
    (lambda _: ttc_batch(P0, P1, np.zeros((3, 2)), K),
     InvalidInput, "p0, p1 and epipole must have matching rows, got shapes (2, 2), (2, 2) and (3, 2)"),
    # a frame pair or a frame of a track by index
    (lambda _: FlowVector.from_track(TRACK, -1),
     InvalidInput, "pair_index must be a non-negative integer, got -1"),
    (lambda _: FlowVector.from_track(TRACK, 1.5),
     InvalidInput, "pair_index must be a non-negative integer, got 1.5"),
    (lambda _: FlowVector.from_track(TRACK, 2),
     InvalidInput, "pair_index 2 out of range for 3 frames"),
    (lambda _: TRACK.pixel(1.5),
     InvalidInput, "frame index must be an integer from -3 to 2, got 1.5"),
    (lambda _: TRACK.pixel("x"),
     InvalidInput, "frame index must be an integer from -3 to 2, got 'x'"),
    (lambda _: TRACK.pixel(3),
     InvalidInput, "frame index must be an integer from -3 to 2, got 3"),
    # a sweep step whose square overflows, rejected without a warning
    (lambda _: orientation_error_sweep(RIG, [20.0], frame_dt=1e308, trials=3),
     InvalidInput, "frame_dt 1e+308 s at 10.0 m/s: the step's square overflows float64"),
]


@pytest.mark.parametrize("call, error, message", CASES, ids=[getattr(case, "id", None) or case[2] for case in CASES])
def test_rejected_with_its_message(call, error, message, tmp_path):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_collision_map_lookahead_past_float64():
    """A frame count float() overflows on is a lookahead as long as any."""
    far, farther = (collision_map(scenario(frame_count=n), GridSpec(1.0, 1.0, 3, 3)) for n in (10**300, 10**400))
    assert far.collision.any() and np.array_equal(far.collision, farther.collision)


def test_disparity_past_float64_is_inf_without_a_warning():
    assert disparity_px(RIG, 1e-308) == INF


def test_a_real_or_count_is_stored_as_its_number():
    """A real is whatever float() takes and a count any whole number; the
    converted value is kept."""
    assert ClusteringConfig(eps_dist="2").eps_dist == 2.0
    assert ClusteringConfig(max_iterations=np.float64(7.0)).max_iterations == 7
    assert StereoErrorModel("1", 800, 0.2, 10, 45).baseline_m == 1.0
    assert CameraIntrinsics("800", ("320", 240)) == CameraIntrinsics(800.0, (320.0, 240.0))
    one = collision_estimate(TRACK, (640.0, 360.0), K, pair_index=1)
    assert collision_estimate(TRACK, (640.0, 360.0), K, pair_index=1.0).k == one.k
    assert collision_estimate(TRACK, (640.0, 360.0), K, pair_index=Fraction(2, 2)).k == one.k


FLOWS = flows()
SCENE = scenario()

# every scalar number of a public constructor or function: (site, call)
SITES = {
    "CameraIntrinsics.focal_px": lambda v: CameraIntrinsics(v, (320.0, 240.0)),
    "ClusteringConfig.eps_dist": lambda v: cluster_flows(FLOWS, ClusteringConfig(eps_dist=v), intrinsics=K),
    "ClusteringConfig.eps_ttc": lambda v: cluster_flows(FLOWS, ClusteringConfig(eps_ttc=v), intrinsics=K),
    "ClusteringConfig.max_iterations":
        lambda v: cluster_flows(FLOWS, ClusteringConfig(max_iterations=v), intrinsics=K),
    "ClusteringConfig.min_cluster_size":
        lambda v: cluster_flows(FLOWS, ClusteringConfig(min_cluster_size=v), intrinsics=K),
    "Epipole.residual": lambda v: Epipole((0.0, 0.0), EpipoleMethod.LEAST_SQUARES, residual=v),
    "Scenario.frame_count": lambda v: simulate(scenario(frame_count=v)),
    "Scenario.pixel_noise_sigma": lambda v: simulate(scenario(pixel_noise_sigma=v)),
    "collision_map.frame_count": lambda v: collision_map(scenario(frame_count=v), GridSpec(1.0, 1.0, 3, 3)),
    "GridSpec.lateral_extent": lambda v: collision_map(SCENE, GridSpec(v, 1.0, 3, 3)),
    "GridSpec.forward_extent": lambda v: collision_map(SCENE, GridSpec(1.0, v, 3, 3)),
    "collision_map.collision_radius": lambda v: collision_map(SCENE, GridSpec(1.0, 1.0, 3, 3), v),
    "focal_px_from_metric.focal_mm": lambda v: focal_px_from_metric(v, 10.0),
    "focal_px_from_metric.pixel_pitch_um": lambda v: focal_px_from_metric(8.0, v),
    **{
        f"StereoErrorModel.{field}": (lambda field: lambda v: StereoErrorModel(**{**RIG.__dict__, field: v}))(field)
        for field in ("baseline_m", "focal_px", "detection_error_px", "speed_mps", "heading_deg")
    },
    "orientation_error_sweep.frame_dt": lambda v: orientation_error_sweep(RIG, [20.0], frame_dt=v, trials=3),
    "orientation_error_sweep.z_values": lambda v: orientation_error_sweep(RIG, [v], trials=3),
    "orientation_error_sweep.track_frames":
        lambda v: orientation_error_sweep(RIG, [20.0], track_frames=v, trials=3),
    "orientation_error_sweep.trials": lambda v: orientation_error_sweep(RIG, [20.0], trials=v),
    "collision_estimate.pair_index": lambda v: collision_estimate(TRACK, (640.0, 360.0), K, pair_index=v),
    "classify_motion.eps_px": lambda v: classify_motion(TRACK, (640.0, 360.0), eps_px=v),
    "LineAngleFrame.point_at": lambda v: line_angle_frame((0.0, 0.0), (10.0, 0.0), K).point_at(v),
    "disparity_px.z_m": lambda v: disparity_px(RIG, v),
    "stereo_depth_error.z_m": lambda v: stereo_depth_error(RIG, v),
}

HOSTILE = [NAN, INF, -INF, None, "x", 10**400, -(10**400), np.float64(2.5), np.float64(NAN), np.int64(7), np.int64(-1)]
# valid counts only up to 10: a valid but huge trials or track_frames allocates
NUMBERS = st.one_of(
    st.sampled_from(HOSTILE),
    st.integers(-3, 10),
    st.fractions(-3, 10, max_denominator=4),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(sorted(SITES)), value=NUMBERS)
@example(site="ClusteringConfig.max_iterations", value=2.5)
@example(site="ClusteringConfig.max_iterations", value=INF)
@example(site="ClusteringConfig.min_cluster_size", value=NAN)
@example(site="ClusteringConfig.min_cluster_size", value=3.5)
@example(site="ClusteringConfig.eps_dist", value="2")
@example(site="orientation_error_sweep.track_frames", value=2.5)
@example(site="orientation_error_sweep.trials", value=NAN)
@example(site="orientation_error_sweep.trials", value=10**400)
@example(site="orientation_error_sweep.track_frames", value=10**400)
@example(site="collision_estimate.pair_index", value=1.0)
@example(site="StereoErrorModel.baseline_m", value="1")
@example(site="GridSpec.lateral_extent", value=None)
@example(site="collision_map.collision_radius", value=None)
@example(site="Scenario.pixel_noise_sigma", value=None)
@example(site="CameraIntrinsics.focal_px", value=10**400)
@example(site="Scenario.frame_count", value=2**63)
@example(site="Scenario.frame_count", value=2**62)
@example(site="Scenario.frame_count", value=10**20)
@example(site="collision_map.frame_count", value=10**400)
@example(site="orientation_error_sweep.frame_dt", value=6.3691073959950386e-189)
@example(site="disparity_px.z_m", value=NAN)
@example(site="disparity_px.z_m", value=1.1125369292536007e-308)
@example(site="stereo_depth_error.z_m", value=INF)
@example(site="stereo_depth_error.z_m", value="x")
def test_every_scalar_site_returns_or_raises_invalid_input(site, value):
    """One number at a time, hostile or not: the call returns, or it
    raises InvalidInput with a one-line message."""
    try:
        SITES[site](value)
    except InvalidInput as exc:
        assert type(exc) is InvalidInput
        assert "\n" not in str(exc) and str(exc)


def test_a_track_index_counts_from_the_end_when_negative():
    assert np.array_equal(TRACK.pixel(-1), TRACK.pixel(2)) and np.array_equal(TRACK.pixel(np.int64(-3)), [600.0, 300.0])
    flow = FlowVector.from_track(TRACK, 1.0)
    assert np.array_equal(flow.p, TRACK.pixel(1)) and np.array_equal(flow.p_prime, TRACK.pixel(2))


# every array of a public constructor or function, an array of points or
# a short vector: (site, call)
ARRAY_SITES = {
    "SceneObject.points": lambda v: SceneObject("a", v, np.zeros(3)),
    "SceneObject.velocity": lambda v: SceneObject("a", [[0.0, 0.0, 5.0]], v),
    "Scenario.camera_velocity": lambda v: scenario(camera_velocity=v),
    "TrackObservation.positions": lambda v: TrackObservation((0, 1), v),
    "TrackObservation.from_positions": lambda v: TrackObservation.from_positions(v),
    "project": lambda v: project(v, K),
    "ttc_batch.p0": lambda v: ttc_batch(v, P1, (640.0, 360.0), K),
    "ttc_batch.p1": lambda v: ttc_batch(P0, v, (640.0, 360.0), K),
    "ttc_batch.epipole": lambda v: ttc_batch(P0, P1, v, K),
    "as_pixel": lambda v: classify_motion(TRACK, v),
    "CameraIntrinsics.principal_point": lambda v: CameraIntrinsics(800.0, v),
    "CameraIntrinsics.image_size": lambda v: CameraIntrinsics(800.0, (0.0, 0.0), v, allow_off_center=True),
    "CameraIntrinsics.allow_off_center": lambda v: CameraIntrinsics(800.0, (900.0, 0.0), (640, 480), v),
}

# entries of any kind: hostile ones, and plain numbers to build shapes
# right and wrong; no positive number is below 1, so no pixel of project
# overflows
ENTRIES = st.sampled_from([NAN, INF, -INF, None, "x", "1", 10**400, -(10**400), True, 0.0, 1.0, -2.5, 5.0, 20.0])
ARRAYS = st.one_of(
    st.sampled_from([[], [[]], [[], 1], [1, []], [[1.0, 0.0, 5.0], [1.0]], "x", {}, None, NAN, 10**400, True]),
    ENTRIES,
    st.lists(ENTRIES, max_size=4),
    st.lists(st.lists(ENTRIES, max_size=4), max_size=4),
    st.lists(st.lists(ENTRIES, min_size=3, max_size=3), min_size=1, max_size=3).map(
        lambda rows: np.array(rows, dtype=object)),
    st.sampled_from([np.zeros((2, 2)), np.ones((2, 3)), np.ones(3), np.full((2, 2), NAN), np.zeros((1, 2, 3))]),
)


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(sorted(ARRAY_SITES)), value=ARRAYS)
@example(site="SceneObject.points", value=[[], 1])
@example(site="SceneObject.points", value=[[1.0, 10**400, 5.0]])
@example(site="TrackObservation.positions", value="x")
@example(site="TrackObservation.from_positions", value="x")
@example(site="TrackObservation.positions", value=[[0.0, 0.0], [10**400, 1.0]])
@example(site="project", value="x")
@example(site="project", value=[10**400, 0.0, 1.0])
@example(site="ttc_batch.p0", value="x")
@example(site="ttc_batch.epipole", value="x")
@example(site="CameraIntrinsics.image_size", value=5)
@example(site="CameraIntrinsics.image_size", value=[[], 1])
@example(site="CameraIntrinsics.allow_off_center", value="false")
def test_every_array_site_returns_or_raises_invalid_input(site, value):
    """One array at a time, hostile or not: the call returns, or it
    raises InvalidInput (project on a point with Z <= 0, BehindCamera)
    with a one-line message."""
    try:
        ARRAY_SITES[site](value)
    except (InvalidInput, BehindCamera) as exc:
        assert type(exc) is InvalidInput or (site == "project" and type(exc) is BehindCamera)
        assert "\n" not in str(exc) and str(exc)
