"""Epipole estimators: planar intersection, least squares, three-frame offset.

Oracles: intersections solved by hand from line equations, epipoles
recomputed from the generating velocity (oracle_epipole), and the
three-frame offset angle measured directly between the horizon anchor
and the true epipole in the flow-line angle frame.
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import (
    CameraIntrinsics,
    DegenerateConfiguration,
    DegenerateFlow,
    Epipole,
    EpipoleMethod,
    FlowVector,
    HorizonLine,
    InsufficientData,
    InvalidInput,
    ParallelToHorizon,
    SingularGeometry,
    StationaryPoint,
    TrackObservation,
    TrackTable,
    TtcError,
    calibrate_horizon,
    collision_estimate,
    epipole_least_squares,
    epipole_offset_three_frames,
    line_angle_frame,
    orientation_error_sweep,
    planar_epipole,
    preset_approach_45deg,
    project,
    simulate,
)
from ttckit.camera import _unit_rows
from ttckit.errors import _ALL_PARALLEL, _FEW_FRAMES, _ZERO_DISPLACEMENT, _reason_error
from ttckit.epipole import (
    _flow_lines,
    _least_squares_epipole,
    _lines_spread,
    _offset_three_frames,
    _planar_epipoles,
    _tls_lines,
)
from ttckit.ttc import _collision_rows
from conftest import oracle_epipole, oracle_signed_distance, random_approach_scenario, wrap_half_pi


def track_from_point(p0, v_g, intrinsics, n_frames=3):
    """Project a constant-velocity scene point over n frames."""
    p0 = np.asarray(p0, dtype=np.float64)
    v = np.asarray(v_g, dtype=np.float64)
    pix = np.array([project(p0 + t * v, intrinsics) for t in range(n_frames)])
    return TrackObservation(frames=tuple(range(n_frames)), positions=pix)


class TestFlowVector:
    def test_displacement_and_normal(self):
        fl = FlowVector(p=(100.0, 50.0), p_prime=(110.0, 40.0))
        assert fl.t == pytest.approx([10.0, -10.0])
        # normal is the quarter-turn of t, unit length
        assert fl.n == pytest.approx(np.array([10.0, 10.0]) / np.sqrt(200.0))
        assert fl.direction == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2.0))
        assert np.dot(fl.n, fl.t) == pytest.approx(0.0, abs=1e-15)

    def test_zero_displacement_rejected(self):
        with pytest.raises(DegenerateFlow):
            FlowVector(p=(5.0, 5.0), p_prime=(5.0, 5.0))

    def test_from_track_pair_index(self):
        track = TrackObservation(
            frames=(0, 1, 2),
            positions=np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]),
        )
        fl = FlowVector.from_track(track, pair_index=1)
        assert fl.p == pytest.approx([1.0, 0.0])
        assert fl.p_prime == pytest.approx([3.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            FlowVector(p=(np.nan, 0.0), p_prime=(1.0, 1.0))


class TestHorizonLine:
    def test_level_constructor(self):
        hor = HorizonLine.level(240.0)
        assert hor.reference == pytest.approx([0.0, 240.0])
        assert hor.direction == pytest.approx([1.0, 0.0])
        assert hor.fit_residual == 0.0

    def test_slope_intercept_points_lie_on_line(self):
        hor = HorizonLine.from_slope_intercept(0.5, 10.0)
        assert oracle_signed_distance(hor, (2.0, 11.0)) == pytest.approx(0.0, abs=1e-12)
        assert oracle_signed_distance(hor, (-4.0, 8.0)) == pytest.approx(0.0, abs=1e-12)

    def test_signed_distance_hand_value(self):
        hor = HorizonLine.level(10.0)
        # one pixel below the line (larger v) is +1, above is -1
        assert oracle_signed_distance(hor, (123.0, 11.0)) == pytest.approx(1.0)
        assert oracle_signed_distance(hor, (-7.0, 9.0)) == pytest.approx(-1.0)

    def test_direction_normalized(self):
        hor = HorizonLine(reference=(0.0, 0.0), direction=(3.0, 4.0))
        assert hor.direction == pytest.approx([0.6, 0.8])

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidInput):
            HorizonLine(reference=(0.0, 0.0), direction=(0.0, 0.0))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# exact zeros of both signs, spans whose t . t underflows to 0 (1e-170,
# subnormals), and spans far from overflow
flow_component = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-3, 3).map(lambda k: k * 1e-170),
    st.floats(-1e150, 1e150, allow_nan=False),
)
flow_rows = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 640.0, -13.25]), st.sampled_from([0.0, 360.0]),
              flow_component, flow_component),
    min_size=1, max_size=8,
)


class TestUnitRows:
    """camera._unit_rows against the per-row t / np.linalg.norm(t), and
    every flow direction of the epipole module against _unit_rows."""

    @settings(max_examples=300, deadline=None)
    @given(flow_rows)
    @example([(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -0.0, 1e-170), (0.0, 0.0, 1e-170, 2e-170),
              (0.0, 0.0, 5e-324, 0.0), (640.0, 360.0, 3.0, -4.0), (640.0, 360.0, 1e-170, 0.0)])
    def test_flow_directions_equal_per_row_norm(self, rows):
        p = np.array([r[:2] for r in rows], dtype=np.float64)
        q = p + np.array([r[2:] for r in rows], dtype=np.float64)
        t = q - p
        unit, zero = _unit_rows(t)
        for i, row in enumerate(t):
            norm = np.linalg.norm(row)
            assert zero[i] == (norm == 0.0)
            # a zero row keeps its displacement: it has no direction
            assert np.array_equal(bits(unit[i]), bits(row if zero[i] else row / norm))
        normals = np.column_stack([-unit[:, 1], unit[:, 0]])

        for i in range(len(t)):
            if zero[i]:
                with pytest.raises(DegenerateFlow):
                    FlowVector(p[i], q[i])
                with pytest.raises(InvalidInput):
                    HorizonLine(reference=(0.0, 0.0), direction=t[i])
                continue
            flow = FlowVector(p[i], q[i])
            assert np.array_equal(bits(flow.n), bits(normals[i]))
            assert np.array_equal(bits(flow.direction), bits(unit[i]))
            assert np.array_equal(bits(HorizonLine(reference=(0.0, 0.0), direction=t[i]).direction), bits(unit[i]))

        _, code, columns = _planar_epipoles(p, q, HorizonLine.level(360.0))
        assert np.array_equal(bits(columns["direction"]), bits(unit))
        np.testing.assert_array_equal(code == _ZERO_DISPLACEMENT, zero)
        line_normals, _, line_zero = _flow_lines(p, q)
        assert np.array_equal(bits(line_normals), bits(normals))
        np.testing.assert_array_equal(line_zero, zero)


class TestEpipoleRecord:
    def test_negative_residual_rejected(self):
        with pytest.raises(InvalidInput):
            Epipole(position=(0.0, 0.0), method=EpipoleMethod.LEAST_SQUARES, residual=-1.0)

    def test_non_finite_residual_rejected(self):
        with pytest.raises(InvalidInput):
            Epipole(
                position=(0.0, 0.0), method=EpipoleMethod.LEAST_SQUARES, residual=np.nan
            )

    def test_non_finite_position_rejected(self):
        with pytest.raises(InvalidInput):
            Epipole(
                position=(np.inf, 0.0),
                method=EpipoleMethod.HORIZON_INTERSECTION,
            )


class TestPlanarEpipole:
    def test_hand_intersection(self):
        # flow line through (100,50) with direction (1,-1) hits v=0 at u=150
        fl = FlowVector(p=(100.0, 50.0), p_prime=(110.0, 40.0))
        est = planar_epipole(fl, HorizonLine.level(0.0))
        assert est.position == pytest.approx([150.0, 0.0], abs=1e-9)
        assert est.method is EpipoleMethod.HORIZON_INTERSECTION
        assert est.residual == 0.0

    def test_sloped_horizon_intersection(self):
        # v = u meets v = 0.2 u - 10 at u = -12.5
        fl = FlowVector(p=(0.0, 0.0), p_prime=(1.0, 1.0))
        hor = HorizonLine.from_slope_intercept(0.2, -10.0)
        est = planar_epipole(fl, hor)
        assert est.position == pytest.approx([-12.5, -12.5], abs=1e-9)

    def test_matches_velocity_oracle(self, intr800):
        v = np.array([0.3, 0.0, -1.1])
        track = track_from_point([1.2, 0.9, 20.0], v, intr800, n_frames=2)
        fl = FlowVector.from_track(track)
        est = planar_epipole(fl, HorizonLine.level(intr800.v0))
        assert est.position == pytest.approx(oracle_epipole(v, intr800), abs=1e-9)

    def test_parallel_flow_raises(self):
        fl = FlowVector(p=(100.0, 50.0), p_prime=(110.0, 50.0))
        with pytest.raises(ParallelToHorizon):
            planar_epipole(fl, HorizonLine.level(0.0))

    def test_parallel_threshold(self):
        # 0.4 deg from the horizon trips the default 0.5 deg gate; 0.6 deg passes
        for deg, ok in [(0.4, False), (0.6, True)]:
            ang = np.deg2rad(deg)
            fl = FlowVector(
                p=(0.0, 0.0), p_prime=(100.0 * np.cos(ang), 100.0 * np.sin(ang))
            )
            if ok:
                est = planar_epipole(fl, HorizonLine.level(0.0))
                assert est.position == pytest.approx([0.0, 0.0], abs=1e-9)
            else:
                with pytest.raises(ParallelToHorizon) as info:
                    planar_epipole(fl, HorizonLine.level(0.0))
                # the text reaches the message field of estimate documents
                assert str(info.value) == (
                    "flow direction [0.9999756307053947, 0.0069812602979615525] within 0.5 deg of the horizon"
                )


class TestEpipoleLeastSquares:
    def radial_flows(self, center, n=6, scale=1.25, radius=60.0):
        center = np.asarray(center, dtype=np.float64)
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) + 0.3
        flows = []
        for ang in angles:
            p = center + radius * np.array([np.cos(ang), np.sin(ang)])
            flows.append(FlowVector(p=p, p_prime=center + scale * (p - center)))
        return flows

    def test_radial_bundle_origin(self):
        est = epipole_least_squares(self.radial_flows((0.0, 0.0)))
        assert est.position == pytest.approx([0.0, 0.0], abs=1e-9)
        assert est.residual <= 1e-9
        assert est.method is EpipoleMethod.LEAST_SQUARES

    def test_radial_bundle_offset_center(self):
        est = epipole_least_squares(self.radial_flows((150.0, 200.0)))
        assert est.position == pytest.approx([150.0, 200.0], abs=1e-6)
        assert est.residual <= 1e-9

    def test_insufficient_flows(self):
        (fl,) = self.radial_flows((0.0, 0.0), n=1)
        with pytest.raises(InsufficientData):
            epipole_least_squares([fl])

    def test_parallel_bundle_raises(self):
        flows = [
            FlowVector(p=(0.0, 0.0), p_prime=(10.0, 0.0)),
            FlowVector(p=(5.0, 7.0), p_prime=(12.0, 7.0)),
            FlowVector(p=(-3.0, 20.0), p_prime=(4.0, 20.0)),
        ]
        with pytest.raises(SingularGeometry):
            epipole_least_squares(flows)

    def test_order_invariance(self):
        flows = self.radial_flows((40.0, -30.0), n=7)
        a = epipole_least_squares(flows)
        b = epipole_least_squares(flows[::-1])
        assert a.position == pytest.approx(b.position, abs=1e-9)

    def test_duplication_invariance(self):
        flows = self.radial_flows((40.0, -30.0), n=5)
        a = epipole_least_squares(flows)
        b = epipole_least_squares(flows + flows)
        assert a.position == pytest.approx(b.position, abs=1e-9)

    def test_noisy_bundle_residual_reported(self):
        rng = np.random.default_rng(77)
        flows = []
        center = np.array([100.0, 60.0])
        for fl in self.radial_flows(center, n=10, radius=120.0):
            jitter = rng.normal(0.0, 0.5, size=2)
            flows.append(FlowVector(p=fl.p + jitter, p_prime=fl.p_prime))
        est = epipole_least_squares(flows)
        assert est.residual > 0.0
        assert np.linalg.norm(est.position - center) < 5.0

    def test_matches_planar_on_planar_scene(self, intr800):
        # the two estimators agree on noise-free planar motion
        master = np.random.default_rng(2024)
        horizon = HorizonLine.level(intr800.v0)
        checked = 0
        for _ in range(30):
            scenario = random_approach_scenario(
                master, intr800, planar=True, n_points=5, frame_count=2
            )
            tracks, truth = simulate(scenario)
            flows = [FlowVector.from_track(t) for t in tracks if t is not None]
            if len(flows) < 3:
                continue
            expected = oracle_epipole(scenario.objects[0].velocity, intr800)
            ls = epipole_least_squares(flows)
            assert ls.position == pytest.approx(expected, abs=1e-6)
            for fl in flows:
                try:
                    planar = planar_epipole(fl, horizon)
                except ParallelToHorizon:
                    continue
                assert planar.position == pytest.approx(expected, abs=1e-6)
                checked += 1
        assert checked >= 40


class TestThreeFrameOffset:
    def test_on_horizon_offset_is_zero(self, intr800):
        # planar motion: the anchor already is the epipole, x must vanish
        v = np.array([0.25, 0.0, -1.0])
        track = track_from_point([1.0, 0.8, 18.0], v, intr800)
        horizon = HorizonLine.level(intr800.v0)
        x, est = epipole_offset_three_frames(track, horizon, intr800)
        assert abs(x) <= 1e-9
        assert est.position == pytest.approx(oracle_epipole(v, intr800), abs=1e-6)
        assert est.residual <= 1e-9
        assert est.method is EpipoleMethod.THREE_FRAME_OFFSET

    def test_off_horizon_offset_matches_truth(self, intr800):
        # vertical velocity component pushes the epipole off the assumed horizon
        v = np.array([0.25, 0.12, -1.0])
        p_scene = np.array([1.0, 0.8, 18.0])
        track = track_from_point(p_scene, v, intr800)
        horizon = HorizonLine.level(intr800.v0)

        e_true = oracle_epipole(v, intr800)
        fl = FlowVector.from_track(track)
        anchor = planar_epipole(fl, horizon)
        frame = line_angle_frame(track.pixel(0), track.pixel(1), intr800)
        x_true = wrap_half_pi(frame.angle_of(anchor.position) - frame.angle_of(e_true))

        x, est = epipole_offset_three_frames(track, horizon, intr800)
        assert x == pytest.approx(x_true, abs=1e-6)
        assert est.position == pytest.approx(e_true, abs=1e-6)
        assert est.residual <= 1e-9

    def test_off_horizon_random_sweep(self, intr800):
        master = np.random.default_rng(481)
        for _ in range(25):
            v = np.array(
                [
                    master.uniform(-0.4, 0.4),
                    master.uniform(-0.25, 0.25),
                    -master.uniform(0.8, 1.4),
                ]
            )
            depth = master.uniform(14.0, 30.0)
            p_scene = np.array(
                [master.uniform(-0.15, 0.15) * depth, master.uniform(0.05, 0.12) * depth, depth]
            )
            track = track_from_point(p_scene, v, intr800)
            horizon = HorizonLine.level(intr800.v0)
            try:
                x, est = epipole_offset_three_frames(track, horizon, intr800)
            except (ParallelToHorizon, DegenerateConfiguration):
                continue
            assert est.position == pytest.approx(oracle_epipole(v, intr800), abs=1e-5)
            assert est.residual <= 1e-8

    def test_residual_measures_off_line_pixel(self, intr800):
        # the third pixel moved 0.5 px off the flow line of the first two
        track = track_from_point([1.0, 0.8, 18.0], [0.25, 0.12, -1.0], intr800)
        fl = FlowVector.from_track(track)
        moved = track.positions.copy()
        moved[2] += 0.5 * fl.n
        track = TrackObservation(frames=track.frames, positions=moved)
        _, est = epipole_offset_three_frames(track, HorizonLine.level(intr800.v0), intr800)
        assert est.residual > 1e-4
        # k of the pairs (0, 1) and (1, 2): tan = |r_e x r| / (r_e . r) per ray
        rays = np.column_stack([track.positions - intr800.pp, np.full(3, intr800.focal_px)])
        ray_e = np.append(est.position - intr800.pp, intr800.focal_px)
        tan = np.linalg.norm(np.cross(ray_e, rays), axis=1) / (rays @ ray_e)
        consistency = tan[1] / (tan[1] - tan[0]) - tan[2] / (tan[2] - tan[1])
        assert est.residual == pytest.approx(abs(consistency - 1.0), rel=1e-9)

    def test_two_frames_insufficient(self, intr800):
        track = TrackObservation(
            frames=(0, 1), positions=np.array([[10.0, 10.0], [12.0, 11.0]])
        )
        with pytest.raises(InsufficientData):
            epipole_offset_three_frames(track, HorizonLine.level(intr800.v0), intr800)

    def test_static_track_stationary(self, intr800):
        # no motion between the first two frames: collision_estimate's zero flow
        track = TrackObservation(
            frames=(0, 1, 2), positions=np.tile([50.0, 60.0], (3, 1))
        )
        with pytest.raises(StationaryPoint, match="^zero pixel displacement between frames$"):
            epipole_offset_three_frames(track, HorizonLine.level(intr800.v0), intr800)

    def test_flow_parallel_to_horizon(self, intr800):
        track = TrackObservation(
            frames=(0, 1, 2),
            positions=np.array([[100.0, 50.0], [110.0, 50.0], [121.0, 50.0]]),
        )
        with pytest.raises(ParallelToHorizon):
            epipole_offset_three_frames(track, HorizonLine.level(intr800.v0), intr800)

    def test_arithmetic_tangents_degenerate(self, intr_origin):
        # offsets chosen so the anchored tangents step uniformly: the
        # consistency demand then has no finite solution
        depth = np.hypot(200.0, intr_origin.focal_px)
        vs = np.array([0.1, 0.2, 0.3]) * depth
        track = TrackObservation(
            frames=(0, 1, 2), positions=np.column_stack([np.full(3, 200.0), vs])
        )
        with pytest.raises(DegenerateConfiguration) as info:
            epipole_offset_three_frames(track, HorizonLine.level(0.0), intr_origin)
        # the denominator is rounding residue, so only its format is pinned
        assert re.fullmatch(r"offset denominator -?\d\.\d{3}e[-+]\d\d below 1\.000e-12", str(info.value))


# Pixel coordinates on a coarse grid or anywhere: the grid makes zero
# flows, flows along the horizon and epipoles on track pixels likely.
pixel_coordinate = st.one_of(
    st.integers(630, 650).map(float),
    st.floats(0.0, 1280.0, allow_nan=False, allow_infinity=False),
)
track_pixels = st.lists(st.tuples(pixel_coordinate, pixel_coordinate), min_size=2, max_size=5)


class TestThreeFrameBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(track_pixels, min_size=1, max_size=8),
        st.sampled_from([0.0, 0.1, -0.5]),
        st.sampled_from([360.0, 361.0, 200.0]),
    )
    # static, parallel, vanishing denominator (epipole on a track pixel),
    # corrected epipole at infinity (uniform angles), an underflowing first
    # step, two frames and five frames
    @example(
        [[(500.0, 300.0)] * 3, [(500.0, 300.0), (510.0, 300.0), (520.0, 300.0)],
         [(640.0, 360.0), (650.0, 361.0), (660.0, 362.0)], [(600.0, 380.0), (601.0, 381.0), (602.0, 382.0)],
         [(0.0, 0.0), (1e-170, 0.0), (30.0, 20.0)], [(400.0, 200.0), (405.0, 198.0)],
         [(700.0, 400.0), (710.0, 404.0), (722.0, 408.8), (736.0, 414.0), (752.0, 420.0)]],
        0.0, 360.0,
    )
    def test_one_row_wrapper_equals_batch_rows(self, tracks, slope, intercept):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))
        horizon = HorizonLine.from_slope_intercept(slope, intercept)
        observations = [TrackObservation.from_positions(pixels) for pixels in tracks]
        x, positions, residual, code, columns = _offset_three_frames(
            TrackTable.from_tracks(observations), horizon, intr
        )
        for i, track in enumerate(observations):
            assert (code[i] == _FEW_FRAMES) == (len(track) < 3)
            try:
                offset, epipole = epipole_offset_three_frames(track, horizon, intr)
            except TtcError as exc:
                assert code[i] != 0
                row = _reason_error(code[i], columns, i)
                assert type(exc) is type(row) and str(exc) == str(row)
            else:
                assert code[i] == 0
                assert offset == x[i] and epipole.residual == residual[i]
                assert np.array_equal(epipole.position, positions[i])


class TestScalarRaisesBatchCode:
    """A one-row API raises exactly where its row kernel gives a non-zero
    reason code, with the class and the text of that code's row."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(*[pixel_coordinate] * 4), min_size=1, max_size=8),
        st.sampled_from([0.0, 0.1, -0.5]),
        st.sampled_from([360.0, 361.0, 200.0]),
    )
    # zero flow, flow along the horizon, and a valid cut
    @example([(500.0, 300.0, 500.0, 300.0), (500.0, 300.0, 510.0, 300.0), (610.0, 320.0, 670.0, 400.0)], 0.0, 360.0)
    def test_planar_epipole(self, rows, slope, intercept):
        horizon = HorizonLine.from_slope_intercept(slope, intercept)
        pixels = np.array(rows).reshape(-1, 2, 2)
        positions, code, columns = _planar_epipoles(pixels[:, 0], pixels[:, 1], horizon)
        for i, (p, q) in enumerate(pixels):
            try:
                epipole = planar_epipole(FlowVector(p, q), horizon)
            except TtcError as exc:
                assert code[i] != 0
                row = _reason_error(code[i], columns, i)
                assert type(exc) is type(row) and str(exc) == str(row)
            else:
                assert code[i] == 0 and np.array_equal(epipole.position, positions[i])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[pixel_coordinate] * 6), min_size=1, max_size=8))
    # zero flow, epipole on a track point, constant bearing about the
    # principal point, and a valid pair
    @example([(600.0, 300.0, 600.0, 300.0, 640.0, 360.0), (600.0, 300.0, 610.0, 305.0, 600.0, 300.0),
              (640.0, 350.0, 650.0, 360.0, 640.0, 360.0), (600.0, 300.0, 610.0, 305.0, 640.0, 360.0)])
    def test_collision_estimate(self, rows):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))
        p0, p1, e = np.array(rows).reshape(-1, 3, 2).transpose(1, 0, 2)
        k, h, _, _, _, code = _collision_rows(p0, p1, e, intr)
        for i in range(len(p0)):
            try:
                estimate = collision_estimate(TrackObservation.from_positions([p0[i], p1[i]]), e[i], intr)
            except TtcError as exc:
                assert code[i] != 0
                row = _reason_error(code[i], {}, i)
                assert type(exc) is type(row) and str(exc) == str(row)
            else:
                assert code[i] == 0 and estimate.k == k[i] and estimate.H == h[i]


two_pixels = st.lists(st.tuples(pixel_coordinate, pixel_coordinate), min_size=2, max_size=2)


class TestLeastSquaresKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(two_pixels, max_size=8))
    @example([])
    @example([[(0.0, 0.0), (10.0, 0.0)]])
    @example([[(0.0, 0.0), (10.0, 0.0)], [(5.0, 7.0), (12.0, 7.0)], [(-3.0, 20.0), (4.0, 20.0)]])
    @example([[(0.0, 0.0), (10.0, 0.0)], [(3.0, 4.0), (3.0, 4.0)], [(5.0, 7.0), (5.0, 9.0)]])
    def test_wrapper_equals_kernel(self, flows):
        pixels = np.array(flows, dtype=np.float64).reshape(-1, 2, 2)
        normals, offsets, zero = _flow_lines(pixels[:, 0], pixels[:, 1])
        error = None
        if zero.any():
            error = _reason_error(_ZERO_DISPLACEMENT, {"pixel": pixels[:, 0]}, int(np.argmax(zero)))
        else:
            position, residual, code = _least_squares_epipole(normals, offsets)
            if code:
                error = _reason_error(code, {"flows": [len(normals)]})
        try:
            epipole = epipole_least_squares([FlowVector(p, q) for p, q in pixels])
        except TtcError as exc:
            assert type(error) is type(exc) and str(error) == str(exc)
        else:
            assert error is None
            assert np.array_equal(epipole.position, position) and epipole.residual == residual


def pairwise_spread(normals, min_sin):
    """Whether any two lines make |sin(angle)| >= min_sin, pair by pair."""
    return any(
        abs(normals[i, 0] * normals[j, 1] - normals[i, 1] * normals[j, 0]) >= min_sin
        for i in range(len(normals))
        for j in range(i + 1, len(normals))
    )


@st.composite
def near_threshold_bundles(draw):
    """Line angles whose spread is 0.5 deg times (1 +- 10**-16 ... 10**-1),
    with inner lines, some normals flipped, in random order."""
    base = draw(st.floats(-np.pi, np.pi))
    rel = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -1.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
    fractions = np.array([0.0, 1.0, *inner])
    flips = np.array(draw(st.lists(st.booleans(), min_size=len(fractions), max_size=len(fractions))))
    order = draw(st.permutations(range(len(fractions))))
    angles = base + np.deg2rad(0.5) * (1.0 + rel) * fractions + np.pi * flips
    return angles[list(order)]


class TestSpreadCheck:
    MIN_SIN = np.sin(np.deg2rad(0.5))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        near_threshold_bundles(),
        st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=12).map(np.array),
    ))
    @example(np.zeros(5))
    @example(np.array([0.0, np.pi, 2 * np.pi]))
    @example(np.array([0.0, np.pi - np.deg2rad(0.4), np.pi + np.deg2rad(0.4)]))
    @example(np.deg2rad(0.45) * np.arange(400))  # every gap below 0.5 deg
    @example(np.deg2rad(np.array([0.0, 0.5])))
    def test_verdict_equals_pairwise(self, angles):
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        expected = pairwise_spread(normals, self.MIN_SIN)
        assert _lines_spread(normals, self.MIN_SIN) == expected
        _, _, code = _least_squares_epipole(normals, np.zeros(len(normals)))
        assert (code == 0) == expected

    def test_near_parallel_bundle_rejected(self):
        rng = np.random.default_rng(5)
        angles = 0.3 + rng.uniform(0.0, np.deg2rad(0.4), 20_000)
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        _, _, code = _least_squares_epipole(normals, np.zeros(len(normals)))
        assert code == _ALL_PARALLEL


coordinate = st.integers(-1000, 1000).map(float)


class TestTlsLines:
    """_tls_lines in closed form against LAPACK's SVD of the centered set."""

    @settings(max_examples=300, deadline=None)
    @given(
        grid=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12),
        exponent=st.integers(-150, 150),
    )
    @example(grid=[(3.0, -7.0)] * 5, exponent=-150)  # coincident
    @example(grid=[(0.0, 1.0), (0.0, -4.0), (0.0, 9.0)], exponent=0)  # vertical
    @example(grid=[(-2.0, 3.0), (5.0, 3.0)], exponent=150)  # horizontal
    @example(grid=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], exponent=0)  # no axis
    @example(grid=[(1000.0, 999.0), (-1000.0, -999.0), (1.0, -1.0)], exponent=-150)
    # squares that would overflow or underflow without the scaling
    @example(grid=[(1000.0, -300.0), (-1000.0, 400.0), (7.0, 2.0)], exponent=300)
    @example(grid=[(1000.0, -300.0), (-1000.0, 400.0), (7.0, 2.0)], exponent=-300)
    def test_matches_svd(self, grid, exponent):
        points = np.array(grid) * 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centroid, direction, spread = _tls_lines(points)
        assert np.isfinite(centroid).all() and np.isfinite(direction).all()
        assert direction[0] >= 0.0
        assert abs(np.hypot(*direction) - 1.0) <= 1e-15
        if len(set(grid)) == 1:
            assert spread == 0.0
            return
        singular, vt = np.linalg.svd(points - points.mean(axis=0), full_matrices=False)[1:]
        assert abs(spread - singular[0]) <= 1e-12 * singular[0]
        ratio = singular[1] / singular[0]
        if 1.0 - ratio >= 1e-6:
            # the angle error of a principal axis grows like the inverse
            # of the relative eigenvalue gap
            cross = direction[0] * vt[0, 1] - direction[1] * vt[0, 0]
            assert abs(cross) <= 1e-13 / (1.0 - ratio**2)

    def test_batch_equals_each_set(self):
        rng = np.random.default_rng(7)
        sets = rng.normal(size=(6, 5, 2)) * np.exp(rng.normal(size=(6, 1, 1)) * 20)
        centroid, direction, spread = _tls_lines(sets)
        for i, points in enumerate(sets):
            one = _tls_lines(points)
            assert np.array_equal(one[0], centroid[i]) and np.array_equal(one[1], direction[i])
            assert one[2] == spread[i]

    def test_no_lapack_call(self):
        # the sweep and the horizon fit share the closed form; neither
        # reaches LAPACK's SVD
        us = np.array([-100.0, 0.0, 50.0, 200.0])
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD called")):
            table = orientation_error_sweep(preset_approach_45deg(10.0), [20.0, 40.0], trials=50)
            hor = calibrate_horizon(list(np.column_stack([us, 0.25 * us + 5.0])))
        assert all(row.degenerate_trials < 50 for row in table.rows)
        assert hor.fit_residual <= 1e-9 and hor.direction[0] > 0.0


class TestCalibrateHorizon:
    def test_exact_line_recovered(self):
        us = np.array([-100.0, 0.0, 50.0, 200.0])
        pts = np.column_stack([us, 0.25 * us + 5.0])
        epipoles = [
            Epipole(position=p, method=EpipoleMethod.HORIZON_INTERSECTION) for p in pts
        ]
        hor = calibrate_horizon(epipoles)
        assert hor.fit_residual <= 1e-9
        for p in pts:
            assert abs(oracle_signed_distance(hor, p)) <= 1e-9
        true_dir = np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25])
        cross = hor.direction[0] * true_dir[1] - hor.direction[1] * true_dir[0]
        assert abs(cross) <= 1e-12

    def test_noisy_epipoles_within_half_pixel_rms(self):
        rng = np.random.default_rng(4242)
        us = np.array([-200.0, -50.0, 100.0, 300.0, 600.0])
        true_pts = np.column_stack([us, 0.3 * us + 12.0])
        normal = np.array([-0.3, 1.0]) / np.linalg.norm([-0.3, 1.0])
        noisy = true_pts + rng.normal(0.0, 0.3, size=len(us))[:, None] * normal
        hor = calibrate_horizon([p for p in noisy])
        assert hor.fit_residual <= 0.5
        rms_true = np.sqrt(np.mean([oracle_signed_distance(hor, p) ** 2 for p in true_pts]))
        assert rms_true <= 0.5
        true_dir = np.array([1.0, 0.3]) / np.linalg.norm([1.0, 0.3])
        cross = hor.direction[0] * true_dir[1] - hor.direction[1] * true_dir[0]
        assert abs(np.rad2deg(np.arcsin(abs(cross)))) <= 0.1

    def test_round_trip_with_planar_estimator(self, intr800):
        # epipoles of several planar motions pin the horizon, which then
        # feeds back into planar estimation for a new motion
        horizon_true = HorizonLine.level(intr800.v0)
        epipoles = []
        for vx in (-0.4, -0.1, 0.2, 0.5):
            v = np.array([vx, 0.0, -1.0])
            track = track_from_point([1.0, 0.9, 16.0], v, intr800, n_frames=2)
            epipoles.append(planar_epipole(FlowVector.from_track(track), horizon_true))
        hor = calibrate_horizon(epipoles)
        v_new = np.array([0.35, 0.0, -1.2])
        track = track_from_point([-0.8, 1.1, 20.0], v_new, intr800, n_frames=2)
        est = planar_epipole(FlowVector.from_track(track), hor)
        assert est.position == pytest.approx(oracle_epipole(v_new, intr800), abs=1e-6)

    def test_insufficient_epipoles(self):
        with pytest.raises(InsufficientData):
            calibrate_horizon([np.array([0.0, 0.0])])

    def test_coincident_epipoles_singular(self):
        pts = [np.array([5.0, 5.0])] * 3
        with pytest.raises(SingularGeometry):
            calibrate_horizon(pts)
