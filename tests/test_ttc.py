import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttckit import (
    CameraIntrinsics,
    DegenerateGeometry,
    InvalidInput,
    MotionClass,
    StationaryPoint,
    TrackObservation,
    classify_motion,
    collision_estimate,
    project,
    simulate,
    ttc_batch,
)

from conftest import (
    oracle_epipole,
    oracle_h,
    oracle_k0,
    oracle_project,
    random_approach_scenario,
)


class TestTrackObservation:
    def test_needs_two_frames(self):
        with pytest.raises(InvalidInput):
            TrackObservation(frames=(0,), positions=np.array([[1.0, 2.0]]))

    def test_frames_must_step_by_one(self):
        with pytest.raises(InvalidInput):
            TrackObservation(frames=(0, 2), positions=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(InvalidInput):
            TrackObservation(frames=(3, 2), positions=np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_step_that_wraps_at_64_bits_rejected(self):
        # the int64 difference of these frames wraps to 1
        with pytest.raises(InvalidInput, match=r"exactly 1, got steps \[-18446744073709551615\]$"):
            TrackObservation(frames=(2**63 - 1, -(2**63)), positions=np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_from_positions(self):
        t = TrackObservation.from_positions(np.array([[0.0, 0.0], [1.0, 1.0]]), start_frame=5)
        assert t.frames == (5, 6)
        assert len(t) == 2
        assert np.array_equal(t.pixel(1), [1.0, 1.0])

    def test_positions_length_must_match(self):
        with pytest.raises(InvalidInput):
            TrackObservation(frames=(0, 1, 2), positions=np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestCollisionEstimate:
    def test_anchor_scene(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [800.0 / 9.0, 0.0]]))
        est = collision_estimate(track, np.array([0.0, 0.0]), intr_origin)
        assert est.k == pytest.approx(10.0, abs=1e-9)
        assert est.H == pytest.approx(1.0, abs=1e-9)
        # reconstructed point equals the true scene point in per-frame units
        assert np.allclose(est.point, [1.0, 0.0, 10.0], atol=1e-9)

    def test_doubled_speed_halves_k_and_h(self, intr_origin):
        # twice the speed: the plane arrives in half the frames, and the
        # same metric miss is half as many per-frame displacement units
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [100.0, 0.0]]))
        est = collision_estimate(track, np.array([0.0, 0.0]), intr_origin)
        assert est.k == pytest.approx(5.0, abs=1e-9)
        assert est.H == pytest.approx(0.5, abs=1e-9)

    def test_unit_vectors_and_reconstruction_invariants(self, intr800):
        rng = np.random.default_rng(10)
        for _ in range(40):
            scenario = random_approach_scenario(rng, intr800)
            tracks, truth = simulate(scenario)
            for track, pt in zip(tracks, truth.points):
                est = collision_estimate(track, pt.epipole, intr800)
                assert est.H >= 0.0
                assert np.linalg.norm(est.v_g_dir) == pytest.approx(1.0, abs=1e-9)
                assert np.linalg.norm(est.v_H_dir) == pytest.approx(1.0, abs=1e-9)
                assert abs(est.v_g_dir @ est.v_H_dir) < 1e-9
                recon = est.k * est.v_g_dir + est.H * est.v_H_dir
                assert np.allclose(recon, est.point, atol=1e-9)

    def test_closure_against_simulator_truth(self, intr800):
        rng = np.random.default_rng(11)
        for _ in range(60):
            scenario = random_approach_scenario(rng, intr800)
            tracks, truth = simulate(scenario)
            for track, pt in zip(tracks, truth.points):
                est = collision_estimate(track, pt.epipole, intr800)
                assert est.k == pytest.approx(pt.k0, rel=1e-6)
                assert est.H == pytest.approx(pt.H, rel=1e-6, abs=1e-12)

    def test_pair_index_shifts_anchor(self, intr800):
        rng = np.random.default_rng(12)
        scenario = random_approach_scenario(rng, intr800, frame_count=5)
        tracks, truth = simulate(scenario)
        track, pt = tracks[0], truth.points[0]
        for i in range(4):
            est = collision_estimate(track, pt.epipole, intr800, pair_index=i)
            assert est.k == pytest.approx(pt.k0 - i, rel=1e-9)

    def test_stationary_point_on_epipole(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[80.0, 20.0], [80.0, 20.0]]))
        with pytest.raises(StationaryPoint):
            collision_estimate(track, np.array([80.0, 20.0]), intr_origin)

    def test_constant_bearing_message(self, intr_origin):
        # both pixels 80 px from the epipole at the principal point: the
        # angle to the epipole ray is the same at both frames
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [0.0, 80.0]]))
        with pytest.raises(StationaryPoint) as info:
            collision_estimate(track, np.array([0.0, 0.0]), intr_origin)
        assert str(info.value) == "angular motion below threshold"

    def test_epipole_on_moving_track_point(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [100.0, 0.0]]))
        with pytest.raises(DegenerateGeometry):
            collision_estimate(track, np.array([80.0, 0.0]), intr_origin)

    def test_k_invariant_under_uniform_scaling(self, intr800):
        # scaling all scene coordinates and the speed together leaves
        # every projected angle unchanged
        rng = np.random.default_rng(13)
        p = np.array([1.5, -0.8, 22.0])
        v = np.array([0.2, 0.1, -1.1])
        for c in rng.uniform(0.1, 20.0, size=12):
            base = [project(p + t * v, intr800) for t in (0, 1)]
            scaled = [project(c * (p + t * v), intr800) for t in (0, 1)]
            e = oracle_epipole(v, intr800)
            k_base = collision_estimate(
                TrackObservation.from_positions(np.array(base)), e, intr800
            ).k
            k_scaled = collision_estimate(
                TrackObservation.from_positions(np.array(scaled)), e, intr800
            ).k
            assert k_scaled == pytest.approx(k_base, abs=1e-9)

    def test_k_invariant_to_focal_length(self):
        p = np.array([1.5, -0.8, 22.0])
        v = np.array([0.2, 0.1, -1.1])
        for f in (200.0, 800.0, 3200.0):
            intr = CameraIntrinsics(focal_px=f, principal_point=(0.0, 0.0), allow_off_center=True)
            track = TrackObservation.from_positions(
                np.array([project(p + t * v, intr) for t in (0, 1)])
            )
            est = collision_estimate(track, oracle_epipole(v, intr), intr)
            assert est.k == pytest.approx(oracle_k0(p, v), rel=1e-9)


class TestClassifyMotion:
    def test_approaching(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [88.9, 0.0]]))
        assert classify_motion(track, np.array([0.0, 0.0])) is MotionClass.APPROACHING

    def test_receding_by_time_reversal(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[88.9, 0.0], [80.0, 0.0]]))
        assert classify_motion(track, np.array([0.0, 0.0])) is MotionClass.RECEDING

    def test_constant_bearing(self, intr_origin):
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [80.0, 0.0]]))
        assert classify_motion(track, np.array([0.0, 0.0])) is MotionClass.CONSTANT_BEARING

    def test_threshold_is_respected(self):
        track = TrackObservation.from_positions(np.array([[80.0, 0.0], [80.03, 0.0]]))
        e = np.array([0.0, 0.0])
        assert classify_motion(track, e, eps_px=0.05) is MotionClass.CONSTANT_BEARING
        assert classify_motion(track, e, eps_px=0.01) is MotionClass.APPROACHING

    def test_time_reversal_flips_classification(self, intr800):
        rng = np.random.default_rng(14)
        flipped = {
            MotionClass.APPROACHING: MotionClass.RECEDING,
            MotionClass.RECEDING: MotionClass.APPROACHING,
            MotionClass.CONSTANT_BEARING: MotionClass.CONSTANT_BEARING,
        }
        for _ in range(30):
            scenario = random_approach_scenario(rng, intr800)
            tracks, truth = simulate(scenario)
            for track, pt in zip(tracks, truth.points):
                fwd = classify_motion(track, pt.epipole)
                rev = classify_motion(
                    TrackObservation.from_positions(track.positions[::-1]), pt.epipole
                )
                assert rev is flipped[fwd]

    def test_h_zero_iff_constant_bearing(self, intr800):
        # a point moving straight at the focal point keeps its pixel fixed
        p = np.array([2.0, 1.0, 20.0])
        v = -0.05 * p  # motion line passes through the origin: H = 0
        track = TrackObservation.from_positions(
            np.array([project(p + t * v, intr800) for t in (0, 1)])
        )
        assert oracle_h(p, v) == pytest.approx(0.0, abs=1e-12)
        assert classify_motion(track, oracle_epipole(v, intr800)) is MotionClass.CONSTANT_BEARING


class TestTtcBatch:
    def test_matches_scalar_estimates(self, intr800):
        rng = np.random.default_rng(18)
        scenario = random_approach_scenario(rng, intr800, n_objects=2, n_points=6)
        tracks, truth = simulate(scenario)
        e = truth.points[0].epipole
        p0 = np.array([t.pixel(0) for t in tracks])
        p1 = np.array([t.pixel(1) for t in tracks])
        k, h = ttc_batch(p0, p1, e, intr800)
        for i, track in enumerate(tracks):
            est = collision_estimate(track, e, intr800)
            assert k[i] == pytest.approx(est.k, rel=1e-9)
            assert h[i] == pytest.approx(est.H, rel=1e-9, abs=1e-12)

    def test_degenerate_rows_are_nan(self, intr_origin):
        p0 = np.array([[80.0, 0.0], [50.0, 50.0], [0.0, 0.0]])
        p1 = np.array([[100.0, 0.0], [50.0, 50.0], [10.0, 0.0]])
        # row 1: zero flow; row 2: starts on the epipole
        k, h = ttc_batch(p0, p1, np.array([0.0, 0.0]), intr_origin)
        assert np.isfinite(k[0]) and np.isfinite(h[0])
        assert np.isnan(k[1]) and np.isnan(h[1])
        assert np.isnan(k[2]) and np.isnan(h[2])

    def test_point_observed_at_its_sweep(self, intr_origin):
        # (-2, 0, 2) is perpendicular to v = (1, 0, 1): the sweep falls
        # on frame 1, whose ray is at a right angle to the epipole ray
        v = np.array([1.0, 0.0, 1.0])
        pixels = np.array(
            [oracle_project(np.array([-3.0, 0.0, 1.0]) + t * v, intr_origin) for t in range(3)]
        )
        e = oracle_epipole(v, intr_origin)
        k, h = ttc_batch(pixels[:2], pixels[1:], e, intr_origin)
        assert k == pytest.approx([1.0, 0.0], abs=1e-12)
        assert h == pytest.approx([2.0, 2.0], rel=1e-12)
        track = TrackObservation.from_positions(pixels)
        for i in range(2):
            est = collision_estimate(track, e, intr_origin, pair_index=i)
            assert (est.k, est.H) == (k[i], h[i])

    def test_shape_validation(self, intr_origin):
        with pytest.raises(InvalidInput):
            ttc_batch(
                np.zeros((3, 2)), np.zeros((4, 2)), np.array([0.0, 0.0]), intr_origin
            )

    def test_epipole_per_row_equals_shared_calls(self, intr800):
        rng = np.random.default_rng(44)
        p0 = rng.uniform(0.0, 640.0, size=(6, 2))
        p1 = p0 + rng.uniform(-5.0, 5.0, size=(6, 2))
        e = rng.uniform(-200.0, 800.0, size=(6, 2))
        p1[1] = p0[1]  # zero flow
        e[2] = p0[2]  # epipole on the track point
        k, h = ttc_batch(p0, p1, e, intr800)
        for i in range(6):
            ki, hi = ttc_batch(p0[i : i + 1], p1[i : i + 1], e[i], intr800)
            np.testing.assert_array_equal([k[i], h[i]], [ki[0], hi[0]])
        assert np.isnan(k[[1, 2]]).all() and np.isfinite(k[[0, 3, 4, 5]]).all()

    @pytest.mark.parametrize(
        "epipole",
        [
            np.zeros((2, 2)),
            np.zeros((3, 3)),
            np.zeros((1, 3, 2)),
            [[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]],
            [[0.0, 0.0], [np.inf, 0.0], [0.0, 0.0]],
        ],
    )
    def test_epipole_per_row_validated(self, epipole, intr_origin):
        p0 = np.array([[10.0, 0.0], [20.0, 5.0], [30.0, -5.0]])
        with pytest.raises(InvalidInput):
            ttc_batch(p0, p0 + 1.0, epipole, intr_origin)


class TestRecedingPoint:
    # (1, 0.3, 10) moving straight away at unit speed: the sweep was 10
    # frames ago and the motion line misses the camera by |(1, 0.3)|
    P = np.array([1.0, 0.3, 10.0])
    V = np.array([0.0, 0.0, 1.0])

    def pixels(self, intr):
        return np.array([oracle_project(self.P + t * self.V, intr) for t in (0, 1)])

    def test_collision_estimate(self, intr_origin):
        track = TrackObservation.from_positions(self.pixels(intr_origin))
        est = collision_estimate(track, oracle_epipole(self.V, intr_origin), intr_origin)
        assert est.k == pytest.approx(-10.0, rel=1e-9)
        assert est.H == pytest.approx(1.0440306508910551, rel=1e-9)
        assert np.allclose(est.v_g_dir, -self.V, atol=1e-12)
        assert np.allclose(est.point, self.P, atol=1e-9)

    def test_ttc_batch(self, intr_origin):
        pix = self.pixels(intr_origin)
        k, h = ttc_batch(pix[:1], pix[1:], oracle_epipole(self.V, intr_origin), intr_origin)
        assert k[0] == pytest.approx(-10.0, rel=1e-9)
        assert h[0] == pytest.approx(1.0440306508910551, rel=1e-9)


# the intr800 fixture as a constant: a function-scoped fixture would be
# shared by every example of a hypothesis test
INTR = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0), image_size=(640, 480))

# Frames until the sweep at frame 0 that each regime asks for.
REGIME_K0 = {
    "approaching": (1.5, 40.0),
    "receding": (-40.0, -0.5),
    "sweep between frames": (0.05, 0.95),
    "near-lateral approaching": (1.5, 40.0),
    "near-lateral receding": (-40.0, -0.5),
}
finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def regime_motion(draw):
    """(P0, v) of one point whose k0 lies in a drawn regime's range.

    The motion direction is drawn, flipped so the sweep lies on the
    requested side, and the speed set so k0 hits the drawn value.
    Near-lateral motion tilts out of the image plane by at most 1e-2,
    which puts the epipole at least 8e4 px off the principal point.
    """
    regime = draw(st.sampled_from(sorted(REGIME_K0)))
    z = draw(st.floats(1.0, 40.0, **finite))
    p0 = np.array([draw(st.floats(-2.0, 2.0, **finite)) * z,
                   draw(st.floats(-2.0, 2.0, **finite)) * z, z])
    if regime.startswith("near-lateral"):
        phi = draw(st.floats(0.0, 2.0 * np.pi, **finite))
        tilt = draw(st.floats(1e-4, 1e-2, **finite)) * draw(st.sampled_from([-1.0, 1.0]))
        d = np.array([np.cos(phi), np.sin(phi), tilt])
    else:
        d = np.array([draw(st.floats(-1.0, 1.0, **finite)) for _ in range(3)])
        assume(abs(d[2]) > 0.05)
    d /= np.linalg.norm(d)
    k0 = draw(st.floats(*REGIME_K0[regime], **finite))
    if (p0 @ d) * k0 > 0.0:
        d = -d
    speed = -(p0 @ d) / k0
    assume(0.05 <= speed <= 50.0)
    v = speed * d
    # in front of the camera for three frames, off the motion line by
    # more than 1e-3 rad, and moving by more than 0.01 px per frame
    assume(all((p0 + t * v)[2] > 0.1 for t in range(3)))
    assume(oracle_h(p0, v) * speed > 1e-3 * np.linalg.norm(p0))
    pixels = np.array([oracle_project(p0 + t * v, INTR) for t in range(3)])
    assume(np.all(np.linalg.norm(np.diff(pixels, axis=0), axis=1) > 1e-2))
    return p0, v, pixels


class TestRegimeProperties:
    @settings(max_examples=300, deadline=None)
    @given(regime_motion())
    def test_scalar_batch_and_truth_agree(self, motion):
        p0, v, pixels = motion
        track = TrackObservation.from_positions(pixels)
        e = oracle_epipole(v, INTR)
        speed = np.linalg.norm(v)
        k, h = ttc_batch(pixels[:2], pixels[1:], e, INTR)
        for i in range(2):
            est = collision_estimate(track, e, INTR, pair_index=i)
            assert est.k == k[i] and est.H == h[i]
            p = p0 + i * v
            assert est.k == pytest.approx(oracle_k0(p, v), rel=1e-6)
            assert est.H == pytest.approx(oracle_h(p, v), rel=1e-6)
            assert np.allclose(est.point, p / speed, rtol=0.0, atol=1e-6 * np.linalg.norm(p) / speed)
            assert np.allclose(est.v_g_dir, -v / speed, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(1.0, 40.0, **finite),
        st.floats(-2.0, 2.0, **finite),
        st.floats(-2.0, 2.0, **finite),
        st.sampled_from([0.25, 0.5, 2.0, 4.0]),
    )
    def test_constant_bearing_is_stationary(self, z, x, y, scale):
        # scaling by a power of two moves the point along its own ray and
        # projects to the very same pixel
        p0 = np.array([x * z, y * z, z])
        v = (scale - 1.0) * p0
        pixels = np.array([oracle_project(p0, INTR), oracle_project(scale * p0, INTR)])
        e = oracle_epipole(v, INTR)
        with pytest.raises(StationaryPoint):
            collision_estimate(TrackObservation.from_positions(pixels), e, INTR)
        k, h = ttc_batch(pixels[:1], pixels[1:], e, INTR)
        assert np.isnan(k[0]) and np.isnan(h[0])
