"""Stereo depth error model and the stereo-vs-monocular sweep.

Depth error values are checked against hand-evaluated Z^2 dp / (B f);
the sweep's qualitative claims (bounded monocular heading error versus
divergent stereo heading error, accuracy improving with segment length)
are pinned with seeded Monte-Carlo runs.
"""

import warnings

import numpy as np
import pytest

from ttckit import (
    InvalidInput,
    StereoErrorModel,
    disparity_px,
    focal_px_from_metric,
    orientation_error_sweep,
    preset_approach_45deg,
    stereo_depth_error,
)


def rig(**overrides):
    params = dict(
        baseline_m=0.15,
        focal_px=800.0,
        detection_error_px=0.2,
        speed_mps=50.0 / 3.6,
        heading_deg=45.0,
    )
    params.update(overrides)
    return StereoErrorModel(**params)


class TestFocalConversion:
    def test_eight_mm_on_ten_micron_pitch(self):
        # 8 mm lens on a 10 um pixel pitch sensor is exactly 800 px
        assert focal_px_from_metric(8.0, 10.0) == 800.0

    def test_scaling(self):
        assert focal_px_from_metric(4.0, 10.0) == 400.0
        assert focal_px_from_metric(8.0, 5.0) == 1600.0

    @pytest.mark.parametrize("args", [(0.0, 10.0), (8.0, 0.0), (-8.0, 10.0), (8.0, -1.0)])
    def test_invalid_rejected(self, args):
        with pytest.raises(InvalidInput):
            focal_px_from_metric(*args)

    @pytest.mark.parametrize(
        "args, name",
        [((float("nan"), 10.0), "focal_mm"), ((8.0, float("inf")), "pixel_pitch_um")],
        ids=["focal_mm-nan", "pixel_pitch_um-inf"],
    )
    def test_non_finite_rejected(self, args, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be finite"):
            focal_px_from_metric(*args)


class TestStereoErrorModel:
    def test_preset_values(self):
        m = preset_approach_45deg(10.0)
        assert m.baseline_m == 0.15
        assert m.focal_px == 800.0
        assert m.detection_error_px == 0.2
        assert m.speed_mps == pytest.approx(50.0 / 3.6)
        assert m.heading_deg == 45.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"baseline_m": 0.0},
            {"baseline_m": -0.15},
            {"focal_px": 0.0},
            {"detection_error_px": -0.1},
            {"speed_mps": 0.0},
            {"baseline_m": float("nan")},
            {"focal_px": float("inf")},
            {"detection_error_px": float("nan")},
            {"detection_error_px": float("inf")},
            {"speed_mps": float("inf")},
            {"heading_deg": float("nan")},
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(InvalidInput):
            rig(**overrides)


class TestDisparity:
    def test_hand_value(self):
        assert disparity_px(rig(), 60.0) == 2.0

    def test_array_input(self):
        out = disparity_px(rig(), np.array([30.0, 60.0, 120.0]))
        assert out == pytest.approx([4.0, 2.0, 1.0])

    def test_invalid_depth(self):
        with pytest.raises(InvalidInput):
            disparity_px(rig(), 0.0)


class TestStereoDepthError:
    def test_hand_value_at_sixty_meters(self):
        # 60^2 * 0.2 / (0.15 * 800) = 6.0 m
        assert stereo_depth_error(rig(), 60.0) == pytest.approx(6.0, rel=1e-12)

    def test_zero_detection_error(self):
        assert stereo_depth_error(rig(detection_error_px=0.0), 60.0) == 0.0

    def test_quadratic_growth(self):
        m = rig()
        for z in (5.0, 17.0, 60.0, 200.0):
            assert stereo_depth_error(m, 2.0 * z) / stereo_depth_error(m, z) == pytest.approx(
                4.0, rel=1e-12
            )

    def test_doubled_baseline_halves_error(self):
        assert stereo_depth_error(rig(baseline_m=0.30), 60.0) == pytest.approx(
            stereo_depth_error(rig(), 60.0) / 2.0, rel=1e-12
        )

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the error itself overflows
            assert stereo_depth_error(rig(), 1e160) == np.inf
            # Z^2 = 1e310 overflows, the error 1e310 * 0.2 / (0.15 * 800)
            # does not
            assert stereo_depth_error(rig(), 1e155) == pytest.approx(1.6666666666666667e307, rel=1e-12)

    def test_array_and_scalar_forms(self):
        m = rig()
        arr = stereo_depth_error(m, np.array([30.0, 60.0]))
        assert isinstance(arr, np.ndarray)
        assert arr == pytest.approx([1.5, 6.0])
        assert isinstance(stereo_depth_error(m, 60.0), float)

    def test_invalid_depth(self):
        with pytest.raises(InvalidInput):
            stereo_depth_error(rig(), -5.0)


class TestOrientationErrorSweep:
    def test_zero_noise_recovers_truth(self):
        m = rig(detection_error_px=0.0)
        table = orientation_error_sweep(m, [15.0, 60.0], trials=5, rng_seed=0)
        for row in table.rows:
            assert row.stereo_heading_error_deg == pytest.approx(0.0, abs=1e-9)
            assert row.plane_heading_error_deg == pytest.approx(0.0, abs=1e-9)
            assert row.ttc_error_frames == pytest.approx(0.0, abs=1e-9)
            assert row.degenerate_trials == 0

    def test_stereo_diverges_plane_stays_bounded(self):
        table = orientation_error_sweep(
            preset_approach_45deg(10.0), [10.0, 20.0, 40.0, 80.0], trials=120, rng_seed=3
        )
        stereo = [r.stereo_heading_error_deg for r in table.rows]
        plane = [r.plane_heading_error_deg for r in table.rows]
        for s, p in zip(stereo, plane):
            assert s > 10.0 * p  # stereo loses at every depth here
        assert stereo[0] > 5.0 and stereo[-1] > 50.0
        assert max(plane) < 5.0
        assert all(r.degenerate_trials == 0 for r in table.rows)

    def test_ttc_error_small_at_close_range(self):
        table = orientation_error_sweep(preset_approach_45deg(10.0), [10.0], trials=120, rng_seed=3)
        assert table.rows[0].ttc_error_frames < 0.1

    def test_longer_segment_improves_plane_heading(self):
        # roughly doubling the flow segment should roughly halve the
        # monocular heading error
        m = preset_approach_45deg(10.0)
        short = orientation_error_sweep(m, [40.0], trials=150, rng_seed=5, track_frames=8)
        long = orientation_error_sweep(m, [40.0], trials=150, rng_seed=5, track_frames=15)
        ratio = short.rows[0].plane_heading_error_deg / long.rows[0].plane_heading_error_deg
        assert 1.4 <= ratio <= 3.0

    def test_depth_error_column_matches_model(self):
        m = rig()
        table = orientation_error_sweep(m, [30.0, 60.0], trials=5, rng_seed=1)
        for row in table.rows:
            assert row.stereo_depth_error_m == pytest.approx(stereo_depth_error(m, row.z_m))

    def test_deterministic_given_seed(self):
        m = preset_approach_45deg(10.0)
        t1 = orientation_error_sweep(m, [25.0], trials=40, rng_seed=9)
        t2 = orientation_error_sweep(m, [25.0], trials=40, rng_seed=9)
        assert t1.rows == t2.rows
        t3 = orientation_error_sweep(m, [25.0], trials=40, rng_seed=10)
        assert t1.rows != t3.rows

    def test_degenerate_trials_counted_not_dropped(self):
        # heavy noise far away: some trials lose the flow line or the
        # disparity sign and must show up in the degenerate count
        m = rig(detection_error_px=6.0)
        table = orientation_error_sweep(m, [150.0], trials=100, rng_seed=11)
        row = table.rows[0]
        assert row.degenerate_trials > 0
        assert np.isfinite(row.plane_heading_error_deg)

    def test_degenerate_trial_excluded_from_every_mean(self):
        # the one trial's disparity turns non-positive at 150 m: it must
        # not count in the plane and TTC means either
        m = rig(detection_error_px=6.0)
        row = orientation_error_sweep(m, [150.0], trials=1, rng_seed=0).rows[0]
        assert row.degenerate_trials == 1
        assert np.isnan(row.stereo_heading_error_deg)
        assert np.isnan(row.plane_heading_error_deg)
        assert np.isnan(row.ttc_error_frames)

    def test_table_records_parameters(self):
        m = rig()
        table = orientation_error_sweep(
            m, [20.0, 40.0], trials=7, rng_seed=13, track_frames=6, frame_dt=0.05
        )
        assert len(table.rows) == 2
        assert table.model is m
        assert table.trials == 7
        assert table.rng_seed == 13
        assert table.track_frames == 6
        assert table.frame_dt == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"track_frames": 1},
            {"trials": 0},
            {"frame_dt": 0.0},
            {"rng_seed": -1},
            {"rng_seed": 0.5},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(InvalidInput):
            orientation_error_sweep(rig(), [20.0], **kwargs)

    @pytest.mark.parametrize(
        "z_values, frame_dt, name",
        [
            ([20.0], float("nan"), "frame_dt"),
            ([20.0], float("inf"), "frame_dt"),
            ([20.0, float("inf")], 0.1, "z_values"),
            ([float("nan")], 0.1, "z_values"),
        ],
        ids=["frame_dt-nan", "frame_dt-inf", "z_values-inf", "z_values-nan"],
    )
    def test_non_finite_arguments_rejected(self, z_values, frame_dt, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be finite"):
            orientation_error_sweep(rig(), z_values, frame_dt=frame_dt, trials=5)

    def test_segment_passing_camera_rejected(self):
        with pytest.raises(InvalidInput):
            orientation_error_sweep(rig(), [2.0], trials=5)
