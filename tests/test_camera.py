import numpy as np
import pytest

from ttckit import (
    BehindCamera,
    CameraIntrinsics,
    DegenerateGeometry,
    InvalidInput,
    line_angle_frame,
    project,
)
from ttckit.camera import as_pixel

from conftest import oracle_project


class TestCameraIntrinsics:
    def test_focal_must_be_positive(self):
        with pytest.raises(InvalidInput):
            CameraIntrinsics(focal_px=0.0, principal_point=(0.0, 0.0))
        with pytest.raises(InvalidInput):
            CameraIntrinsics(focal_px=-800.0, principal_point=(0.0, 0.0))

    def test_principal_point_must_lie_inside_image(self):
        with pytest.raises(InvalidInput):
            CameraIntrinsics(focal_px=800.0, principal_point=(700.0, 240.0), image_size=(640, 480))

    def test_off_center_requires_flag(self):
        intr = CameraIntrinsics(
            focal_px=800.0,
            principal_point=(700.0, 240.0),
            image_size=(640, 480),
            allow_off_center=True,
        )
        assert intr.u0 == 700.0

    def test_accessors(self, intr800):
        assert intr800.u0 == 320.0
        assert intr800.v0 == 240.0
        assert np.array_equal(intr800.pp, [320.0, 240.0])

    def test_frozen(self, intr800):
        with pytest.raises(AttributeError):
            intr800.focal_px = 500.0


class TestProject:
    def test_on_axis_point_hits_principal_point(self, intr800):
        assert np.allclose(project([0.0, 0.0, 10.0], intr800), [320.0, 240.0], atol=0.0)

    def test_hand_values(self, intr_origin, intr800):
        assert np.allclose(project([1.0, 0.0, 10.0], intr_origin), [80.0, 0.0], atol=0.0)
        assert np.allclose(project([1.0, 2.0, 4.0], intr800), [520.0, 640.0], atol=0.0)

    def test_behind_camera(self, intr800):
        with pytest.raises(BehindCamera):
            project([0.0, 0.0, 0.0], intr800)
        with pytest.raises(BehindCamera):
            project([1.0, 1.0, -5.0], intr800)

    def test_batch_matches_scalar(self, intr800):
        rng = np.random.default_rng(1)
        pts = np.column_stack(
            [rng.uniform(-5, 5, 20), rng.uniform(-5, 5, 20), rng.uniform(1, 50, 20)]
        )
        batch = project(pts, intr800)
        assert batch.shape == (20, 2)
        for row, p in zip(batch, pts):
            assert np.array_equal(row, project(p, intr800))

    def test_batch_rejects_any_point_behind(self, intr800):
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, -1.0]])
        with pytest.raises(BehindCamera):
            project(pts, intr800)

    def test_projective_invariance(self, intr800):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(2, 40)])
            c = rng.uniform(0.1, 9.0)
            assert np.allclose(project(p, intr800), project(c * p, intr800), atol=1e-9)

    def test_angle_composition_on_axis(self, intr800):
        # the ray angle of the projected u equals arctan(X/Z) for Y=0 points
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, z = rng.uniform(-8, 8), rng.uniform(1, 60)
            u, _ = project([x, 0.0, z], intr800)
            got = np.arctan2(u - intr800.u0, intr800.focal_px)
            assert got == pytest.approx(np.arctan(x / z), rel=1e-12, abs=1e-15)


class TestLineAngleFrame:
    def test_coincident_points_rejected(self, intr800):
        with pytest.raises(DegenerateGeometry):
            line_angle_frame([80.0, 0.0], [80.0, 0.0], intr800)

    def test_angle_point_roundtrip(self, intr800):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(-500, 900, 2)
            b = rng.uniform(-500, 900, 2)
            if np.allclose(a, b):
                continue
            frame = line_angle_frame(a, b, intr800)
            for p in (a, b, 0.5 * (a + b)):
                back = frame.point_at(frame.angle_of(p))
                assert np.allclose(back, p, atol=1e-9)

    def test_point_angle_roundtrip(self, intr800):
        frame = line_angle_frame([100.0, 50.0], [110.0, 40.0], intr800)
        for ang in np.linspace(-1.4, 1.4, 15):
            assert frame.angle_of(frame.point_at(ang)) == pytest.approx(ang, abs=1e-12)


class TestAsPixel:
    def test_unwraps_position_attribute(self):
        class Holder:
            position = np.array([3.0, 4.0])

        assert np.array_equal(as_pixel(Holder()), [3.0, 4.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidInput):
            as_pixel([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            as_pixel([np.inf, 0.0])
