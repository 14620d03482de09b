"""Simulator and collision-map tests.

The simulator is itself the oracle for the estimators, so its own truth
values are checked against straight-line geometry computed inline:
plane-sweep time -(P . v)/|v|^2, lateral miss |P - (P.u)u|/|v|, and the
projected motion direction for the epipole.
"""

import numpy as np
import pytest

from ttckit import (
    CameraIntrinsics,
    GridSpec,
    InvalidInput,
    MotionClass,
    Scenario,
    SceneObject,
    collision_map,
    point_truth,
    simulate,
)
from conftest import oracle_epipole, oracle_h, oracle_k0, random_approach_scenario


def single_point_scenario(intrinsics, p, v, frames=2, camera_velocity=(0.0, 0.0, 0.0), **kw):
    obj = SceneObject("p", np.array([p], dtype=float), np.array(v, dtype=float))
    return Scenario(
        intrinsics=intrinsics,
        objects=(obj,),
        camera_velocity=np.array(camera_velocity, dtype=float),
        frame_count=frames,
        **kw,
    )


class TestSceneObject:
    def test_bad_points_shape(self):
        with pytest.raises(InvalidInput):
            SceneObject("x", np.zeros((3,)), np.zeros(3))

    def test_empty_points(self):
        with pytest.raises(InvalidInput):
            SceneObject("x", np.zeros((0, 3)), np.zeros(3))

    def test_nonpositive_depth(self):
        with pytest.raises(InvalidInput):
            SceneObject("x", np.array([[0.0, 0.0, 0.0]]), np.zeros(3))
        with pytest.raises(InvalidInput):
            SceneObject("x", np.array([[0.0, 0.0, -5.0]]), np.zeros(3))

    def test_bad_velocity(self):
        with pytest.raises(InvalidInput):
            SceneObject("x", np.array([[0.0, 0.0, 1.0]]), np.zeros(2))
        with pytest.raises(InvalidInput):
            SceneObject("x", np.array([[0.0, 0.0, 1.0]]), np.array([np.nan, 0.0, 0.0]))


class TestScenario:
    def test_frame_count_validation(self, intr800):
        obj = SceneObject("x", np.array([[0.0, 0.0, 10.0]]), np.zeros(3))
        for bad in (1, 0, -3, 2.5):
            with pytest.raises(InvalidInput):
                Scenario(
                    intrinsics=intr800,
                    objects=(obj,),
                    camera_velocity=np.zeros(3),
                    frame_count=bad,
                )

    def test_negative_noise_rejected(self, intr800):
        with pytest.raises(InvalidInput):
            single_point_scenario(
                intr800, [0.0, 0.0, 10.0], [0.0, 0.0, -1.0], pixel_noise_sigma=-0.1
            )

    def test_empty_objects_allowed(self, intr800):
        scenario = Scenario(
            intrinsics=intr800, objects=(), camera_velocity=np.zeros(3), frame_count=5
        )
        tracks, truth = simulate(scenario)
        assert tracks == []
        assert len(truth) == 0


class TestSimulateTracks:
    def test_head_on_anchor_case(self, intr_origin):
        # unit approach toward the camera: pixels expand radially away
        # from the epipole at the principal point
        scenario = single_point_scenario(intr_origin, [1.0, 0.0, 10.0], [0.0, 0.0, -1.0])
        tracks, truth = simulate(scenario)
        (track,), (pt,) = tracks, truth.points
        assert track.positions[0] == pytest.approx([80.0, 0.0], abs=1e-12)
        assert track.positions[1] == pytest.approx([800.0 / 9.0, 0.0], abs=1e-12)
        assert pt.epipole == pytest.approx([0.0, 0.0], abs=1e-12)
        assert pt.k0 == pytest.approx(10.0, rel=1e-12)
        assert pt.H == pytest.approx(1.0, rel=1e-12)
        assert pt.label is MotionClass.APPROACHING
        assert pt.valid_frames == 2
        assert pt.speed == pytest.approx(1.0)

    def test_zero_relative_velocity(self, intr800):
        scenario = single_point_scenario(
            intr800, [1.0, 0.5, 12.0], [0.2, 0.0, 0.4],
            camera_velocity=[0.2, 0.0, 0.4], frames=4,
        )
        tracks, truth = simulate(scenario)
        (track,), (pt,) = tracks, truth.points
        assert pt.label is MotionClass.CONSTANT_BEARING
        assert pt.epipole is None and pt.k0 is None and pt.H is None
        assert pt.speed == 0.0
        assert np.ptp(track.positions, axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_relative_motion_equivalence(self, intr800):
        # (v_obj, v_cam) and (v_obj - v_cam, 0) are the same episode
        v_obj = np.array([0.3, -0.1, -0.8])
        v_cam = np.array([0.1, 0.05, 0.6])
        points = np.array([[1.0, 0.4, 18.0], [-0.5, 0.2, 22.0]])
        base = dict(frame_count=5, pixel_noise_sigma=0.25, rng_seed=42)
        a = Scenario(
            intrinsics=intr800,
            objects=(SceneObject("o", points, v_obj),),
            camera_velocity=v_cam,
            **base,
        )
        b = Scenario(
            intrinsics=intr800,
            objects=(SceneObject("o", points, v_obj - v_cam),),
            camera_velocity=np.zeros(3),
            **base,
        )
        tracks_a, truth_a = simulate(a)
        tracks_b, truth_b = simulate(b)
        for ta, tb in zip(tracks_a, tracks_b):
            assert np.array_equal(ta.positions, tb.positions)
        for pa, pb in zip(truth_a.points, truth_b.points):
            assert np.array_equal(pa.v_g, pb.v_g)
            assert pa.k0 == pb.k0 and pa.H == pb.H

    def test_truncation_at_image_plane(self, intr800):
        scenario = single_point_scenario(intr800, [0.5, 0.0, 3.0], [0.0, 0.0, -1.0], frames=6)
        tracks, truth = simulate(scenario)
        (track,), (pt,) = tracks, truth.points
        assert pt.valid_frames == 3  # Z hits 0 on the 4th frame
        assert len(track) == 3
        assert track.frames == (0, 1, 2)
        assert pt.k0 == pytest.approx(3.0)

    def test_departed_point_yields_none_track(self, intr800):
        scenario = single_point_scenario(intr800, [0.5, 0.0, 0.5], [0.0, 0.0, -1.0], frames=4)
        tracks, truth = simulate(scenario)
        assert tracks == [None]
        assert truth.points[0].valid_frames == 1

    def test_noise_determinism_and_seed_sensitivity(self, intr800):
        def run(seed):
            scenario = single_point_scenario(
                intr800, [1.0, 0.3, 15.0], [0.05, 0.0, -0.9],
                frames=6, pixel_noise_sigma=0.4, rng_seed=seed,
            )
            tracks, _ = simulate(scenario)
            return tracks[0].positions

        assert np.array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))

    def test_truth_aligns_with_tracks(self, intr800):
        rng = np.random.default_rng(55)
        scenario = random_approach_scenario(rng, intr800, n_objects=3, n_points=4)
        tracks, truth = simulate(scenario)
        assert len(tracks) == len(truth) == 12
        assert truth.frame_count == scenario.frame_count
        for i, pt in enumerate(truth.points):
            assert pt.track_index == i
            assert pt.cluster_id == i // 4
            assert pt.object_id == f"obj{pt.cluster_id}"

    def test_truth_matches_geometry_oracles(self, intr800):
        rng = np.random.default_rng(90)
        for _ in range(20):
            scenario = random_approach_scenario(rng, intr800, n_objects=2, n_points=3)
            _, truth = simulate(scenario)
            for pt in truth.points:
                obj = scenario.objects[pt.cluster_id]
                p0 = obj.points[pt.track_index % 3]
                v_g = obj.velocity - scenario.camera_velocity
                assert pt.k0 == pytest.approx(oracle_k0(p0, v_g), rel=1e-12)
                assert pt.H == pytest.approx(oracle_h(p0, v_g), rel=1e-12)
                assert pt.epipole == pytest.approx(oracle_epipole(v_g, intr800), abs=1e-9)

    def test_k_at_counts_down(self, intr800):
        scenario = single_point_scenario(intr800, [1.0, 0.0, 10.0], [0.0, 0.0, -1.0])
        _, truth = simulate(scenario)
        pt = truth.points[0]
        assert pt.k_at(0) == pytest.approx(pt.k0)
        assert pt.k_at(3) == pytest.approx(pt.k0 - 3.0)
        stationary = point_truth([1.0, 0.0, 10.0], [0.0, 0.0, 0.0], intr800)
        assert stationary.k_at(5) is None


class TestPointTruth:
    def test_receding_label(self, intr800):
        pt = point_truth([1.0, 0.0, 10.0], [0.0, 0.0, 1.0], intr800)
        assert pt.label is MotionClass.RECEDING
        assert pt.k0 == pytest.approx(-10.0)

    def test_head_on_course_is_constant_bearing(self, intr800):
        pt = point_truth([0.0, 0.0, 10.0], [0.0, 0.0, -1.0], intr800)
        assert pt.label is MotionClass.CONSTANT_BEARING
        assert pt.H == pytest.approx(0.0, abs=1e-12)

    def test_image_parallel_motion_has_no_epipole(self, intr800):
        pt = point_truth([1.0, 0.0, 10.0], [0.3, 0.0, 0.0], intr800)
        assert pt.epipole is None
        assert pt.k0 == pytest.approx(-0.3 / 0.09)
        assert pt.H == pytest.approx(np.hypot(0.0, 10.0) / 0.3)


class TestGridSpec:
    def test_offsets_hand_values(self):
        grid = GridSpec(lateral_extent=2.0, forward_extent=1.0, lateral_cells=5, forward_cells=3)
        assert np.array_equal(grid.lateral_offsets, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(grid.forward_offsets, [-1.0, 0.0, 1.0])
        assert grid.lateral_offsets[2] == 0.0  # exact zero at the center
        assert grid.forward_offsets[1] == 0.0

    def test_single_cell_axis(self):
        grid = GridSpec(lateral_extent=0.0, forward_extent=1.0, lateral_cells=1, forward_cells=3)
        assert np.array_equal(grid.lateral_offsets, [0.0])

    @pytest.mark.parametrize("cells", [0, 2, 4, -1, 3.5])
    def test_even_or_invalid_cells_rejected(self, cells):
        with pytest.raises(InvalidInput):
            GridSpec(lateral_extent=1.0, forward_extent=1.0, lateral_cells=cells)

    def test_zero_extent_with_many_cells_rejected(self):
        with pytest.raises(InvalidInput):
            GridSpec(lateral_extent=0.0, forward_extent=1.0, lateral_cells=3)

    def test_negative_extent_rejected(self):
        with pytest.raises(InvalidInput):
            GridSpec(lateral_extent=-1.0, forward_extent=1.0)


def wall_scenario(intr):
    wall = SceneObject(
        "wall", np.array([[0.0, 0.0, 30.0], [0.4, 0.1, 30.5]]), np.zeros(3)
    )
    return Scenario(
        intrinsics=intr,
        objects=(wall,),
        camera_velocity=np.array([0.0, 0.0, 1.2]),
        frame_count=40,
    )


def reduce_truth(scenario):
    """Independent per-scenario collision reduction from simulate() truth."""
    _, truth = simulate(scenario)
    best_k, best_miss, collides = np.inf, np.nan, False
    for pt in truth.points:
        if pt.k0 is None or pt.k0 <= 0.0:
            continue
        miss_m = pt.H * pt.speed
        if pt.k0 < best_k:
            best_k, best_miss = pt.k0, miss_m
        if pt.k0 <= scenario.frame_count and miss_m < 2.0:
            collides = True
    return best_k, best_miss, collides


class TestCollisionMap:
    def test_empty_scene_all_clear(self, intr800):
        scenario = Scenario(
            intrinsics=intr800, objects=(), camera_velocity=np.zeros(3), frame_count=10
        )
        result = collision_map(scenario, GridSpec(1.0, 1.0, 3, 3))
        assert np.all(np.isinf(result.min_ttc))
        assert np.all(np.isnan(result.miss_distance))
        assert not result.collision.any()

    def test_wall_center_cell(self, intr800):
        result = collision_map(wall_scenario(intr800), GridSpec(2.0, 2.0, 5, 5))
        fi, li = result.center_index
        assert (fi, li) == (2, 2)
        assert result.min_ttc[fi, li] == pytest.approx(25.0, rel=1e-12)
        assert result.miss_distance[fi, li] == pytest.approx(0.0, abs=1e-12)
        assert bool(result.collision[fi, li]) is True

    def test_wall_swerve_clears(self, intr800):
        result = collision_map(wall_scenario(intr800), GridSpec(2.0, 2.0, 5, 5))
        # hard lateral velocity changes miss the wall entirely
        assert not result.collision[:, 0].any()
        assert not result.collision[:, -1].any()

    def test_center_matches_unmodified_scenario(self, intr800):
        rng = np.random.default_rng(31)
        for _ in range(5):
            scenario = random_approach_scenario(rng, intr800, n_objects=2, n_points=3)
            result = collision_map(scenario, GridSpec(0.5, 0.5, 3, 3))
            fi, li = result.center_index
            k, miss, hit = reduce_truth(scenario)
            assert result.min_ttc[fi, li] == pytest.approx(k, rel=1e-12)
            if np.isfinite(k):
                assert result.miss_distance[fi, li] == pytest.approx(miss, rel=1e-12)
            assert bool(result.collision[fi, li]) is hit

    def test_every_cell_matches_resimulation(self, intr800):
        # analytic grid values must equal a fresh simulation with the
        # cell's velocity change applied to the camera
        rng = np.random.default_rng(77)
        scenario = random_approach_scenario(rng, intr800, n_objects=2, n_points=4)
        grid = GridSpec(0.8, 0.6, 3, 3)
        result = collision_map(scenario, grid)
        for fi, dv_f in enumerate(grid.forward_offsets):
            for li, dv_l in enumerate(grid.lateral_offsets):
                shifted = Scenario(
                    intrinsics=scenario.intrinsics,
                    objects=scenario.objects,
                    camera_velocity=scenario.camera_velocity + np.array([dv_l, 0.0, dv_f]),
                    frame_count=scenario.frame_count,
                )
                k, miss, hit = reduce_truth(shifted)
                if np.isinf(k):
                    assert np.isinf(result.min_ttc[fi, li])
                else:
                    assert result.min_ttc[fi, li] == pytest.approx(k, abs=1e-9)
                    assert result.miss_distance[fi, li] == pytest.approx(miss, abs=1e-9)
                assert bool(result.collision[fi, li]) is hit

    def test_every_cell_matches_plain_formulas(self, intr800):
        # per point k0 = -(P . v)/|v|^2 and metric miss |P - (P . v^) v^|,
        # written out here rather than taken from simulate()
        rng = np.random.default_rng(78)
        layout = [([0.0, 0.0, 20.0], [0.0, 0.0, 0.0]),
                  ([-3.0, 0.0, 30.0], [0.0, 0.0, -0.5]),
                  ([8.0, 0.5, 15.0], [-0.6, 0.0, 0.0])]
        objects = tuple(
            SceneObject(f"o{j}", np.array(c) + rng.uniform(-0.8, 0.8, size=(4, 3)), np.array(v))
            for j, (c, v) in enumerate(layout)
        )
        scenario = Scenario(intrinsics=intr800, objects=objects,
                            camera_velocity=np.array([0.0, 0.0, 1.0]), frame_count=40)
        grid = GridSpec(1.0, 1.5, 5, 5)
        result = collision_map(scenario, grid)
        points = np.concatenate([o.points for o in objects])
        v_obj = np.concatenate([np.tile(o.velocity, (len(o.points), 1)) for o in objects])
        for fi, dv_f in enumerate(grid.forward_offsets):
            for li, dv_l in enumerate(grid.lateral_offsets):
                v = v_obj - (scenario.camera_velocity + np.array([dv_l, 0.0, dv_f]))
                # the cell that stops the camera leaves the wall without
                # relative motion: NaN there, which is never pending
                with np.errstate(invalid="ignore"):
                    k0 = -np.sum(points * v, axis=1) / np.sum(v * v, axis=1)
                    v_hat = v / np.linalg.norm(v, axis=1)[:, np.newaxis]
                along = np.sum(points * v_hat, axis=1)[:, np.newaxis]
                miss = np.linalg.norm(points - along * v_hat, axis=1)
                pending = k0 > 0.0
                if pending.any():
                    nearest = np.argmin(np.where(pending, k0, np.inf))
                    assert result.min_ttc[fi, li] == pytest.approx(k0[nearest], rel=1e-12)
                    assert result.miss_distance[fi, li] == pytest.approx(miss[nearest], rel=1e-9)
                else:
                    assert np.isinf(result.min_ttc[fi, li])
                    assert np.isnan(result.miss_distance[fi, li])
                hit = np.any(pending & (k0 <= 40) & (miss < 2.0))
                assert bool(result.collision[fi, li]) is bool(hit)
        assert result.collision.any() and not result.collision.all()

    def test_slow_approach_beyond_horizon_not_collision(self, intr800):
        scenario = single_point_scenario(
            intr800, [0.0, 0.0, 30.0], [0.0, 0.0, 0.0],
            frames=40, camera_velocity=[0.0, 0.0, 0.5],
        )
        result = collision_map(scenario, GridSpec(0.0, 0.0, 1, 1))
        assert result.min_ttc[0, 0] == pytest.approx(60.0)
        assert not result.collision[0, 0]

    def test_wide_miss_not_collision(self, intr800):
        scenario = single_point_scenario(
            intr800, [3.0, 0.0, 30.0], [0.0, 0.0, -1.0], frames=40
        )
        result = collision_map(scenario, GridSpec(0.0, 0.0, 1, 1), collision_radius=2.0)
        assert result.min_ttc[0, 0] == pytest.approx(30.0)
        assert result.miss_distance[0, 0] == pytest.approx(3.0)
        assert not result.collision[0, 0]
        wider = collision_map(scenario, GridSpec(0.0, 0.0, 1, 1), collision_radius=3.5)
        assert wider.collision[0, 0]

    def test_bad_radius_rejected(self, intr800):
        scenario = wall_scenario(intr800)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidInput):
                collision_map(scenario, GridSpec(1.0, 1.0, 3, 3), collision_radius=bad)
