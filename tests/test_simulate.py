"""Simulator and collision-map tests.

The simulator is itself the oracle for the estimators, so its own truth
values are checked against straight-line geometry computed inline:
plane-sweep time -(P . v)/|v|^2, lateral miss |P - (P.u)u|/|v|, and the
projected motion direction for the epipole.
"""

import dataclasses
import importlib
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import (
    CameraIntrinsics,
    GridSpec,
    GroundTruth,
    InvalidInput,
    MotionClass,
    PointTruth,
    Scenario,
    SceneObject,
    collision_map,
    simulate,
)
from ttckit.camera import project
from ttckit.cli import main
from ttckit.fileio import write_json, write_scenario, write_tracks_csv
from ttckit.ttc import TrackObservation
from conftest import oracle_epipole, oracle_h, oracle_k0, random_approach_scenario, reduce_truth, wall_scenario

# the module, not the simulate() function the package exports under its name
simulate_module = importlib.import_module("ttckit.simulate")


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

    @pytest.mark.parametrize("bad", [-1, 1.5, float("nan"), "3", None])
    def test_seed_must_be_non_negative_integer(self, intr800, bad):
        with pytest.raises(InvalidInput, match="^rng_seed must be a non-negative integer"):
            single_point_scenario(intr800, [0.0, 0.0, 10.0], [0.0, 0.0, -1.0], rng_seed=bad)

    def test_integral_seed_becomes_int(self, intr800):
        scenario = single_point_scenario(
            intr800, [0.0, 0.0, 10.0], [0.0, 0.0, -1.0], rng_seed=np.float64(7.0)
        )
        assert scenario.rng_seed == 7 and type(scenario.rng_seed) is int

    def test_empty_objects_allowed(self, intr800):
        scenario = Scenario(
            intrinsics=intr800, objects=(), camera_velocity=np.zeros(3), frame_count=5
        )
        tracks, truth = simulate(scenario)
        assert list(tracks) == []
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
        assert list(tracks) == [None]
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


class TestPointTruth:
    """The truth record of a one-point scenario."""

    def point(self, intrinsics, p, v):
        return simulate(single_point_scenario(intrinsics, p, v))[1].points[0]

    def test_receding_label(self, intr800):
        pt = self.point(intr800, [1.0, 0.0, 10.0], [0.0, 0.0, 1.0])
        assert pt.label is MotionClass.RECEDING
        assert pt.k0 == pytest.approx(-10.0)

    def test_head_on_course_is_constant_bearing(self, intr800):
        pt = self.point(intr800, [0.0, 0.0, 10.0], [0.0, 0.0, -1.0])
        assert pt.label is MotionClass.CONSTANT_BEARING
        assert pt.H == pytest.approx(0.0, abs=1e-12)

    def test_image_parallel_motion_has_no_epipole(self, intr800):
        pt = self.point(intr800, [1.0, 0.0, 10.0], [0.3, 0.0, 0.0])
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


def truth_by_axis_reductions(points, v_g, intrinsics):
    """_truth written with np.sum and np.linalg.norm over the last axis,
    as the component sums must reproduce bit for bit."""
    points, v_g = np.broadcast_arrays(points, v_g)
    speed = np.linalg.norm(v_g, axis=-1)
    moving = speed >= 1e-12
    facing = np.abs(v_g[..., 2]) >= 1e-12 * np.maximum(1.0, speed)
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.where(moving, -np.sum(points * v_g, axis=-1) / speed**2, np.nan)
        miss = np.linalg.norm(points + k0[..., np.newaxis] * v_g, axis=-1)
        h = miss / speed
        epipole = intrinsics.pp + intrinsics.focal_px * v_g[..., :2] / v_g[..., 2:]
    epipole = np.where(facing[..., np.newaxis], epipole, np.nan)
    label = np.where(~(miss >= 1e-12), 0, np.where(k0 > 0.0, 1, 2))
    return k0, h, speed, epipole, label


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f":
        a, b = a.view(np.uint64), b.view(np.uint64)
    return a.shape == b.shape and np.array_equal(a, b)


# labels of truth_by_axis_reductions, by index
REFERENCE_LABELS = (MotionClass.CONSTANT_BEARING, MotionClass.APPROACHING, MotionClass.RECEDING)


class TestTruthKernel:
    def test_component_sums_match_axis_reductions(self, intr800):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(5000, 3)) * np.exp(rng.normal(size=(5000, 3)) * 3)
        v_g = rng.normal(size=(5000, 3)) * np.exp(rng.normal(size=(5000, 3)) * 3)
        # small integers with both signs of zero, so products cancel exactly
        signs = rng.choice([1.0, -1.0], size=(2, 1000, 3))
        points[:1000] = rng.integers(-2, 3, size=(1000, 3)) * signs[0]
        v_g[:1000] = rng.integers(-2, 3, size=(1000, 3)) * signs[1]
        k0, h, speed, epipole, label = truth_by_axis_reductions(points, v_g, intr800)
        got_k0, got_h, got_speed, _ = simulate_module._truth(points.T, v_g.T)
        assert same_bits(got_k0, k0) and same_bits(got_h, h) and same_bits(got_speed, speed)
        assert same_bits(simulate_module._motion_epipole(v_g, intr800), epipole)
        # each point its own object, so each has its own motion
        columns = simulate_module._truth_columns(range(len(points)), list(points[:, np.newaxis]), v_g, intr800)
        labels = [GroundTruth.LABELS[i] for i in columns["label"]]
        assert labels == [REFERENCE_LABELS[i] for i in label]

    def test_all_negative_zero_dot_keeps_its_sign(self):
        # every term of P . v is -0.0: np.sum gives +0.0, so k0 is -0.0
        k0, *_ = simulate_module._truth(np.array([0.0, 0.0, 5.0]), np.array([-1.0, -1.0, -0.0]))
        assert k0 == 0.0 and np.signbit(k0)

    def test_one_epipole_per_motion(self, intr800):
        # one call over every object in simulate, none in collision_map
        scenario = random_approach_scenario(np.random.default_rng(8), intr800, n_objects=3, n_points=4)
        with mock.patch.object(
            simulate_module, "_motion_epipole", wraps=simulate_module._motion_epipole
        ) as spy:
            _, truth = simulate(scenario)
            assert spy.call_count == 1 and spy.call_args.args[0].shape == (3, 3)
            collision_map(scenario, GridSpec(1.0, 1.0, 5, 5))
            assert spy.call_count == 1
        # each record owns its epipole array
        epipoles = [pt.epipole for pt in truth.points]
        assert all(
            not np.shares_memory(a, b) for i, a in enumerate(epipoles) for b in epipoles[i + 1:]
        )


def per_cell_collision_map(scenario, grid, collision_radius=2.0):
    """collision_map as one _truth call per grid cell, the reference the
    blocked map must equal bit for bit."""
    lat, fwd = grid.lateral_offsets, grid.forward_offsets
    shape = (len(fwd), len(lat))
    min_ttc = np.full(shape, np.inf)
    miss = np.full(shape, np.nan)
    hit = np.zeros(shape, dtype=bool)
    objects = scenario.objects
    points = np.concatenate([np.zeros((0, 3))] + [obj.points for obj in objects])
    velocities = np.concatenate(
        [np.zeros((0, 3))] + [np.broadcast_to(obj.velocity, obj.points.shape) for obj in objects]
    )
    for fi, dv_f in enumerate(fwd):
        for li, dv_l in enumerate(lat):
            cam_v = scenario.camera_velocity + np.array([dv_l, 0.0, dv_f])
            k0, h, speed, _ = simulate_module._truth(points.T, (velocities - cam_v).T)
            pending = k0 > 0.0
            if not pending.any():
                continue
            i = np.argmin(np.where(pending, k0, np.inf))
            miss_m = h * speed
            min_ttc[fi, li] = k0[i]
            miss[fi, li] = miss_m[i]
            hit[fi, li] = np.any(pending & (k0 <= scenario.frame_count) & (miss_m < collision_radius))
    return min_ttc, miss, hit


def assert_matches_per_cell(scenario, grid, collision_radius=2.0):
    result = collision_map(scenario, grid, collision_radius)
    min_ttc, miss, hit = per_cell_collision_map(scenario, grid, collision_radius)
    assert np.array_equal(result.min_ttc, min_ttc, equal_nan=True)
    assert np.array_equal(result.miss_distance, miss, equal_nan=True)
    assert np.array_equal(result.collision, hit)
    return result


def planning_scenario(intr, n_objects=10, per_object=15, seed=3):
    """Near-field scene shaped like the benchmark's: standing, oncoming and
    crossing objects within 40 m."""
    rng = np.random.default_rng(seed)
    velocities = ([0.0, 0.0, 0.0], [0.0, 0.0, -0.8], [0.6, 0.0, 0.0], [-0.5, 0.0, -0.3])
    objects = tuple(
        SceneObject(
            f"o{j}",
            np.array([rng.uniform(-8, 8), rng.uniform(-1, 1), rng.uniform(8, 40)])
            + rng.uniform(-1.0, 1.0, size=(per_object, 3)),
            np.array(velocities[j % len(velocities)]),
        )
        for j in range(n_objects)
    )
    return Scenario(
        intrinsics=intr, objects=objects, camera_velocity=np.array([0.0, 0.0, 1.0]), frame_count=30
    )


INTR = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
small = st.integers(-3, 3).map(float)
point = st.tuples(small, small, st.integers(1, 6).map(float))
velocity = st.tuples(small, st.just(0.0), small).map(lambda v: np.array(v) / 2.0)


class TestBlockedCollisionMap:
    """collision_map evaluates blocks of cells per _truth call; every cell
    must equal the per-cell loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        objects=st.lists(
            st.tuples(st.lists(point, min_size=1, max_size=4), velocity), min_size=0, max_size=3
        ),
        camera=velocity,
        cells=st.tuples(st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 3, 5, 7])),
        block_rows=st.integers(1, 40),
        frames=st.integers(2, 12),
    )
    @example(objects=[([(0.0, 0.0, 4.0)], np.zeros(3))], camera=np.array([0.0, 0.0, 1.0]),
             cells=(3, 3), block_rows=1, frames=10)
    def test_equals_per_cell_loop(self, objects, camera, cells, block_rows, frames):
        scenario = Scenario(
            intrinsics=INTR,
            objects=tuple(SceneObject(f"o{j}", np.array(p), v) for j, (p, v) in enumerate(objects)),
            camera_velocity=camera,
            frame_count=frames,
        )
        grid = GridSpec(1.0, 1.0, *cells)
        with mock.patch.object(simulate_module, "_BLOCK_ROWS", block_rows):
            assert_matches_per_cell(scenario, grid)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_tie_goes_to_first_object(self, intr800, order):
        # both points sweep at k0 = 20, 0 m and 3 m off the motion line
        pair = (
            SceneObject("hit", np.array([[0.0, 0.0, 20.0]]), np.zeros(3)),
            SceneObject("miss", np.array([[3.0, 0.0, 20.0]]), np.zeros(3)),
        )
        scenario = Scenario(
            intrinsics=intr800, objects=tuple(pair[i] for i in order),
            camera_velocity=np.array([0.0, 0.0, 1.0]), frame_count=30,
        )
        result = assert_matches_per_cell(scenario, GridSpec(0.0, 0.0, 1, 1))
        assert result.min_ttc[0, 0] == 20.0
        assert result.miss_distance[0, 0] == (0.0 if order == (0, 1) else 3.0)

    def test_stopped_camera_cell_has_no_pending_point(self, intr800):
        # forward change -1.2 stops the camera: the wall has no relative motion
        result = assert_matches_per_cell(wall_scenario(intr800), GridSpec(1.0, 1.2, 3, 3))
        assert np.isinf(result.min_ttc[0, 1])
        assert np.isnan(result.miss_distance[0, 1])
        assert not result.collision[0, 1]
        assert np.isfinite(result.min_ttc[1:]).all()

    def test_rows_with_some_pending_cells(self, intr800):
        # a standing point and a camera moving sideways: only the cells
        # that also move the camera forward approach it
        scenario = single_point_scenario(
            intr800, [0.0, 0.0, 20.0], [0.0, 0.0, 0.0], frames=30, camera_velocity=[0.5, 0.0, 0.0]
        )
        grid = GridSpec(1.0, 1.0, 5, 5)
        with mock.patch.object(simulate_module, "_BLOCK_ROWS", 7):
            result = assert_matches_per_cell(scenario, grid)
        pending = np.isfinite(result.min_ttc)
        assert pending.any() and not pending.all()
        assert pending[-1].all() and not pending[0].any()

    @pytest.mark.parametrize("cells", [(1, 1), (1, 9), (9, 1)])
    def test_single_cell_and_single_row_grids(self, intr800, cells):
        assert_matches_per_cell(planning_scenario(intr800, n_objects=3, per_object=4),
                                GridSpec(1.0, 1.0, *cells))

    def test_empty_scene(self, intr800):
        scenario = Scenario(
            intrinsics=intr800, objects=(), camera_velocity=np.zeros(3), frame_count=10
        )
        result = assert_matches_per_cell(scenario, GridSpec(1.0, 1.0, 5, 3))
        assert result.min_ttc.shape == (3, 5)

    def test_more_points_than_block_rows(self, intr800):
        rng = np.random.default_rng(12)
        n = simulate_module._BLOCK_ROWS + 1000
        points = np.column_stack([rng.uniform(-5, 5, size=(n, 2)), rng.uniform(5, 40, size=n)])
        scenario = Scenario(
            intrinsics=intr800, objects=(SceneObject("crowd", points, np.array([0.1, 0.0, -0.5])),),
            camera_velocity=np.array([0.0, 0.0, 0.5]), frame_count=30,
        )
        assert_matches_per_cell(scenario, GridSpec(0.5, 0.5, 3, 3))

    def test_cell_count_not_a_multiple_of_the_block(self, intr800):
        scenario = planning_scenario(intr800)
        cells_per_block = simulate_module._BLOCK_ROWS // 150
        assert (11 * 11) % cells_per_block != 0 and 11 * 11 > cells_per_block
        result = assert_matches_per_cell(scenario, GridSpec(1.0, 1.0, 11, 11))
        assert result.collision.any() and not result.collision.all()

    @pytest.mark.parametrize("block_rows", [4, simulate_module._BLOCK_ROWS])
    def test_overflow_names_the_forward_major_first_cell(self, intr800, block_rows):
        # |v|^2 = vx^2 + vz^2 overflows where vx^2 + vz^2 > 1.80e308. In
        # units of 1e154, vx is -0.55 ... -1.35 along the lateral cells
        # and vz -0.55, -0.9, -1.25 along the forward ones: forward row 0
        # overflows only at lateral cell 4, row 2 already at cell 0, and
        # the center cell (the scenario itself) not at all. Two points
        # and 4 rows per block split each row into lateral chunks
        # [0, 1], [2, 3], [4], so row 0's overflow lies in a later chunk
        # than row 2's.
        u = 1e154
        scenario = Scenario(
            intrinsics=intr800,
            objects=(SceneObject("still", np.array([[1.0, 0.5, 10.0]]), np.zeros(3)),
                     SceneObject("fast", np.array([[1.0, 0.5, 10.0]]), np.array([-0.95 * u, 0.0, -0.9 * u]))),
            camera_velocity=np.zeros(3),
            frame_count=10,
        )
        grid = GridSpec(0.4 * u, 0.35 * u, 5, 3)
        change = [grid.lateral_offsets[4], 0.0, grid.forward_offsets[0]]
        with mock.patch.object(simulate_module, "_BLOCK_ROWS", block_rows):
            with pytest.raises(InvalidInput) as raised:
                collision_map(scenario, grid)
        assert str(raised.value) == (
            f"object 'fast': collision truth overflows at camera velocity change {np.array(change).tolist()}"
        )

    @pytest.mark.parametrize("cells", [(4001, 1), (1, 4001)], ids=["one-row", "one-column"])
    def test_memory_bounded_by_the_block(self, intr800, cells):
        # a whole-grid or per-row broadcast of 4001 cells x 150 points
        # would hold 14 MB per (cell, point, 3) temporary
        scenario = planning_scenario(intr800)
        grid = GridSpec(1.0, 1.0, *cells)
        tracemalloc.start()
        try:
            collision_map(scenario, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def per_point_simulate(scenario):
    """simulate as one projection and one noise draw per point, on the
    axis-reduction kernel: the reference the per-object render must equal
    bit for bit."""
    rng = np.random.default_rng(scenario.rng_seed)
    steps = np.arange(scenario.frame_count, dtype=np.float64)
    tracks, truths = [], []
    for cluster_id, obj in enumerate(scenario.objects):
        v_g = obj.velocity - scenario.camera_velocity
        truth = truth_by_axis_reductions(obj.points, v_g, scenario.intrinsics)
        for point_index in range(obj.points.shape[0]):
            p0 = obj.points[point_index]
            positions = p0[np.newaxis, :] + steps[:, np.newaxis] * v_g[np.newaxis, :]
            ahead = positions[:, 2] > 1e-9
            valid_frames = int(np.argmin(ahead)) if not ahead.all() else scenario.frame_count
            if valid_frames >= 2:
                pixels = project(positions[:valid_frames], scenario.intrinsics)
                if scenario.pixel_noise_sigma > 0.0:
                    pixels = pixels + rng.normal(
                        0.0, scenario.pixel_noise_sigma, size=pixels.shape
                    )
                track = TrackObservation(
                    frames=np.arange(valid_frames, dtype=np.int64), positions=pixels
                )
            else:
                track = None
            k0, h, speed, epipole, label = (column[point_index] for column in truth)
            truths.append(
                PointTruth(
                    track_index=len(tracks),
                    object_id=obj.object_id,
                    cluster_id=cluster_id,
                    v_g=v_g,
                    speed=float(speed),
                    epipole=None if np.isnan(epipole[0]) else epipole,
                    k0=None if np.isnan(k0) else float(k0),
                    H=None if np.isnan(h) else float(h),
                    label=REFERENCE_LABELS[label],
                    valid_frames=valid_frames,
                )
            )
            tracks.append(track)
    return tracks, truths


def truth_document_by_record(truths, ids, frame_count):
    """The truth document built from PointTruth records, one at a time:
    the reference for truth_document, which reads GroundTruth columns."""
    points = [
        {
            "track_id": tid,
            "object_id": pt.object_id,
            "cluster_id": pt.cluster_id,
            "v_g": pt.v_g,
            "speed": pt.speed,
            "epipole": pt.epipole,
            "k0": pt.k0,
            "H": pt.H,
            "label": pt.label.value,
            "valid_frames": pt.valid_frames,
        }
        for tid, pt in zip(ids, truths)
    ]
    return {"schema": 1, "frame_count": frame_count, "points": points}


def assert_cli_matches_per_point(scenario):
    """ttckit simulate writes, byte for byte, the files that
    write_tracks_csv and the truth document give for the per-point loop."""
    want_tracks, want_truths = per_point_simulate(scenario)
    ids = [f"{pt.object_id}-{i}" for i, pt in enumerate(want_truths)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_scenario(tmp / "scene.json", scenario)
        argv = ["simulate", tmp / "scene.json", "--out-tracks", tmp / "t.csv", "--out-truth", tmp / "g.json"]
        assert main([str(a) for a in argv]) == 0
        write_tracks_csv(tmp / "want.csv", want_tracks, ids)
        write_json(tmp / "want.json", truth_document_by_record(want_truths, ids, scenario.frame_count))
        assert (tmp / "t.csv").read_bytes() == (tmp / "want.csv").read_bytes()
        assert (tmp / "g.json").read_bytes() == (tmp / "want.json").read_bytes()


def assert_matches_per_point(scenario):
    assert_cli_matches_per_point(scenario)
    tracks, truth = simulate(scenario)
    want_tracks, want_truths = per_point_simulate(scenario)
    assert len(tracks) == len(want_tracks) and len(truth.points) == len(want_truths)
    for got, want in zip(tracks, want_tracks):
        if want is None:
            assert got is None
        else:
            assert got.frames == want.frames and same_bits(got.positions, want.positions)
    for got, want in zip(truth.points, want_truths):
        for field in dataclasses.fields(PointTruth):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, (float, np.ndarray)):
                assert same_bits(a, b), field.name
            else:
                assert a == b and type(a) is type(b), field.name
    return tracks, truth


quarter = st.integers(-4, 4).map(lambda i: i / 4.0)
near_point = st.tuples(quarter, quarter, st.integers(1, 16).map(lambda z: z / 4.0))
motion = st.tuples(quarter, quarter, quarter).map(np.array)


def render_scenario(objects, camera, frames, sigma, seed):
    return Scenario(
        intrinsics=INTR,
        objects=tuple(SceneObject(f"o{j}", np.array(p), v) for j, (p, v) in enumerate(objects)),
        camera_velocity=camera,
        frame_count=frames,
        pixel_noise_sigma=sigma,
        rng_seed=seed,
    )


class TestPerObjectRender:
    """simulate renders each object in one pass; tracks and every
    PointTruth field must equal the per-point loop bit for bit, and the
    simulate command must write the per-point loop's files."""

    @settings(max_examples=150, deadline=None)
    @given(
        objects=st.lists(
            st.tuples(st.lists(near_point, min_size=1, max_size=5), motion), min_size=0, max_size=3
        ),
        camera=motion,
        frames=st.integers(2, 12),
        sigma=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 3),
    )
    # crosses the depth floor mid-track, beside a point that keeps all frames
    @example(objects=[([(0.0, 0.0, 2.0), (1.0, 0.0, 4.0)], np.array([0.0, 0.0, -0.5]))],
             camera=np.zeros(3), frames=8, sigma=0.0, seed=0)
    # fewer than 2 valid frames, between two full tracks, with noise
    @example(objects=[([(0.0, 0.0, 3.0), (0.0, 0.0, 0.25), (1.0, 0.0, 3.5)],
                       np.array([0.0, 0.0, -0.5]))],
             camera=np.zeros(3), frames=4, sigma=0.5, seed=1)
    # zero relative motion, and motion parallel to the image plane
    @example(objects=[([(1.0, 0.5, 3.0)], np.array([0.25, 0.0, 0.5])),
                      ([(0.0, 1.0, 2.0)], np.array([0.75, 0.0, 0.5]))],
             camera=np.array([0.25, 0.0, 0.5]), frames=5, sigma=0.5, seed=2)
    def test_equals_per_point_loop(self, objects, camera, frames, sigma, seed):
        assert_matches_per_point(render_scenario(objects, camera, frames, sigma, seed))

    def test_explicit_cases(self):
        tracks, truth = assert_matches_per_point(
            render_scenario(
                [([(0.0, 0.0, 2.0), (0.0, 0.0, 0.25), (1.0, 0.0, 4.0)], np.array([0.0, 0.0, -0.5])),
                 ([(1.0, 0.5, 3.0)], np.array([0.25, 0.0, 0.5])),
                 ([(0.0, 1.0, 2.0)], np.array([0.75, 0.0, 0.5]))],
                camera=np.array([0.25, 0.0, 0.5]), frames=8, sigma=0.5, seed=4,
            )
        )
        # relative motion (-0.25, 0, -1) for the first object
        assert [pt.valid_frames for pt in truth.points] == [2, 1, 4, 8, 8]
        assert tracks[1] is None and len(tracks[0]) == 2 and len(tracks[2]) == 4
        assert truth.points[3].speed == 0.0 and truth.points[3].epipole is None
        assert truth.points[4].epipole is None and truth.points[4].k0 is not None

    def test_receding_and_constant_bearing_through_the_command(self):
        # receding, on the motion line (constant bearing), parallel to the
        # image plane (no epipole, k0 defined), and a point that departs
        tracks, truth = assert_matches_per_point(
            render_scenario(
                [([(0.5, 0.5, 3.0), (0.0, 0.0, 2.0)], np.array([0.0, 0.0, 0.5])),
                 ([(0.0, 1.0, 2.0)], np.array([0.5, 0.0, 0.0])),
                 ([(0.0, 0.0, 0.5)], np.array([0.0, 0.0, -1.0]))],
                camera=np.zeros(3), frames=6, sigma=0.5, seed=3,
            )
        )
        labels = [pt.label for pt in truth.points]
        assert labels[:2] == [MotionClass.RECEDING, MotionClass.CONSTANT_BEARING]
        assert truth.points[2].epipole is None and truth.points[2].k0 == 0.0
        assert tracks[3] is None and truth.points[3].valid_frames == 1


class TestTruthColumns:
    """GroundTruth holds columns; PointTruth records exist only when read."""

    def test_len_builds_no_record(self, intr800, monkeypatch):
        scenario = random_approach_scenario(np.random.default_rng(4), intr800, n_objects=2, n_points=3)
        _, truth = simulate(scenario)
        built = []
        monkeypatch.setattr(PointTruth, "__init__", lambda *a, **kw: built.append(1))
        assert len(truth.points) == len(truth) == 6
        assert built == []

    def test_points_index_like_a_sequence(self, intr800):
        scenario = random_approach_scenario(np.random.default_rng(4), intr800, n_objects=2, n_points=3)
        _, truth = simulate(scenario)
        key = [(pt.track_index, pt.object_id, pt.k0) for pt in truth.points]
        last = truth.points[-1]
        assert (last.track_index, last.object_id, last.k0) == key[5]
        assert [(pt.track_index, pt.object_id, pt.k0) for pt in truth.points[1:3]] == key[1:3]
        with pytest.raises(IndexError):
            truth.points[6]


class TestOverflow:
    """Finite scenario numbers whose relative motion or truth overflows
    float64 are input errors naming the object, raised without a warning."""

    def scenario(self, intr800, points, velocity, camera=(0.0, 0.0, 0.0)):
        return Scenario(
            intrinsics=intr800,
            # "ok" keeps still relative to the camera
            objects=(SceneObject("ok", np.array([[1.0, 0.5, 10.0]]), np.array(camera)),
                     SceneObject("bad", np.array(points), np.array(velocity))),
            camera_velocity=np.array(camera),
            frame_count=3,
        )

    @pytest.mark.parametrize("points, velocity, camera, message", [
        ([[1.0, 0.5, 10.0]], [0.0, 0.0, -1e308], [0.0, 0.0, 1e308], "relative motion overflows"),
        ([[1.0, 0.5, 10.0]], [1e200, 0.0, -1.0], [0.0, 0.0, 0.0], "collision truth overflows"),
        ([[1e300, 0.5, 10.0]], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0], "collision truth overflows"),
    ], ids=["motion", "speed", "miss"])
    def test_scenario_rejected(self, intr800, points, velocity, camera, message):
        with pytest.raises(InvalidInput, match=f"^object 'bad': {message}$"):
            self.scenario(intr800, points, velocity, camera)

    def test_overflowing_pixels_rejected(self):
        intr = CameraIntrinsics(focal_px=1e300, principal_point=(320.0, 240.0))
        scenario = single_point_scenario(intr, [1e10, 0.5, 1e-5], [0.0, 0.0, 1.0], frames=3)
        with pytest.raises(InvalidInput, match="^object 'p': pixels overflow$"):
            simulate(scenario)

    def test_overflowing_grid_cell_rejected(self, intr800):
        scenario = self.scenario(intr800, [[1.0, 0.5, 12.0]], [0.0, 0.0, -1.0])
        with pytest.raises(InvalidInput, match="^object 'ok': collision truth overflows at camera velocity change"):
            collision_map(scenario, GridSpec(1e200, 1e200, 3, 3))
