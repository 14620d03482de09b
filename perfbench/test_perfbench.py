"""Tests of the benchmark itself: the oracle, the output checks, the tracer
and the reference clock.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ttckit.cli  # noqa: E402

from perfbench import oracle, refclock, scenes, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def run(argv: list[str]) -> None:
    assert ttckit.cli.main(argv) == 0


def test_hand_anchor():
    # point (1, 0, 10) closing head-on at 1 m per frame, f = 800, pp = 0
    p = np.array([[1.0, 0.0, 10.0]])
    v = np.array([[0.0, 0.0, -1.0]])
    pp = np.zeros(2)
    frames = p[:, np.newaxis, :] + np.arange(2)[np.newaxis, :, np.newaxis] * v[:, np.newaxis, :]
    np.testing.assert_allclose(oracle.project(frames, 800.0, pp)[0], [[80.0, 0.0], [800.0 / 9.0, 0.0]], rtol=1e-15)
    assert oracle.frames_to_sweep(p, v)[0] == pytest.approx(10.0, rel=1e-15)
    assert oracle.miss_frames(p, v)[0] == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_array_equal(oracle.epipole(v, 800.0, pp)[0], [0.0, 0.0])


def test_collision_cells_by_hand():
    # one point 10 m dead ahead of a camera driving at 1 m per frame
    cells = oracle.collision_cells(
        points=np.array([[0.0, 0.0, 10.0]]),
        velocities=np.zeros((1, 3)),
        camera_velocity=np.array([0.0, 0.0, 1.0]),
        lateral=np.array([-1.0, 0.0, 1.0]),
        forward=np.array([-2.0, 0.0]),
        frame_count=12,
        radius=2.0,
    )
    # forward -2 reverses the camera: nothing pending in that row
    assert np.all(np.isinf(cells["min_ttc"][:3])) and np.all(np.isnan(cells["miss"][:3]))
    assert not cells["collision"][:3].any()
    # forward 0: k0 = 10 / |v|^2, miss = 10 sin(angle off the motion line)
    k = 10.0 / np.array([2.0, 1.0, 2.0])
    np.testing.assert_allclose(cells["min_ttc"][3:], k, rtol=1e-15)
    np.testing.assert_allclose(cells["miss"][3:], [10.0 / np.sqrt(2.0), 0.0, 10.0 / np.sqrt(2.0)], atol=1e-12)
    np.testing.assert_array_equal(cells["collision"][3:], [False, True, False])


def test_close_treats_infinities_and_nans():
    ok = oracle.close([np.inf, np.nan, 1.0 + 1e-10, -np.inf], [np.inf, np.nan, 1.0, np.inf], rel=1e-9)
    np.testing.assert_array_equal(ok, [True, True, True, False])


@pytest.fixture(scope="module")
def road(tmp_path_factory):
    work = tmp_path_factory.mktemp("road")
    scene = scenes.road_scene(np.random.default_rng(3), 300)
    (work / "road.json").write_text(json.dumps(workloads.scenario_document(scene)))
    for label, argv in workloads.RoadEstimate().commands(3, work):
        run(argv)
    return work, workloads.road_expectations(scene)


def test_road_outputs_pass_and_a_negated_h_is_caught(road):
    work, expect = road
    rows = workloads.read_rows(work / "tracks.csv")
    truth = json.loads((work / "truth.json").read_text())
    assert workloads.check_simulation(rows, truth, expect).wrong == 0
    for mode, name in (("planar", "planar.json"), ("three-frame", "three_frame.json")):
        doc = json.loads((work / name).read_text())
        tally = workloads.check_estimates(doc, expect, mode)
        assert (tally.attempted, tally.failed, tally.wrong) == (300, 0, 0)
        doc["estimates"][7]["H"] = -doc["estimates"][7]["H"]
        assert workloads.check_estimates(doc, expect, mode).wrong == 1


def test_road_simulation_check_catches_a_moved_pixel_and_bad_truth(road):
    work, expect = road
    rows = workloads.read_rows(work / "tracks.csv")
    truth = json.loads((work / "truth.json").read_text())
    moved = copy.deepcopy(rows)
    moved[5][2] = repr(float(moved[5][2]) + 1e-6)
    assert workloads.check_simulation(moved, truth, expect).wrong == 1
    truth["points"][4]["k0"] *= 1.0 + 1e-8
    assert workloads.check_simulation(rows, truth, expect).wrong == 1


def test_road_missing_estimates_count_as_failed(road):
    work, expect = road
    doc = json.loads((work / "planar.json").read_text())
    doc["estimates"][0]["status"] = "degenerate:ParallelToHorizon"
    del doc["estimates"][1]
    tally = workloads.check_estimates(doc, expect, "planar")
    assert (tally.failed, tally.wrong) == (2, 0)


def test_motion_clusters_pass_and_a_moved_member_is_caught(tmp_path):
    rng = np.random.default_rng(4)
    scene = scenes.motion_scene(rng, 3, 40)
    expect = workloads.write_motion_tracks(scene, rng, tmp_path / "m.csv")
    run(["cluster", str(tmp_path / "m.csv"), "--intrinsics", scenes.INTRINSICS_ARG, "--seed", "4", "--out", str(tmp_path / "c.json")])
    doc = json.loads((tmp_path / "c.json").read_text())
    tally = workloads.check_clusters(doc, expect)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 0, 0)
    moved = copy.deepcopy(doc)
    member = moved["clusters"][0]["member_ids"].pop()
    moved["clusters"][0]["ttc_values"].pop()
    moved["clusters"][1]["member_ids"].append(member)
    moved["clusters"][1]["ttc_values"].append(expect.k0[member])
    assert workloads.check_clusters(moved, expect).wrong == 2
    shifted = copy.deepcopy(doc)
    shifted["clusters"][2]["epipole"]["position"][0] += 1e-5
    assert workloads.check_clusters(shifted, expect).wrong == 1


def test_collision_map_passes_and_a_flipped_flag_is_caught(tmp_path):
    scene = scenes.planning_scene(np.random.default_rng(5), 6, 5)
    (tmp_path / "plan.json").write_text(json.dumps(workloads.scenario_document(scene)))
    run(["collision-map", str(tmp_path / "plan.json"), "--grid", "1.0,1.0,11,11", "--radius", "2.0", "--out", str(tmp_path / "map.csv")])
    offsets = workloads.grid_offsets(11, 1.0)
    expect = oracle.collision_cells(scene.points, scene.velocities[scene.owner], scene.camera_velocity, offsets, offsets, scene.frame_count, 2.0)
    rows = workloads.read_rows(tmp_path / "map.csv")
    tally = workloads.check_collision_map(rows, expect)
    assert (tally.attempted, tally.failed, tally.wrong) == (121, 0, 0)
    rows[30][4] = "0" if rows[30][4] == "1" else "1"
    assert workloads.check_collision_map(rows, expect).wrong == 1


def test_sensitivity_passes_and_a_wrong_depth_error_is_caught(tmp_path):
    depths = ",".join(map(str, workloads.SENSITIVITY_DEPTHS))
    run(["sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", "10", "--z-values", depths,
         "--trials", "300", "--seed", "6", "--out", str(tmp_path / "s.csv")])
    rows = workloads.read_rows(tmp_path / "s.csv")
    tally = workloads.check_sensitivity(rows)
    assert (tally.attempted, tally.failed, tally.wrong) == (5, 0, 0)
    rows[2][1] = repr(float(rows[2][1]) * (1.0 + 1e-9))
    assert workloads.check_sensitivity(rows).wrong == 1


def test_tracer_records_nested_spans_and_restores_every_namespace(tmp_path):
    import ttckit
    import ttckit.ttc

    original = ttckit.ttc.collision_estimate
    scene = scenes.road_scene(np.random.default_rng(7), 20)
    (tmp_path / "road.json").write_text(json.dumps(workloads.scenario_document(scene)))
    tracer = Tracer()
    with tracer:
        assert ttckit.cli.collision_estimate is not original
        assert ttckit.collision_estimate is ttckit.cli.collision_estimate
        for label, argv in workloads.RoadEstimate().commands(7, tmp_path):
            assert ttckit.cli.main(argv) == 0
    assert ttckit.cli.collision_estimate is original and ttckit.ttc.collision_estimate is original
    assert ttckit.collision_estimate is original

    values = tracer.summary()
    assert values["cli.main_calls"] == 3
    assert values["ttc.collision_estimate_calls"] == 40
    assert values["fileio.rows_read"] == 2 * 20 * scene.frame_count
    assert values["simulate.points"] == 20
    roots = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    own = sum(values[f"{layer}.self_s"] for layer in ("cli", "fileio", "simulate", "epipole", "ttc", "camera", "clustering", "stereo"))
    assert own == pytest.approx(roots, rel=1e-9)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end


def test_scaled_timer_divides_by_the_kernel_time_around_each_call(monkeypatch):
    # the host runs the kernel at nominal speed, then at half and a quarter of it
    kernel_times = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(refclock, "kernel", lambda: 0.0)
    monkeypatch.setattr(refclock, "kernel_seconds", lambda: next(kernel_times) * refclock.NOMINAL_S)
    clock = refclock.ScaledTimer()
    assert clock.scale(3.0) == pytest.approx(2.0)  # mean kernel time 1.5x nominal
    assert clock.scale(6.0) == pytest.approx(2.0)  # 3x nominal; the kernel after the last call is reused


def test_cli_peak_rss_is_the_commands_own(tmp_path):
    from perfbench import run as bench

    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page of the benchmark's memory
    wall, peak_mb, code = bench.run_cli(["--help"], bench.cli_env(), tmp_path / "stderr.txt")
    assert code == 0 and wall > 0
    assert 5 < peak_mb < 100


def test_cli_timeout_kills_the_command(tmp_path, monkeypatch):
    from perfbench import run as bench

    monkeypatch.setattr(bench, "CLI_TIMEOUT_S", 0.01)
    wall, peak_mb, code = bench.run_cli(["--help"], bench.cli_env(), tmp_path / "stderr.txt")
    assert code != 0 and peak_mb == 0.0
