"""End-to-end CLI tests, run in-process through main(argv).

Covers the exit code contract (0 success, 2 input errors, 1 internal),
per-track degeneracy reporting, determinism of rerun outputs, and
closure of CLI estimates against simulator ground truth.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ttckit import (
    CameraIntrinsics,
    DegenerateFlow,
    FlowVector,
    HorizonLine,
    PointTruth,
    Scenario,
    SceneObject,
    StationaryPoint,
    TrackObservation,
    TtcError,
    collision_estimate,
    epipole_least_squares,
    epipole_offset_three_frames,
    planar_epipole,
)
from ttckit import fileio
from ttckit.cli import main
from ttckit.fileio import read_json, read_tracks_csv, write_scenario


def run(*argv):
    return main([str(a) for a in argv])


def planar_scenario(n_objects=1, noise=0.0, seed=0, frame_count=3):
    """Ground-plane motion: every true epipole sits on v = 240."""
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    # near-equal depths per object keep per-point collision counts tight,
    # which the clustering TTC gate requires during --calibrate
    specs = [
        (np.array([[1.0, 0.8, 18.0], [-0.6, 1.1, 18.4], [0.4, -0.9, 17.7], [0.9, 1.4, 18.2]]),
         np.array([0.3, 0.0, -1.2])),
        (np.array([[-1.5, 0.6, 26.0], [-1.1, -1.2, 25.6], [-2.0, 1.0, 26.3], [-1.8, -0.5, 25.9]]),
         np.array([-0.5, 0.0, -1.5])),
    ]
    objects = tuple(
        SceneObject(f"obj{i}", pts, vel) for i, (pts, vel) in enumerate(specs[:n_objects])
    )
    return Scenario(
        intrinsics=intr,
        objects=objects,
        camera_velocity=np.zeros(3),
        frame_count=frame_count,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )


def triple_scenario(seed=5, noise=0.3):
    rng = np.random.default_rng(seed + 10_000)
    intr = CameraIntrinsics(focal_px=700.0, principal_point=(320.0, 240.0))
    scene = [
        (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
        (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
        (np.array([0.5, -0.8, 16.0]), np.array([0.3, -0.08, -1.2])),
    ]
    objects = tuple(
        SceneObject(f"obj{i}", c + rng.uniform(-0.7, 0.7, size=(8, 3)), v)
        for i, (c, v) in enumerate(scene)
    )
    return Scenario(
        intrinsics=intr,
        objects=objects,
        camera_velocity=np.zeros(3),
        frame_count=9,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )


@pytest.fixture
def planar_files(tmp_path):
    scenario = planar_scenario()
    scene_path = tmp_path / "scene.json"
    write_scenario(scene_path, scenario)
    tracks = tmp_path / "tracks.csv"
    truth = tmp_path / "truth.json"
    assert run("simulate", scene_path, "--out-tracks", tracks, "--out-truth", truth) == 0
    return scene_path, tracks, truth


class TestSimulateCommand:
    def test_outputs_written(self, planar_files):
        _, tracks_path, truth_path = planar_files
        ids, tracks = read_tracks_csv(tracks_path)
        assert ids == [f"obj0-{i}" for i in range(4)]
        truth = read_json(truth_path)
        assert truth["schema"] == 1
        assert len(truth["points"]) == len(tracks) == 4

    def test_rerun_byte_identical(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario(noise=0.4, seed=9))
        outs = []
        for tag in ("a", "b"):
            t = tmp_path / f"tracks-{tag}.csv"
            g = tmp_path / f"truth-{tag}.json"
            assert run("simulate", scene, "--out-tracks", t, "--out-truth", g) == 0
            outs.append((t.read_bytes(), g.read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_and_noise_overrides(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario(noise=0.4, seed=9))

        def pixels(seed, sigma):
            t = tmp_path / f"t-{seed}-{sigma}.csv"
            g = tmp_path / f"g-{seed}-{sigma}.json"
            args = ["simulate", scene, "--out-tracks", t, "--out-truth", g]
            if seed is not None:
                args += ["--seed", seed]
            if sigma is not None:
                args += ["--noise-sigma", sigma]
            assert run(*args) == 0
            return np.vstack([tr.positions for tr in read_tracks_csv(t)[1]])

        assert not np.array_equal(pixels(None, None), pixels(31, None))
        clean = pixels(None, 0.0)
        assert np.array_equal(clean, pixels(77, 0.0))  # no noise, seed moot

    def test_builds_no_per_point_objects(self, tmp_path, monkeypatch):
        # the command writes both files from columns; a departed point
        # (fewer than 2 valid frames) sits between two tracks
        scenario = planar_scenario(noise=0.3, seed=2, frame_count=6)
        obj = scenario.objects[0]
        points = np.insert(obj.points, 1, [0.0, 0.0, 1.0], axis=0)
        scenario = dataclasses.replace(scenario, objects=(SceneObject("obj0", points, obj.velocity),))
        scene = tmp_path / "scene.json"
        write_scenario(scene, scenario)
        built = Counter()

        def counting(cls):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built[cls.__name__] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapper)

        counting(TrackObservation)
        counting(PointTruth)
        t, g = tmp_path / "t.csv", tmp_path / "g.json"
        assert run("simulate", scene, "--out-tracks", t, "--out-truth", g) == 0
        assert built == Counter()
        # the counters do count: reading the outputs back builds tracks
        assert len(read_tracks_csv(t)[1][0]) == 6 and built["TrackObservation"] == 1
        assert read_json(g)["points"][1]["valid_frames"] == 1

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run(
            "simulate", tmp_path / "absent.json",
            "--out-tracks", tmp_path / "t.csv", "--out-truth", tmp_path / "g.json",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_rejected(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text('{"schema": 1, "intrinsics": {"focal_px": 800.0, '
                         '"principal_point": [320.0, 240.0]}, "objects": [], "frame_count": 1}\n')
        code = run(
            "simulate", scene,
            "--out-tracks", tmp_path / "t.csv", "--out-truth", tmp_path / "g.json",
        )
        assert code == 2
        assert "frame_count" in capsys.readouterr().err


class TestEstimateCommand:
    def test_planar_closure_against_truth(self, planar_files, tmp_path):
        _, tracks_path, truth_path = planar_files
        out = tmp_path / "est.json"
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--mode", "planar", "--horizon", "0,240", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        truth = {p["track_id"]: p for p in read_json(truth_path)["points"]}
        assert doc["residuals"]["ok_tracks"] == 4
        for entry in doc["estimates"]:
            tp = truth[entry["track_id"]]
            assert entry["status"] == "ok"
            assert entry["k"] == pytest.approx(tp["k0"], rel=1e-6)
            assert entry["H"] == pytest.approx(tp["H"], rel=1e-6, abs=1e-9)
            assert entry["classification"] == tp["label"]
        for epi in doc["epipoles"]:
            tp = truth[epi["track_id"]]
            assert epi["position"] == pytest.approx(tp["epipole"], abs=1e-6)

    def test_stdout_when_no_out(self, planar_files, capsys):
        _, tracks_path, _ = planar_files
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--mode", "planar", "--horizon", "0,240",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "estimate"

    @pytest.mark.parametrize("mode", ["planar", "three-frame", "least-squares"])
    def test_stdout_equals_out_file_in_any_chunk_size(self, mode, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, triple_scenario(seed=5, noise=0.3))
        tracks = tmp_path / "t.csv"
        assert run("simulate", scene, "--out-tracks", tracks, "--out-truth", tmp_path / "g.json") == 0
        argv = ["estimate", tracks, "--intrinsics", "700,320,240", "--mode", mode]
        if mode != "least-squares":
            argv += ["--horizon", "0,240"]
        assert run(*argv, "--out", tmp_path / "est.json") == 0
        want = (tmp_path / "est.json").read_bytes()
        capsys.readouterr()
        for size in (1, 2, 5):
            with mock.patch.object(fileio, "_CHUNK", size):
                assert run(*argv) == 0
            assert capsys.readouterr().out.encode("utf-8") == want, size

    def test_planar_requires_horizon(self, planar_files, capsys):
        _, tracks_path, _ = planar_files
        code = run("estimate", tracks_path, "--intrinsics", "800,320,240", "--mode", "planar")
        assert code == 2
        assert "--horizon" in capsys.readouterr().err

    def test_three_frame_closure(self, planar_files, tmp_path):
        _, tracks_path, truth_path = planar_files
        out = tmp_path / "est3.json"
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--mode", "three-frame", "--horizon", "0,240", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        truth = {p["track_id"]: p for p in read_json(truth_path)["points"]}
        for entry in doc["estimates"]:
            assert entry["status"] == "ok"
            assert entry["k"] == pytest.approx(truth[entry["track_id"]]["k0"], rel=1e-6)
            assert abs(entry["offset_angle_rad"]) < 1e-9  # epipoles already on horizon

    def test_three_frame_needs_three_frames(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario(frame_count=2))
        tracks = tmp_path / "t.csv"
        truth = tmp_path / "g.json"
        assert run("simulate", scene, "--out-tracks", tracks, "--out-truth", truth) == 0
        out = tmp_path / "est.json"
        code = run(
            "estimate", tracks, "--intrinsics", "800,320,240",
            "--mode", "three-frame", "--horizon", "0,240", "--out", out,
        )
        assert code == 0  # per-track degeneracies never abort the batch
        doc = read_json(out)
        assert len(doc["estimates"]) == 4
        for entry in doc["estimates"]:
            assert entry["status"] == "degenerate:InsufficientData"
            assert entry["k"] is None

    def test_least_squares_shared_epipole(self, planar_files, tmp_path):
        _, tracks_path, truth_path = planar_files
        out = tmp_path / "lsq.json"
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--mode", "least-squares", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        truth = read_json(truth_path)["points"]
        assert len(doc["epipoles"]) == 1
        assert doc["epipoles"][0]["track_id"] is None
        assert doc["epipoles"][0]["position"] == pytest.approx(truth[0]["epipole"], abs=1e-6)
        for entry in doc["estimates"]:
            tp = next(p for p in truth if p["track_id"] == entry["track_id"])
            assert entry["k"] == pytest.approx(tp["k0"], rel=1e-6)

    def test_calibrate_recovers_horizon(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario(n_objects=2, frame_count=3))
        tracks = tmp_path / "t.csv"
        truth = tmp_path / "g.json"
        assert run("simulate", scene, "--out-tracks", tracks, "--out-truth", truth) == 0
        out = tmp_path / "cal.json"
        code = run(
            "estimate", tracks, "--intrinsics", "800,320,240",
            "--mode", "planar", "--calibrate", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        assert len(doc["clusters"]) == 2
        assert doc["horizon"]["fit_residual"] <= 1e-6
        # the fitted horizon is the level line v = 240
        ref, d = doc["horizon"]["reference"], doc["horizon"]["direction"]
        assert ref[1] + d[1] / d[0] * (0.0 - ref[0]) == pytest.approx(240.0, abs=1e-6)
        assert all(e["status"] == "ok" for e in doc["estimates"])

    def test_stationary_track_reported(self, planar_files, tmp_path):
        _, tracks_path, _ = planar_files
        merged = tmp_path / "with-static.csv"
        merged.write_text(
            tracks_path.read_text()
            + "static,0,200.0,200.0\nstatic,1,200.0,200.0\nstatic,2,200.0,200.0\n"
        )
        out = tmp_path / "est.json"
        code = run(
            "estimate", merged, "--intrinsics", "800,320,240",
            "--mode", "planar", "--horizon", "0,240", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        entry = next(e for e in doc["estimates"] if e["track_id"] == "static")
        assert entry["status"] == "stationary"
        assert entry["H"] == 0.0
        assert entry["classification"] == "ConstantBearing"
        assert doc["residuals"]["ok_tracks"] == 4

    @pytest.mark.parametrize("mode", ["three-frame", "least-squares"])
    def test_stationary_track_reported_in_other_modes(self, mode, planar_files, tmp_path):
        # three-frame used to report a track without motion as a degenerate offset fit
        _, tracks_path, _ = planar_files
        merged = tmp_path / "with-static.csv"
        merged.write_text(
            tracks_path.read_text()
            + "still,0,111.0,222.0\nstill,1,111.0,222.0\nstill,2,111.0,222.0\n"
        )
        out = tmp_path / "est.json"
        code = run(
            "estimate", merged, "--intrinsics", "800,320,240",
            "--mode", mode, "--horizon", "0,240", "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        entry = next(e for e in doc["estimates"] if e["track_id"] == "still")
        assert entry["status"] == "stationary"
        assert entry["message"] == "zero pixel displacement between frames"
        assert entry["H"] == 0.0
        assert entry["classification"] == "ConstantBearing"
        assert doc["residuals"]["ok_tracks"] == 4
        assert "still" not in [e["track_id"] for e in doc["epipoles"]]

    def test_underflowing_span_is_zero_flow(self, planar_files, tmp_path):
        # the span is not 0, but its squared norm underflows: every command
        # must treat it as zero flow, as the flow kernels do
        _, tracks_path, _ = planar_files
        merged = tmp_path / "with-tiny.csv"
        merged.write_text(tracks_path.read_text() + "tiny,0,0.0,0.0\ntiny,1,1e-170,0.0\ntiny,2,2e-170,0.0\n")
        entries = {}
        for mode in ("planar", "three-frame", "least-squares"):
            out = tmp_path / f"{mode}.json"
            code = run(
                "estimate", merged, "--intrinsics", "800,320,240",
                "--mode", mode, "--horizon", "0,240", "--out", out,
            )
            assert code == 0
            entries[mode] = next(e for e in read_json(out)["estimates"] if e["track_id"] == "tiny")
        assert {entry["status"] for entry in entries.values()} == {"stationary"}
        # planar cuts the first-to-last flow, the others decompose the first pair
        assert entries["planar"]["message"] == "zero displacement at pixel [0. 0.]"
        assert entries["three-frame"]["message"] == "zero pixel displacement between frames"
        assert entries["least-squares"]["message"] == "zero pixel displacement between frames"
        out = tmp_path / "clusters.json"
        assert run("cluster", merged, "--intrinsics", "800,320,240", "--out", out) == 0
        assert read_json(out)["stationary"] == ["tiny"]

    @pytest.mark.parametrize("mode", ["planar", "three-frame"])
    def test_classification_follows_k(self, mode, tmp_path):
        # P0 = (0, 0.5, 10) moving v = (1, 0, -1), seen at frames 6-9: its
        # collision plane swept the camera one frame before frame 6
        p = np.array([0.0, 0.5, 10.0]) + np.arange(6, 10)[:, np.newaxis] * [1.0, 0.0, -1.0]
        u = 640.0 + 800.0 * p[:, 0] / p[:, 2]
        v = 360.0 + 800.0 * p[:, 1] / p[:, 2]
        tracks = tmp_path / "past.csv"
        tracks.write_text(
            "track_id,frame,u,v\n"
            + "".join(f"past,{f},{a!r},{b!r}\n" for f, a, b in zip(range(6, 10), u.tolist(), v.tolist()))
        )
        out = tmp_path / "est.json"
        code = run(
            "estimate", tracks, "--intrinsics", "800,640,360",
            "--mode", mode, "--horizon", "0,360", "--out", out,
        )
        assert code == 0
        (entry,) = read_json(out)["estimates"]
        assert entry["status"] == "ok"
        assert entry["k"] == pytest.approx(-1.0, rel=1e-9)
        assert entry["classification"] == "Receding"

    def test_bad_intrinsics(self, planar_files, capsys):
        _, tracks_path, _ = planar_files
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320",
            "--mode", "planar", "--horizon", "0,240",
        )
        assert code == 2
        assert "--intrinsics" in capsys.readouterr().err

    def test_fractional_image_size_rejected(self, planar_files, tmp_path, capsys):
        # int() would take 640.5 as a width of 640
        _, tracks_path, _ = planar_files
        out = tmp_path / "est.json"
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240,640.5,480",
            "--mode", "least-squares", "--out", out,
        )
        assert code == 2
        assert "--intrinsics: width and height must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_horizon_string(self, planar_files, capsys):
        _, tracks_path, _ = planar_files
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--mode", "planar", "--horizon", "0,two40",
        )
        assert code == 2
        assert "--horizon" in capsys.readouterr().err

    def test_horizon_and_calibrate_exclusive(self, planar_files):
        _, tracks_path, _ = planar_files
        code = run(
            "estimate", tracks_path, "--intrinsics", "800,320,240",
            "--horizon", "0,240", "--calibrate",
        )
        assert code == 2

    def test_rerun_byte_identical(self, planar_files, tmp_path):
        _, tracks_path, _ = planar_files
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"est-{tag}.json"
            assert run(
                "estimate", tracks_path, "--intrinsics", "800,320,240",
                "--mode", "planar", "--horizon", "0,240", "--out", out,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Tracks that reach every per-track outcome of `estimate` against the
# horizon v = 360 with f = 800 and principal point (640, 360).
HOSTILE_TRACKS = {
    "approaching": [(700.0, 400.0), (710.0, 404.0), (722.0, 408.8)],
    "receding": [(722.0, 408.8), (710.0, 404.0), (700.0, 400.0)],
    # P0 = (0, 0.5, 10), v = (1, 0, -1) seen at frames 6-9
    "past-sweep": [(640.0 + 800.0 * (f / (10.0 - f)), 360.0 + 400.0 / (10.0 - f)) for f in range(6, 10)],
    "zero-first-pair": [(500.0, 300.0), (500.0, 300.0), (510.0, 305.0)],
    # steps whose squared norm underflows: zero flow, though not exactly 0
    "underflow-span": [(0.0, 0.0), (1e-170, 0.0), (2e-170, 0.0)],
    "underflow-first-pair": [(0.0, 0.0), (1e-170, 0.0), (30.0, 20.0)],
    "zero-span": [(500.0, 300.0), (510.0, 305.0), (500.0, 300.0)],
    "still": [(111.0, 222.0)] * 3,
    "parallel": [(500.0, 300.0), (510.0, 300.0), (520.0, 300.0)],
    "epipole-on-point": [(640.0, 360.0), (650.0, 361.0), (660.0, 362.0)],
    "two-frame": [(400.0, 200.0), (405.0, 198.0)],
    "uniform-angle": [(600.0, 380.0), (601.0, 381.0), (602.0, 382.0)],
}


class TestEstimateArrayPath:
    """`estimate` computes every track at once; each of its entries must
    equal the per-track library calls."""

    @pytest.fixture
    def hostile_tracks(self, tmp_path):
        rng = np.random.default_rng(17)
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))
        # noisy tracks with vertical motion, so three-frame offsets are nonzero
        objects = tuple(
            SceneObject(
                f"obj{i}",
                np.column_stack([rng.uniform(-4.0, 4.0, 12), rng.uniform(0.3, 1.5, 12), rng.uniform(12.0, 30.0, 12)]),
                np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1), -rng.uniform(0.8, 1.5)]),
            )
            for i in range(3)
        )
        scene = tmp_path / "scene.json"
        write_scenario(scene, Scenario(
            intrinsics=intr, objects=objects, camera_velocity=np.zeros(3),
            frame_count=4, pixel_noise_sigma=0.3, rng_seed=5,
        ))
        path = tmp_path / "tracks.csv"
        assert run("simulate", scene, "--out-tracks", path, "--out-truth", tmp_path / "truth.json") == 0
        rows = "".join(
            f"{tid},{f},{u!r},{v!r}\n" for tid, pixels in HOSTILE_TRACKS.items() for f, (u, v) in enumerate(pixels)
        )
        path.write_text(path.read_text() + rows)
        return path

    @staticmethod
    def reference(mode, ids, tracks, horizon, intr):
        """The documents' estimates and epipoles, one library call per track."""
        estimates, epipoles = [], []
        shared = None
        if mode == "least-squares":
            flows = []
            for t in tracks:
                try:
                    flows.append(FlowVector(t.pixel(0), t.pixel(len(t) - 1)))
                except DegenerateFlow:
                    pass
            shared = epipole_least_squares(flows)
            epipoles.append({"track_id": None, "position": shared.position, "method": "LeastSquares",
                             "residual": shared.residual})
        for tid, track in zip(ids, tracks):
            entry = {"track_id": tid}
            try:
                if mode == "planar":
                    epi = planar_epipole(FlowVector(track.pixel(0), track.pixel(len(track) - 1)), horizon)
                elif mode == "three-frame":
                    offset, epi = epipole_offset_three_frames(track, horizon, intr)
                else:
                    epi = shared
                est = collision_estimate(track, epi, intr)
            except (DegenerateFlow, StationaryPoint) as exc:
                entry.update(status="stationary", message=str(exc), classification="ConstantBearing", k=None, H=0.0)
            except TtcError as exc:
                entry.update(status=f"degenerate:{type(exc).__name__}", message=str(exc),
                             classification=None, k=None, H=None)
            else:
                entry.update(status="ok", k=est.k, H=est.H, v_g_dir=est.v_g_dir, point=est.point,
                             classification="Approaching" if est.k > 0.0 else "Receding")
                if mode == "three-frame":
                    entry["offset_angle_rad"] = offset
                if epi is not shared:
                    epipoles.append({"track_id": tid, "position": epi.position, "method": epi.method.value,
                                     "residual": epi.residual})
            estimates.append(entry)
        return estimates, epipoles

    @pytest.mark.parametrize("mode", ["planar", "three-frame", "least-squares"])
    def test_entries_equal_per_track_calls(self, mode, hostile_tracks, tmp_path):
        out = tmp_path / "est.json"
        assert run(
            "estimate", hostile_tracks, "--intrinsics", "800,640,360",
            "--mode", mode, "--horizon", "0,360", "--out", out,
        ) == 0
        doc = read_json(out)
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0))
        ids, tracks = read_tracks_csv(hostile_tracks)
        estimates, epipoles = self.reference(mode, ids, tracks, HorizonLine.from_slope_intercept(0.0, 360.0), intr)
        # three-frame offsets are ill-conditioned: looser bars
        rel, px = (1e-10, 1e-6) if mode == "three-frame" else (1e-12, 1e-9)
        statuses = {e["status"] for e in estimates}
        assert {"ok", "stationary"} <= statuses
        if mode != "least-squares":
            assert any(s.startswith("degenerate:") for s in statuses)
        assert len(doc["estimates"]) == len(estimates)
        for got, want in zip(doc["estimates"], estimates):
            assert set(got) == set(want)
            for key, value in want.items():
                if key in ("k", "H", "offset_angle_rad", "v_g_dir", "point") and value is not None:
                    np.testing.assert_allclose(got[key], value, rtol=rel, atol=1e-12, err_msg=str(want))
                else:
                    assert got[key] == value, (got, want)
        assert len(doc["epipoles"]) == len(epipoles)
        for got, want in zip(doc["epipoles"], epipoles):
            assert got["track_id"] == want["track_id"]
            assert got["method"] == want["method"]
            np.testing.assert_allclose(got["position"], want["position"], rtol=0.0, atol=px)
            assert got["residual"] == pytest.approx(want["residual"], rel=rel, abs=1e-12)


class TestClusterCommand:
    @pytest.fixture
    def noisy_tracks(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scenario(scene, triple_scenario(seed=5, noise=0.3))
        tracks = tmp_path / "t.csv"
        truth = tmp_path / "g.json"
        assert run("simulate", scene, "--out-tracks", tracks, "--out-truth", truth) == 0
        return tracks

    def test_exact_membership_by_id(self, noisy_tracks, tmp_path):
        out = tmp_path / "clusters.json"
        code = run(
            "cluster", noisy_tracks, "--intrinsics", "700,320,240",
            "--seed", 5, "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        assert doc["outliers"] == []
        assert doc["stationary"] == []
        groups = {frozenset(c["member_ids"]) for c in doc["clusters"]}
        assert groups == {
            frozenset(f"obj0-{i}" for i in range(0, 8)),
            frozenset(f"obj1-{i}" for i in range(8, 16)),
            frozenset(f"obj2-{i}" for i in range(16, 24)),
        }
        assert doc["residuals"]["clustered_tracks"] == 24

    def test_too_few_tracks(self, tmp_path):
        # fewer moving tracks than --min-size: no cluster, not an error
        csv = tmp_path / "two.csv"
        csv.write_text(
            "track_id,frame,u,v\n"
            "a,0,0.0,0.0\na,1,5.0,0.0\n"
            "b,0,10.0,10.0\nb,1,10.0,15.0\n"
            "s,0,1.0,1.0\ns,1,1.0,1.0\n"
        )
        out = tmp_path / "c.json"
        assert run("cluster", csv, "--intrinsics", "700,320,240", "--out", out) == 0
        doc = read_json(out)
        assert doc["clusters"] == []
        assert doc["outliers"] == ["a", "b"]
        assert doc["stationary"] == ["s"]

    def test_stationary_tracks_set_aside(self, noisy_tracks, tmp_path):
        merged = tmp_path / "with-static.csv"
        merged.write_text(
            noisy_tracks.read_text() + "still,0,111.0,222.0\nstill,1,111.0,222.0\n"
        )
        out = tmp_path / "c.json"
        code = run(
            "cluster", merged, "--intrinsics", "700,320,240", "--seed", 5, "--out", out,
        )
        assert code == 0
        doc = read_json(out)
        assert doc["stationary"] == ["still"]
        assert sum(len(c["member_ids"]) for c in doc["clusters"]) == 24

    def test_rerun_byte_identical(self, noisy_tracks, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"c-{tag}.json"
            assert run(
                "cluster", noisy_tracks, "--intrinsics", "700,320,240",
                "--seed", 5, "--out", out,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_min_size(self, noisy_tracks, capsys):
        code = run(
            "cluster", noisy_tracks, "--intrinsics", "700,320,240", "--min-size", 2,
        )
        assert code == 2
        assert "min_cluster_size" in capsys.readouterr().err

    def test_env_seed_used(self, noisy_tracks, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLLISION_PLANE_SEED", "123")
        code = run("cluster", noisy_tracks, "--intrinsics", "700,320,240")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 123

    def test_env_seed_invalid(self, noisy_tracks, monkeypatch, capsys):
        monkeypatch.setenv("COLLISION_PLANE_SEED", "not-a-number")
        code = run("cluster", noisy_tracks, "--intrinsics", "700,320,240")
        assert code == 2
        assert "COLLISION_PLANE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--eps-dist", "nan"), ("--eps-ttc", "nan"), ("--eps-dist", "inf")])
    def test_non_finite_threshold_rejected(self, noisy_tracks, tmp_path, capsys, flag, value):
        out = tmp_path / "c.json"
        code = run("cluster", noisy_tracks, "--intrinsics", "700,320,240", flag, value, "--out", out)
        assert code == 2
        assert flag[2:].replace("-", "_") + " must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestCollisionMapCommand:
    @pytest.fixture
    def wall_scene(self, tmp_path):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
        wall = SceneObject(
            "wall", np.array([[0.0, 0.0, 30.0], [0.4, 0.1, 30.5]]), np.zeros(3)
        )
        scenario = Scenario(
            intrinsics=intr,
            objects=(wall,),
            camera_velocity=np.array([0.0, 0.0, 1.2]),
            frame_count=40,
        )
        path = tmp_path / "wall.json"
        write_scenario(path, scenario)
        return path

    def test_grid_written(self, wall_scene, tmp_path):
        out = tmp_path / "map.csv"
        code = run("collision-map", wall_scene, "--grid", "2,2,5,5", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 26  # header + 25 cells
        center = [l for l in lines[1:] if l.startswith("0.0,0.0,")]
        assert center == ["0.0,0.0,25.0,0.0,1"]

    def test_even_cells_rejected(self, wall_scene, tmp_path, capsys):
        code = run(
            "collision-map", wall_scene, "--grid", "2,2,4,5", "--out", tmp_path / "m.csv"
        )
        assert code == 2
        assert "odd" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", ["11.7,3", "5,inf"])
    def test_non_integer_cells_rejected(self, cells, wall_scene, tmp_path, capsys):
        # int() would write an 11 x 3 map for 11.7 cells, and fail on inf
        out = tmp_path / "m.csv"
        code = run("collision-map", wall_scene, "--grid", f"1,1,{cells}", "--out", out)
        assert code == 2
        assert "--grid: cell counts must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_radius_rejected(self, wall_scene, tmp_path):
        code = run(
            "collision-map", wall_scene, "--grid", "2,2,3,3",
            "--radius", "-1.0", "--out", tmp_path / "m.csv",
        )
        assert code == 2

    def test_rerun_byte_identical(self, wall_scene, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("collision-map", wall_scene, "--grid", "2,2,5,5", "--out", a) == 0
        assert run("collision-map", wall_scene, "--grid", "2,2,5,5", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSensitivityCommand:
    def test_preset_requires_pixel_pitch(self, tmp_path, capsys):
        code = run(
            "sensitivity", "--preset", "approach-45deg", "--out", tmp_path / "s.csv"
        )
        assert code == 2
        assert "--pixel-pitch-um" in capsys.readouterr().err

    def test_preset_sweep(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", 10,
            "--z-values", "20,40", "--trials", 10, "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("20.0,")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--baseline-m", 0.3),
            ("--focal-px", 800),
            ("--focal-mm", 8),
            ("--detection-error-px", 0.1),
            ("--speed-kmh", 0),
            ("--heading-deg", 45),
        ],
    )
    def test_rig_flags_rejected_beside_preset(self, flag, value, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", 10, flag, value,
            "--z-values", "20", "--trials", 5, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: --preset approach-45deg fixes the rig; drop {flag}\n"
        assert not out.exists()

    def test_focal_px_and_mm_exclusive(self, tmp_path, capsys):
        code = run(
            "sensitivity", "--focal-px", 800, "--focal-mm", 8,
            "--z-values", "20", "--trials", 5, "--out", tmp_path / "s.csv",
        )
        assert code == 2
        assert "--focal-px or --focal-mm" in capsys.readouterr().err

    def test_focal_required(self, tmp_path):
        code = run("sensitivity", "--z-values", "20", "--trials", 5, "--out", tmp_path / "s.csv")
        assert code == 2

    def test_non_finite_detection_error_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--focal-px", 800, "--detection-error-px", "nan",
            "--trials", 10, "--out", out,
        )
        assert code == 2
        assert "detection_error_px must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--focal-px", 800, "--frame-dt", "nan"), "frame_dt must be finite, got nan"),
            (("--focal-px", 800, "--frame-dt", "inf"), "frame_dt must be finite, got inf"),
            (("--focal-px", 800, "--z-values", "20,inf"), "z_values must be finite, got inf"),
            (("--focal-mm", 8, "--pixel-pitch-um", "inf"), "pixel_pitch_um must be finite, got inf"),
        ],
        ids=["frame-dt-nan", "frame-dt-inf", "z-values-inf", "pixel-pitch-um-inf"],
    )
    def test_non_finite_sweep_input_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.csv"
        code = run("sensitivity", *flags, "--trials", 10, "--out", out)
        assert code == 2
        # the message alone: no numpy warning ahead of it
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_depth_whose_error_fits_but_whose_square_does_not(self, tmp_path, capsys):
        # Z^2 = 1e310 overflows, the depth error Z^2 dp / (B f) does not
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", 10,
            "--z-values", "1e155,10", "--trials", 20, "--out", out,
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = out.read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["1e+155", "1.6666666666666669e+307"], ["10.0", "0.16666666666666666"],
        ]

    @pytest.mark.parametrize("z", ["1e160", "1e308"])
    def test_depth_whose_row_overflows(self, tmp_path, capsys, z):
        # 1e160: the depth error overflows; 1e308: the trial means too
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", 10,
            "--z-values", f"20,{z}", "--trials", 20, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: Z = {float(z)} m: sensitivity row overflows float64\n"
        assert not out.exists()

    def test_zero_detection_error_zero_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            "sensitivity", "--focal-px", 800, "--detection-error-px", 0,
            "--z-values", "30", "--trials", 5, "--out", out,
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == 0.0
        assert abs(float(row[2])) < 1e-9
        assert abs(float(row[3])) < 1e-9

    def test_doubled_baseline_halves_depth_error(self, tmp_path):
        def depth_err(baseline):
            out = tmp_path / f"s-{baseline}.csv"
            assert run(
                "sensitivity", "--focal-px", 800, "--baseline-m", baseline,
                "--z-values", "60", "--trials", 5, "--out", out,
            ) == 0
            return float(out.read_text().splitlines()[1].split(",")[1])

        assert depth_err(0.15) == pytest.approx(6.0)
        assert depth_err(0.30) == pytest.approx(3.0)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", 10,
                "--z-values", "15,30", "--trials", 20, "--seed", 4, "--out", out,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_z_values(self, tmp_path, capsys):
        code = run(
            "sensitivity", "--focal-px", 800, "--z-values", "ten",
            "--trials", 5, "--out", tmp_path / "s.csv",
        )
        assert code == 2
        assert "--z-values" in capsys.readouterr().err


class TestSeedValidation:
    """A seed must be a non-negative integer whichever source gives it;
    anything else is an input error (exit 2) naming that source."""

    @pytest.fixture
    def scene(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scenario(path, planar_scenario(n_objects=2, noise=0.2, seed=3))
        return path

    @pytest.fixture
    def tracks(self, tmp_path, scene):
        path = tmp_path / "t.csv"
        assert run("simulate", scene, "--out-tracks", path, "--out-truth", tmp_path / "g.json") == 0
        return path

    @staticmethod
    def assert_rejected(code, capsys, message, out):
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_simulate_seed_flag(self, tmp_path, scene, capsys):
        out = tmp_path / "t2.csv"
        code = run("simulate", scene, "--out-tracks", out, "--out-truth", tmp_path / "g2.json", "--seed", -1)
        self.assert_rejected(code, capsys, "--seed must be a non-negative integer, got -1", out)

    @pytest.mark.parametrize("value", [-1, 1.5])
    def test_scenario_rng_seed(self, tmp_path, scene, capsys, value):
        doc = read_json(scene)
        doc["rng_seed"] = value
        scene.write_text(json.dumps(doc))
        out = tmp_path / "t2.csv"
        code = run("simulate", scene, "--out-tracks", out, "--out-truth", tmp_path / "g2.json")
        self.assert_rejected(code, capsys, f"rng_seed must be a non-negative integer, got {value}", out)

    def test_cluster_seed_flag(self, tmp_path, tracks, capsys):
        out = tmp_path / "c.json"
        code = run("cluster", tracks, "--intrinsics", "800,320,240", "--seed", -1, "--out", out)
        self.assert_rejected(code, capsys, "--seed must be a non-negative integer, got -1", out)

    def test_estimate_calibrate_seed_flag(self, tmp_path, tracks, capsys):
        out = tmp_path / "e.json"
        code = run(
            "estimate", tracks, "--intrinsics", "800,320,240", "--calibrate", "--seed", -1, "--out", out
        )
        self.assert_rejected(code, capsys, "--seed must be a non-negative integer, got -1", out)

    def test_sensitivity_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run("sensitivity", "--focal-px", 800, "--trials", 5, "--seed", -1, "--out", out)
        self.assert_rejected(code, capsys, "--seed must be a non-negative integer, got -1", out)

    def test_sensitivity_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLLISION_PLANE_SEED", "-3")
        out = tmp_path / "s.csv"
        code = run("sensitivity", "--focal-px", 800, "--trials", 5, "--out", out)
        self.assert_rejected(
            code, capsys, "COLLISION_PLANE_SEED must be a non-negative integer, got '-3'", out
        )


class TestMalformedInputs:
    """Malformed input files are input errors (exit 2) naming their path,
    field or id, not internal errors."""

    @staticmethod
    def assert_input_error(code, capsys, *names):
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "internal error" not in err
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--intrinsics", "800,320,240", "--mode", "planar", "--horizon", "0,240"],
            ["cluster", "--intrinsics", "800,320,240"],
        ],
        ids=["estimate", "cluster"],
    )
    def test_tracks_not_utf8(self, command, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_bytes(b"track_id,frame,u,v\ncar\xff,0,1.0,2.0\ncar\xff,1,1.5,2.0\n")
        out = tmp_path / "out.json"
        code = run(command[0], tracks, *command[1:], "--out", out)
        self.assert_input_error(code, capsys, str(tracks), "utf-8")
        assert not out.exists()

    @pytest.mark.parametrize("frame", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--intrinsics", "800,320,240", "--mode", "planar", "--horizon", "0,240"],
            ["estimate", "--intrinsics", "800,320,240", "--mode", "three-frame", "--horizon", "0,240"],
            ["estimate", "--intrinsics", "800,320,240", "--mode", "least-squares"],
            ["estimate", "--intrinsics", "800,320,240", "--calibrate"],
            ["cluster", "--intrinsics", "800,320,240"],
        ],
        ids=["planar", "three-frame", "least-squares", "calibrate", "cluster"],
    )
    def test_frame_index_beyond_64_bits(self, command, frame, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(f"track_id,frame,u,v\ncar,0,1.0,2.0\ncar,1,1.5,2.0\ncar,{frame},2.0,2.0\n")
        out = tmp_path / "out.json"
        code = run(command[0], tracks, *command[1:], "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tracks}: line 4: frame index must fit in a signed 64-bit integer\n"
        )
        assert not out.exists()

    @staticmethod
    def scenario_command(command, scene, tmp_path):
        if command == "simulate":
            return ["simulate", scene, "--out-tracks", tmp_path / "t.csv", "--out-truth", tmp_path / "g.json"]
        return ["collision-map", scene, "--grid", "2,2,5,5", "--out", tmp_path / "map.csv"]

    @pytest.mark.parametrize("command", ["simulate", "collision-map"])
    def test_scenario_not_utf8(self, command, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        scene.write_bytes(scene.read_bytes().replace(b'"obj0"', b'"obj\xe9"'))
        code = run(*self.scenario_command(command, scene, tmp_path))
        self.assert_input_error(code, capsys, str(scene), "utf-8")

    @pytest.mark.parametrize("objects", [None, 3])
    @pytest.mark.parametrize("command", ["simulate", "collision-map"])
    def test_objects_not_a_list(self, command, objects, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        doc = read_json(scene)
        doc["objects"] = objects
        scene.write_text(json.dumps(doc))
        code = run(*self.scenario_command(command, scene, tmp_path))
        self.assert_input_error(code, capsys, f"objects must be a list, got {objects!r}")

    @pytest.mark.parametrize("object_id", ["car\rA", "car\x0bA", "car\u2028A", "car,A"])
    def test_simulate_rejects_ids_its_reader_would_split(self, object_id, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        doc = read_json(scene)
        doc["objects"][0]["id"] = object_id
        scene.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        code = run("simulate", scene, "--out-tracks", out, "--out-truth", tmp_path / "g.json")
        self.assert_input_error(code, capsys, f"track id {object_id + '-0'!r}")
        assert not out.exists()


    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--intrinsics", "800,320,240", "--mode", "planar", "--horizon", "0,360"],
            ["estimate", "--intrinsics", "800,320,240", "--mode", "three-frame", "--horizon", "0,360"],
            ["cluster", "--intrinsics", "800,320,240"],
        ],
        ids=["planar", "three-frame", "cluster"],
    )
    def test_frame_step_that_wraps_at_64_bits(self, command, tmp_path, capsys):
        # the int64 difference of the two frames of track a wraps to 1
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(f"track_id,frame,u,v\na,{2**63 - 1},1.0,2.0\na,{-(2**63)},1.5,2.0\n")
        out = tmp_path / "out.json"
        code = run(command[0], tracks, *command[1:], "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tracks}: track 'a': frame indices must increase by exactly 1, "
            "got steps [-18446744073709551615]\n"
        )
        assert not out.exists()

    # finite numbers whose relative motion or truth overflows float64
    OVERFLOWS = {
        "motion": ([0.0, 0.0, 1e308], [[1.0, 0.5, 10.0]], [0.0, 0.0, -1e308], "relative motion overflows"),
        "speed": ([0.0, 0.0, 0.0], [[1.0, 0.5, 10.0]], [1e200, 0.0, -1.0], "collision truth overflows"),
        "miss": ([0.0, 0.0, 0.0], [[1e300, 0.5, 10.0]], [0.0, 0.0, -1.0], "collision truth overflows"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    @pytest.mark.parametrize("command", ["simulate", "collision-map"])
    def test_scenario_that_overflows(self, command, case, tmp_path, capsys):
        camera, points, velocity, message = self.OVERFLOWS[case]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "schema": 1,
            "intrinsics": {"focal_px": 800.0, "principal_point": [320.0, 240.0]},
            "camera_velocity": camera,
            "frame_count": 3,
            "objects": [
                {"id": "still", "points": [[0.0, 0.0, 5.0]], "velocity": camera},
                {"id": "car", "points": points, "velocity": velocity},
            ],
        }))
        code = run(*self.scenario_command(command, scene, tmp_path))
        assert code == 2
        assert capsys.readouterr().err == f"error: object 'car': {message}\n"
        assert list(tmp_path.iterdir()) == [scene]

    def test_simulated_pixels_that_overflow(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "schema": 1,
            "intrinsics": {"focal_px": 1e300, "principal_point": [320.0, 240.0]},
            "frame_count": 3,
            "objects": [{"id": "wide", "points": [[1e10, 0.5, 1e-5]], "velocity": [0.0, 0.0, 1.0]}],
        }))
        code = run(*self.scenario_command("simulate", scene, tmp_path))
        assert code == 2
        assert capsys.readouterr().err == "error: object 'wide': pixels overflow\n"
        assert list(tmp_path.iterdir()) == [scene]

    def test_collision_map_cell_that_overflows(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        out = tmp_path / "map.csv"
        code = run("collision-map", scene, "--grid", "1e200,1e200,3,3", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: object 'obj0': collision truth overflows at camera velocity change "
            "[-1e+200, 0.0, -1e+200]\n"
        )
        assert not out.exists()


class TestExitCodes:
    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_missing_required_argument(self):
        assert run("simulate") == 2

    def test_internal_error_returns_one(self, tmp_path, monkeypatch, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())

        def boom(_scenario):
            raise RuntimeError("boom")

        monkeypatch.setattr("ttckit.cli.simulate", boom)
        code = run(
            "simulate", scene,
            "--out-tracks", tmp_path / "t.csv", "--out-truth", tmp_path / "g.json",
        )
        assert code == 1
        assert "internal error" in capsys.readouterr().err


class TestLazyNumpyModules:
    def test_loaded_only_when_used(self, tmp_path):
        """A noise-free simulate never imports numpy.random (about 5 MB)
        and cluster never imports numpy.ma (about 0.6 MB); the probe does
        see both once a noisy simulate and np.median have run."""
        write_scenario(tmp_path / "scene.json", triple_scenario(seed=5, noise=0.0))
        probe = """
import sys
import numpy as np
from ttckit.cli import main
scene, tracks, truth, out = sys.argv[1:]
loaded = []
assert main(["simulate", scene, "--out-tracks", tracks, "--out-truth", truth]) == 0
loaded.append("numpy.random" in sys.modules)
assert main(["cluster", tracks, "--intrinsics", "700,320,240", "--out", out]) == 0
loaded.append("numpy.ma" in sys.modules)
assert main(["simulate", scene, "--out-tracks", tracks, "--out-truth", truth, "--noise-sigma", "0.1"]) == 0
loaded.append("numpy.random" in sys.modules)
np.median(np.ones(3))
loaded.append("numpy.ma" in sys.modules)
print(loaded)
"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        names = ("scene.json", "t.csv", "g.json", "c.json")
        done = subprocess.run(
            [sys.executable, "-c", probe, *(str(tmp_path / name) for name in names)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[False, False, True, True]"


class TestCommaListValues:
    """A comma-list value that starts with '-' is read as a value, as its
    --option=value form is, not as an unknown flag."""

    def test_negative_horizon_same_as_equals_form(self, planar_files, tmp_path, capsys):
        _, tracks, _ = planar_files
        outs = []
        for horizon in (["--horizon", "-0.1,272"], ["--horizon=-0.1,272"]):
            out = tmp_path / f"est{len(outs)}.json"
            code = run("estimate", tracks, "--intrinsics", "800,320,240", "--mode", "planar", *horizon, "--out", out)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        du, dv = read_json(tmp_path / "est0.json")["horizon"]["direction"]
        assert dv / du == pytest.approx(-0.1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "{tracks}", "--intrinsics", "-800,320,240", "--mode", "least-squares"], "focal_px must be positive"),
        (["cluster", "{tracks}", "--intrinsics", "-800,320,240"], "focal_px must be positive"),
        (["collision-map", "{scene}", "--grid", "-2,2,5,5", "--out", "{out}"], "lateral_extent must be finite and >= 0"),
        (["sensitivity", "--focal-px", "800", "--z-values", "-10,20", "--out", "{out}"], "Z = -10.0 m leaves the segment behind"),
    ])
    def test_every_comma_list_option_reaches_its_check(self, argv, message, planar_files, tmp_path, capsys):
        scene, tracks, _ = planar_files
        paths = {"{tracks}": tracks, "{scene}": scene, "{out}": tmp_path / "out.csv"}
        assert run(*[paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag, usage", [
        (["--bogus"], "ttckit: error: unrecognized arguments: --bogus\n"),
        (["--horizon", "--bogus"], "ttckit estimate: error: argument --horizon: expected one argument\n"),
    ])
    def test_unknown_flag_still_a_usage_error(self, flag, usage, planar_files, capsys):
        _, tracks, _ = planar_files
        assert run("estimate", tracks, "--intrinsics", "800,320,240", *flag) == 2
        assert capsys.readouterr().err.endswith(usage)


class TestErrorPathMessages:
    """Errors of the main() handlers and of read_scenario's wrapping: exit
    2, one stderr line with the exact message, and no output file."""

    @staticmethod
    def assert_one_error(code, capsys, message, out):
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.fixture
    def parallel_tracks(self, tmp_path):
        """Three horizontal flows: their lines never meet."""
        tracks = tmp_path / "parallel.csv"
        tracks.write_text(
            "track_id,frame,u,v\n"
            "a,0,100.0,100.0\na,1,110.0,100.0\n"
            "b,0,100.0,200.0\nb,1,120.0,200.0\n"
            "c,0,50.0,300.0\nc,1,60.0,300.0\n"
        )
        return tracks

    def test_least_squares_on_parallel_flows(self, parallel_tracks, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run("estimate", parallel_tracks, "--intrinsics", "800,320,240", "--mode", "least-squares", "--out", out)
        self.assert_one_error(code, capsys, "degenerate input: all flow lines parallel; epipole unconstrained", out)

    def test_calibrate_without_two_clusters(self, parallel_tracks, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run("estimate", parallel_tracks, "--intrinsics", "800,320,240", "--calibrate", "--out", out)
        self.assert_one_error(code, capsys, "horizon calibration needs >= 2 motion clusters, found 0", out)

    @pytest.mark.parametrize("command", [
        ["estimate", "--intrinsics", "800,320,240", "--mode", "least-squares"],
        ["cluster", "--intrinsics", "800,320,240"],
    ], ids=["estimate", "cluster"])
    def test_missing_track_file(self, command, tmp_path, capsys):
        tracks, out = tmp_path / "absent.csv", tmp_path / "out.json"
        code = run(command[0], tracks, *command[1:], "--out", out)
        self.assert_one_error(code, capsys, f"[Errno 2] No such file or directory: '{tracks}'", out)

    def test_output_directory_missing(self, parallel_tracks, tmp_path, capsys):
        out = tmp_path / "nodir" / "o.json"
        code = run("cluster", parallel_tracks, "--intrinsics", "800,320,240", "--out", out)
        self.assert_one_error(code, capsys, f"[Errno 2] No such file or directory: '{out}'", out)

    @pytest.mark.parametrize("flags, message", [
        (["--focal-mm", "8"], "--focal-mm needs --pixel-pitch-um to convert to pixels"),
        (["--focal-px", "800", "--z-values", ","], "--z-values: need at least one depth"),
    ])
    def test_sensitivity_flags(self, flags, message, tmp_path, capsys):
        out = tmp_path / "s.csv"
        self.assert_one_error(run("sensitivity", *flags, "--out", out), capsys, message, out)

    @pytest.mark.parametrize("where, key, value, message", [
        ("intrinsics", "principal_point", 5, "scenario: intrinsics: 'int' object is not iterable"),
        ("object", "points", "x", "scenario: objects[0]: could not convert string to float: 'x'"),
        ("scenario", "pixel_noise_sigma", "x", "scenario: could not convert string to float: 'x'"),
    ])
    def test_scenario_field_of_wrong_type(self, where, key, value, message, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        doc = read_json(scene)
        {"intrinsics": doc["intrinsics"], "object": doc["objects"][0], "scenario": doc}[where][key] = value
        scene.write_text(json.dumps(doc))
        tracks = tmp_path / "t.csv"
        code = run("simulate", scene, "--out-tracks", tracks, "--out-truth", tmp_path / "g.json")
        self.assert_one_error(code, capsys, message, tracks)
        assert sorted(tmp_path.iterdir()) == [scene]
