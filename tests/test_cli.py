"""End-to-end CLI tests, run in-process through main(argv).

Covers the exit code contract (0 success, 2 input errors, 1 internal),
per-track degeneracy reporting, determinism of rerun outputs, and
closure of CLI estimates against simulator ground truth.
"""

import dataclasses
import importlib
import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ttckit import (
    CameraIntrinsics,
    DegenerateFlow,
    FlowVector,
    HorizonLine,
    InvalidInput,
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
from ttckit.fileio import read_json, read_scenario, read_tracks_csv, write_scenario


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


# the fields of a scenario file by part, each owned by one constructor's rule
SCENARIO_FIELDS = {
    "intrinsics": ("focal_px", "principal_point", "image_size", "allow_off_center"),
    "object": ("points", "velocity"),
    "scenario": ("camera_velocity", "frame_count", "pixel_noise_sigma", "rng_seed"),
}
BAD_FIELD_VALUES = [10**399, "x", 5, -1.5, None, math.nan, math.inf, [], [[], 1], [1.0], [[1.0, 2.0]], "false", {}]


def constructor_message(where, key, value):
    """The InvalidInput message of the constructor owning field key of
    planar_scenario()'s part where, given value; None if it takes value."""
    scene = planar_scenario()
    obj = scene.objects[0]
    try:
        if where == "intrinsics":
            CameraIntrinsics(**{**vars(scene.intrinsics), key: value})
        elif where == "object":
            SceneObject(**{**vars(obj), key: value})
        else:
            Scenario(**{**vars(scene), key: value})
    except InvalidInput as exc:
        return str(exc)
    return None


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

    def test_failed_truth_write_leaves_no_tracks(self, planar_files, tmp_path, capsys):
        scene, _, _ = planar_files
        tracks, truth = tmp_path / "t.csv", tmp_path / "absent" / "g.json"
        assert run("simulate", scene, "--out-tracks", tracks, "--out-truth", truth) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err and err.count("\n") == 1
        assert not tracks.exists() and not truth.exists()
        # the tracks file that is removed is a regular one: a device, and a symlink and its target, are kept
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("an earlier result\n")
        link.symlink_to(target)
        for path in (os.devnull, link):
            assert run("simulate", scene, "--out-tracks", path, "--out-truth", truth) == 2
            assert "No such file or directory" in capsys.readouterr().err
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert link.is_symlink() and target.is_file() and not truth.exists()

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
        assert entries["planar"]["message"] == "zero displacement at pixel [0.0, 0.0]"
        assert entries["three-frame"]["message"] == "zero pixel displacement between frames"
        assert entries["least-squares"]["message"] == "zero pixel displacement between frames"
        out = tmp_path / "clusters.json"
        assert run("cluster", merged, "--intrinsics", "800,320,240", "--out", out) == 0
        assert read_json(out)["stationary"] == ["tiny"]

    # One track per way a track can fail, at intrinsics 800,640,360 and
    # horizon v = 360: still; flowing along the horizon; two frames; its
    # first pixel on the horizon cut; uniformly spaced tangents; and the
    # same angle from the principal point, where its planar epipole lies,
    # at frames 0 and 1.
    MIXED_TRACKS = {
        "still": [(500.0, 300.0), (500.0, 300.0), (500.0, 300.0)],
        "parallel": [(500.0, 300.0), (510.0, 300.0), (520.0, 300.0)],
        "short": [(400.0, 200.0), (405.0, 198.0)],
        "on-epipole": [(640.0, 360.0), (650.0, 361.0), (660.0, 362.0)],
        "uniform": [(600.0, 380.0), (601.0, 381.0), (602.0, 382.0)],
        "bearing": [(610.0, 320.0), (680.0, 390.0), (670.0, 400.0)],
    }
    ZERO_FLOW = ("stationary", "zero pixel displacement between frames", None, 0.0, "ConstantBearing")
    PARALLEL = ("degenerate:ParallelToHorizon", "flow direction [1.0, 0.0] within 0.5 deg of the horizon",
                None, None, None)
    # (status, message, k, H, classification) of each track, in file order
    MIXED_ENTRIES = {
        "planar": [
            ("stationary", "zero displacement at pixel [500.0, 300.0]", None, 0.0, "ConstantBearing"),
            PARALLEL,
            ("ok", None, 61.24390243902465, 27.746593276103518, "Approaching"),
            ("degenerate:DegenerateGeometry", "epipole coincides with a track point", None, None, None),
            ("ok", None, 20.960845245494134, 0.7393466496050716, "Approaching"),
            ("stationary", "angular motion below threshold", None, 0.0, "ConstantBearing"),
        ],
        "three-frame": [
            ZERO_FLOW,
            PARALLEL,
            ("degenerate:InsufficientData", "need at least 3 frames, got 2", None, None, None),
            ("degenerate:DegenerateConfiguration", "offset denominator 0.000e+00 below 1.000e-12", None, None, None),
            ("degenerate:DegenerateGeometry", "angle -1.5707963267949925 maps to a point at infinity on the line",
             None, None, None),
            ("degenerate:DegenerateConfiguration", "corrected epipole leaves TTC undefined", None, None, None),
        ],
        "least-squares": [
            ZERO_FLOW,
            ("ok", None, 13.697542160141298, 0.6198626462813909, "Approaching"),
            ("ok", None, -38.923154528530276, 5.078135170437493, "Receding"),
            ("ok", None, 19.663967905316444, 4.321438943220819, "Approaching"),
            ("ok", None, 108.41742237610235, 21.33622873838225, "Approaching"),
            ("ok", None, 2.2750835855811653, 0.36479441488839887, "Approaching"),
        ],
    }

    @pytest.mark.parametrize("mode", ["planar", "three-frame", "least-squares"])
    def test_every_reason_of_each_mode(self, mode, tmp_path):
        tracks = tmp_path / "mixed.csv"
        tracks.write_text("track_id,frame,u,v\n" + "".join(
            f"{tid},{f},{u!r},{v!r}\n" for tid, pixels in self.MIXED_TRACKS.items() for f, (u, v) in enumerate(pixels)
        ))
        out = tmp_path / "est.json"
        assert run(
            "estimate", tracks, "--intrinsics", "800,640,360", "--mode", mode, "--horizon", "0,360", "--out", out,
        ) == 0
        entries = read_json(out)["estimates"]
        assert [e["track_id"] for e in entries] == list(self.MIXED_TRACKS)
        got = [(e["status"], e.get("message"), e["k"], e["H"], e["classification"]) for e in entries]
        assert got == self.MIXED_ENTRIES[mode]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_decomposition_is_degenerate(self, tmp_path):
        # the horizon near 1e308 overflows the tangents of the planar
        # epipole: the track gets a reason code, not an ok entry of NaN
        tracks = tmp_path / "bearing.csv"
        tracks.write_text("track_id,frame,u,v\n" + "".join(
            f"bearing,{f},{u!r},{v!r}\n" for f, (u, v) in enumerate(self.MIXED_TRACKS["bearing"])
        ))
        out = tmp_path / "est.json"
        assert run(
            "estimate", tracks, "--intrinsics", "800,640,360", "--mode", "planar", "--horizon", "0,1e308", "--out", out,
        ) == 0
        (entry,) = read_json(out)["estimates"]
        assert (entry["status"], entry["message"], entry["k"], entry["H"]) == (
            "degenerate:DegenerateGeometry", "collision-plane values overflow float64", None, None,
        )

    @pytest.mark.parametrize("mode", ["planar", "three-frame", "least-squares"])
    def test_messages_ignore_numpy_print_options(self, mode, tmp_path, capsys):
        # a still track at a pixel of many digits, one flowing 0.1 deg off
        # the horizon, and one valid track for the least-squares fit
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(
            "track_id,frame,u,v\n"
            + "".join(f"still,{f},500.123456789,300.987654321\n" for f in range(3))
            + "".join(f"parallel,{f},{500.5 + 10 * f!r},{300.25 + 0.02 * f!r}\n" for f in range(3))
            + "".join(f"valid,{f},{400.0 + 5 * f!r},{200.0 - 2 * f!r}\n" for f in range(3))
        )

        def estimate():
            out = tmp_path / "est.json"
            code = run(
                "estimate", tracks, "--intrinsics", "800,640,360", "--mode", mode, "--horizon", "0,360", "--out", out,
            )
            return code, out.read_bytes(), capsys.readouterr()

        plain = estimate()
        options = np.get_printoptions()
        np.set_printoptions(precision=3, threshold=5)
        try:
            assert estimate() == plain
        finally:
            np.set_printoptions(**options)
        assert plain[0] == 0

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
        assert "image_size must be positive integers, got (640.5, 480.0)" in capsys.readouterr().err
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

    @pytest.mark.parametrize("cells, message", [
        ("11.7,3", "lateral_cells must be an odd positive integer, got 11.7"),
        ("5,inf", "forward_cells must be an odd positive integer, got inf"),
    ], ids=["11.7,3", "5,inf"])
    def test_non_integer_cells_rejected(self, cells, message, wall_scene, tmp_path, capsys):
        # int() would write an 11 x 3 map for 11.7 cells, and fail on inf
        out = tmp_path / "m.csv"
        code = run("collision-map", wall_scene, "--grid", f"1,1,{cells}", "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
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


# The track CSVs the result writers see: hostile ids (quotes, backslashes,
# control characters, non-ASCII text, '%'), a BOM, CRLF, blank lines,
# interleaved and duplicate ids, and pixels within +-1e6, -0.0 and
# subnormals included. Huge pixels and --horizon 0,1e308 are left out:
# their overflow warnings are known (ROADMAP item 8).
GRAMMAR_IDS = st.sampled_from(["a", "b", '"q"', "back\\slash", "\x01\x7f", "\u00e9", "\U0001f697", " a", "", "%s%%"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=4,
)
GRAMMAR_PIXELS = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 640.0, 360.0])


@st.composite
def grammar_csvs(draw):
    """Track CSV text of 1-6 tracks of 2-5 frames in the grammar above.
    The last track may take the first one's id: its rows then continue
    that track, or break its frame steps."""
    ids = draw(st.lists(GRAMMAR_IDS, min_size=1, max_size=6, unique=True))
    frame = dict.fromkeys(ids, 0)
    if len(ids) > 1 and draw(st.booleans()):
        ids[-1] = ids[0]
    queues = []
    for tid in ids:
        start = frame[tid] + draw(st.sampled_from([0, 0, 0, -1, 2]))
        u0, v0, du, dv = (draw(GRAMMAR_PIXELS) for _ in range(4))
        line = draw(st.booleans())  # uniform steps, or any pixels
        length = draw(st.integers(2, 5))
        queues.append([])
        for f in range(length):
            u, v = (u0 + f * du, v0 + f * dv) if line else (draw(GRAMMAR_PIXELS), draw(GRAMMAR_PIXELS))
            queues[-1].append(f"{tid},{start + f},{u!r},{v!r}")
        frame[tid] = start + length
    rows = []  # the tracks' rows interleaved, each track's in order
    for pick in draw(st.lists(st.integers(0, 5), max_size=30)):
        live = [queue for queue in queues if queue]
        if live:
            rows.append(live[pick % len(live)].pop(0))
    rows += [row for queue in queues for row in queue]
    lines = [fileio.TRACKS_HEADER, *rows]
    for at in draw(st.lists(st.integers(1, 40), max_size=2)):
        lines.insert(1 + at % len(lines), draw(st.sampled_from(["", " "])))
    bom = draw(st.sampled_from(["", "", "", "", "", "", "", "\ufeff"]))
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestCliGrammar:
    """estimate (every mode) and cluster on grammar_csvs: exit 0 with
    canonical JSON and finite ok entries, or exit 2 with one line of
    stderr; a rerun and the stdout path give the same bytes."""

    COMMANDS = (
        ("estimate", "--mode", "planar"), ("estimate", "--mode", "three-frame"),
        ("estimate", "--mode", "least-squares"), ("cluster", "--min-size", "3"),
    )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=grammar_csvs(), horizon=st.sampled_from(["0,360", "-0.1,360", "0.05,300", "0,-1e5"]))
    # a flow within 1e-298 of the horizon: its epipole was cut 1e298 px off, and
    # decomposing the pair against it warned of an overflow on a rejected track
    @example(text="track_id,frame,u,v\na,0,0.0,0.0\na,1,1.0,1.4176504314507788e-298\n", horizon="0,360")
    def test_exit_codes_and_output(self, text, horizon, tmp_path, capsys):
        tracks, out = tmp_path / "t.csv", tmp_path / "out.json"
        tracks.write_bytes(text.encode("utf-8"))
        capsys.readouterr()
        for command in self.COMMANDS:
            argv = [command[0], tracks, "--intrinsics", "800,640,360", *command[1:], "--seed", "3"]
            if command[0] == "estimate" and command[2] != "least-squares":
                argv += ["--horizon", horizon]
            code = run(*argv, "--out", out)
            err = capsys.readouterr().err
            assert code in (0, 2), (command, err)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
                assert run(*argv) == 2 and capsys.readouterr() == ("", err)
                continue
            assert err == ""
            want = out.read_bytes()
            doc = json.loads(want)
            assert want.decode("utf-8") == json.dumps(doc, sort_keys=True) + "\n"
            for entry in doc["estimates"]:
                if entry["status"] == "ok":
                    assert math.isfinite(entry["k"]) and entry["H"] >= 0.0, entry
            assert run(*argv, "--out", out) == 0 and out.read_bytes() == want
            assert run(*argv) == 0 and capsys.readouterr() == (want.decode("utf-8"), "")


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

        monkeypatch.setattr(importlib.import_module("ttckit.simulate"), "simulate", boom)
        code = run(
            "simulate", scene,
            "--out-tracks", tmp_path / "t.csv", "--out-truth", tmp_path / "g.json",
        )
        assert code == 1
        assert "internal error" in capsys.readouterr().err


# `ttckit [<cmd>] --help` at COLUMNS=80. Each subcommand imports its layers
# only when it runs, so these pin that its help text still comes out whole.
HELP_TEXT = {
    '': """\
usage: ttckit [-h] {simulate,estimate,cluster,collision-map,sensitivity} ...

Monocular time-to-collision toolkit: simulate synthetic point tracks, estimate
collision parameters and epipoles, cluster independent motions, and map
collision outcomes over velocity changes.

positional arguments:
  {simulate,estimate,cluster,collision-map,sensitivity}
    simulate            render a scenario to tracks + ground truth
    estimate            per-track collision estimates from a track CSV
    cluster             group tracks into independent motions
    collision-map       collision state over velocity changes
    sensitivity         stereo vs collision-plane error table

options:
  -h, --help            show this help message and exit
""",
    'simulate': """\
usage: ttckit simulate [-h] --out-tracks OUT_TRACKS --out-truth OUT_TRUTH
                       [--seed SEED] [--noise-sigma NOISE_SIGMA]
                       scenario

positional arguments:
  scenario              scenario JSON file

options:
  -h, --help            show this help message and exit
  --out-tracks OUT_TRACKS
                        output track CSV
  --out-truth OUT_TRUTH
                        output ground-truth JSON
  --seed SEED           override scenario rng_seed
  --noise-sigma NOISE_SIGMA
                        override scenario pixel noise
""",
    'estimate': """\
usage: ttckit estimate [-h] --intrinsics INTRINSICS
                       [--mode {planar,three-frame,least-squares}]
                       [--horizon HORIZON | --calibrate] [--seed SEED]
                       [--out OUT]
                       tracks

positional arguments:
  tracks                track CSV file

options:
  -h, --help            show this help message and exit
  --intrinsics INTRINSICS
                        f,u0,v0[,width,height] (focal in pixels)
  --mode {planar,three-frame,least-squares}
                        epipole estimator (default: planar)
  --horizon HORIZON     horizon line v = a*u + b, given as a,b
  --calibrate           derive the horizon from clustered epipoles before
                        estimating
  --seed SEED
  --out OUT             output JSON (default: stdout)
""",
    'cluster': """\
usage: ttckit cluster [-h] --intrinsics INTRINSICS [--eps-dist EPS_DIST]
                      [--eps-ttc EPS_TTC] [--min-size MIN_SIZE]
                      [--max-iterations MAX_ITERATIONS] [--seed SEED]
                      [--out OUT]
                      tracks

positional arguments:
  tracks                track CSV file

options:
  -h, --help            show this help message and exit
  --intrinsics INTRINSICS
                        f,u0,v0[,width,height] (focal in pixels)
  --eps-dist EPS_DIST   inlier line distance, px
  --eps-ttc EPS_TTC     TTC agreement threshold, frames (default: adaptive)
  --min-size MIN_SIZE   smallest reportable cluster
  --max-iterations MAX_ITERATIONS
  --seed SEED
  --out OUT             output JSON (default: stdout)
""",
    'collision-map': """\
usage: ttckit collision-map [-h] --grid GRID [--radius RADIUS] --out OUT
                            scenario

positional arguments:
  scenario         scenario JSON file

options:
  -h, --help       show this help message and exit
  --grid GRID      lat_extent,fwd_extent,lat_cells,fwd_cells (cells odd)
  --radius RADIUS  collision radius, meters
  --out OUT        output CSV
""",
    'sensitivity': """\
usage: ttckit sensitivity [-h] [--preset {approach-45deg}]
                          [--baseline-m BASELINE_M] [--focal-px FOCAL_PX]
                          [--focal-mm FOCAL_MM]
                          [--pixel-pitch-um PIXEL_PITCH_UM]
                          [--detection-error-px DETECTION_ERROR_PX]
                          [--speed-kmh SPEED_KMH] [--heading-deg HEADING_DEG]
                          [--z-values Z_VALUES] [--trials TRIALS]
                          [--track-frames TRACK_FRAMES] [--frame-dt FRAME_DT]
                          [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --preset {approach-45deg}
  --baseline-m BASELINE_M
                        stereo baseline, meters (default: 0.15)
  --focal-px FOCAL_PX
  --focal-mm FOCAL_MM
  --pixel-pitch-um PIXEL_PITCH_UM
                        sensor pixel pitch; required with a metric focal
                        length
  --detection-error-px DETECTION_ERROR_PX
                        per-detection pixel error (default: 0.2)
  --speed-kmh SPEED_KMH
                        object speed, km/h (default: 50.0)
  --heading-deg HEADING_DEG
                        motion direction from the optical axis, degrees
                        (default: 45.0)
  --z-values Z_VALUES   comma-separated depths in meters
  --trials TRIALS
  --track-frames TRACK_FRAMES
  --frame-dt FRAME_DT
  --seed SEED
  --out OUT             output CSV
""",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="argparse before 3.11 titles options 'optional arguments'")
class TestHelpText:
    @pytest.mark.parametrize("command", list(HELP_TEXT))
    def test_help_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(*filter(None, [command, "--help"])) == 0
        assert capsys.readouterr().out == HELP_TEXT[command]


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a child python."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def python(*argv, text=True, env=None):
    """Run a child python on src/ (in env, default src_env()); a
    CompletedProcess with its output."""
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env or src_env(), capture_output=True, text=text, timeout=120,
    )


@pytest.fixture(scope="module")
def triple_files(tmp_path_factory):
    """A noise-free three-object scene and its simulated tracks."""
    tmp = tmp_path_factory.mktemp("triple")
    write_scenario(tmp / "scene.json", triple_scenario(seed=5, noise=0.0))
    assert run("simulate", tmp / "scene.json", "--out-tracks", tmp / "t.csv", "--out-truth", tmp / "g.json") == 0
    return tmp


# the ttckit modules that hold a layer's work; cli, errors and presets load for every command
LAYERS = {"camera", "clustering", "epipole", "fileio", "simulate", "stereo", "ttc"}


class TestLoadedModules:
    """Each command, run through the real entry point, loads only the
    layers it runs."""

    # prints the ttckit modules and numpy, if loaded, at exit, after `python -m ttckit argv...` has run
    PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith("ttckit.") or m == "numpy")), file=sys.stderr))
runpy.run_module("ttckit", run_name="__main__", alter_sys=True)
"""

    @pytest.mark.parametrize("argv, layers", [
        pytest.param(["--help"], set(), id="help"),
        pytest.param(["simulate", "scene.json", "--out-tracks", "t2.csv", "--out-truth", "g2.json"],
                     {"simulate", "ttc", "camera", "fileio"}, id="simulate"),
        pytest.param(["collision-map", "scene.json", "--grid", "2,2,3,3", "--out", "map.csv"],
                     {"simulate", "ttc", "camera", "fileio"}, id="collision-map"),
        pytest.param(["sensitivity", "--focal-px", "800", "--trials", "5", "--z-values", "10", "--out", "sens.csv"],
                     {"stereo", "epipole", "ttc", "camera", "fileio"}, id="sensitivity"),
        pytest.param(["estimate", "t.csv", "--intrinsics", "700,320,240", "--mode", "three-frame", "--horizon", "0,240"],
                     {"epipole", "ttc", "camera", "fileio"}, id="estimate-three-frame"),
        pytest.param(["estimate", "t.csv", "--intrinsics", "700,320,240", "--mode", "least-squares"],
                     {"epipole", "ttc", "camera", "fileio"}, id="estimate-least-squares"),
        pytest.param(["estimate", "t.csv", "--intrinsics", "700,320,240", "--calibrate"],
                     {"clustering", "epipole", "ttc", "camera", "fileio"}, id="estimate-calibrate"),
        pytest.param(["cluster", "t.csv", "--intrinsics", "700,320,240"],
                     {"clustering", "epipole", "ttc", "camera", "fileio"}, id="cluster"),
    ])
    def test_command_loads_only_its_layers(self, argv, layers, triple_files):
        done = python("-c", self.PROBE, *(triple_files / a if a.endswith((".json", ".csv")) else a for a in argv))
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stderr.splitlines()[-1])
        assert {m.removeprefix("ttckit.") for m in loaded} & LAYERS == layers

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["estimate", "--help"], 0, id="estimate-help"),
        pytest.param(["estimate"], 2, id="estimate-no-arguments"),
        pytest.param(["sensitivity", "--trials", "x", "--out", "s.csv"], 2, id="sensitivity-bad-int"),
    ])
    def test_help_and_usage_errors_load_no_numpy(self, argv, code):
        done = python("-c", self.PROBE, *argv)
        assert done.returncode == code, done.stderr
        assert "numpy" not in json.loads(done.stderr.splitlines()[-1])


class TestProcessEntryPoint:
    """python -m ttckit, which runs cli.run: main, then a frozen collector at exit."""

    def test_estimate_stdout_equals_out_file(self, triple_files, tmp_path):
        argv = ["-m", "ttckit", "estimate", triple_files / "t.csv", "--intrinsics", "700,320,240",
                "--mode", "planar", "--horizon", "0,240"]
        to_stdout = python(*argv, text=False)
        to_file = python(*argv, "--out", tmp_path / "est.json", text=False)
        assert (to_stdout.returncode, to_stdout.stderr, to_file.returncode, to_file.stderr) == (0, b"", 0, b"")
        assert to_file.stdout == b""
        assert to_stdout.stdout == (tmp_path / "est.json").read_bytes()

    def test_bad_input_exits_two_with_one_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("track_id,frame,u,v\na,0,1,x\n", encoding="utf-8")
        done = python("-m", "ttckit", "cluster", tmp_path / "bad.csv", "--intrinsics", "700,320,240")
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")

    def test_help_exits_zero(self):
        done = python("-m", "ttckit", "--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: ttckit ")

    def test_script_entry_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"ttckit": "ttckit.cli:run"}
        assert importlib.import_module("ttckit.__main__").run is importlib.import_module("ttckit.cli").run


# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(**values) -> dict:
    """src_env() with no BLAS thread variable but those in values."""
    return {**{k: v for k, v in src_env().items() if k not in BLAS_THREAD_VARS}, **values}


@pytest.fixture(scope="module")
def noisy_triple_tracks(tmp_path_factory):
    """The three-object scene with 0.3 px of pixel noise, simulated."""
    tmp = tmp_path_factory.mktemp("noisy-triple")
    write_scenario(tmp / "scene.json", triple_scenario(seed=5, noise=0.3))
    assert run("simulate", tmp / "scene.json", "--out-tracks", tmp / "t.csv", "--out-truth", tmp / "g.json") == 0
    return tmp / "t.csv"


class TestBlasThreads:
    """cli.run sets OPENBLAS_NUM_THREADS=1 before numpy loads unless a BLAS
    thread variable is set; main() and imports leave the environment alone."""

    # prints OPENBLAS_NUM_THREADS and the process's thread count (None where
    # /proc/self/task does not list it) at exit, after `python -m ttckit argv...`
    PROBE = """
import atexit, json, os, runpy, sys
tasks = "/proc/self/task"
atexit.register(lambda: print(json.dumps([
    os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(tasks)) if os.path.isdir(tasks) else None
]), file=sys.stderr))
runpy.run_module("ttckit", run_name="__main__", alter_sys=True)
"""

    @pytest.mark.parametrize("given, expected", [
        pytest.param({}, "1", id="unset"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", id="openblas"),
        pytest.param({"GOTO_NUM_THREADS": "2"}, None, id="goto"),
        pytest.param({"OMP_NUM_THREADS": "2"}, None, id="omp"),
    ])
    def test_user_value_wins(self, given, expected):
        done = python("-c", self.PROBE, "--help", env=blas_env(**given))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stderr.splitlines()[-1])[0] == expected

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    def test_command_runs_on_one_thread(self, tmp_path):
        argv = ["sensitivity", "--focal-px", "800", "--trials", "5", "--z-values", "10", "--out", tmp_path / "s.csv"]
        done = python("-c", self.PROBE, *argv, env=blas_env())
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stderr.splitlines()[-1]) == ["1", 1]

    def test_imports_leave_the_environment(self):
        done = python("-c", "import os; before = dict(os.environ); import ttckit, ttckit.cli; "
                      "assert dict(os.environ) == before", env=blas_env())
        assert done.returncode == 0, done.stderr

    def test_main_leaves_the_environment(self, monkeypatch, tmp_path):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert run("--help") == 0
        assert run("sensitivity", "--focal-px", "800", "--trials", "5", "--z-values", "10", "--out", tmp_path / "s.csv") == 0
        assert dict(os.environ) == before

    @pytest.mark.parametrize("argv", [
        pytest.param(["estimate", "--mode", "planar", "--horizon", "0,240"], id="estimate-planar"),
        pytest.param(["estimate", "--mode", "three-frame", "--horizon", "0,240"], id="estimate-three-frame"),
        pytest.param(["estimate", "--mode", "least-squares"], id="estimate-least-squares"),
        pytest.param(["estimate", "--calibrate"], id="estimate-calibrate"),
        pytest.param(["cluster"], id="cluster"),
        pytest.param(["sensitivity", "--focal-px", "800", "--trials", "50", "--z-values", "10,40"], id="sensitivity"),
    ])
    def test_thread_count_changes_no_byte(self, argv, noisy_triple_tracks, tmp_path):
        if argv[0] != "sensitivity":
            argv = [argv[0], noisy_triple_tracks, "--intrinsics", "700,320,240", *argv[1:]]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            done = python("-m", "ttckit", *argv, "--seed", "3", "--out", out,
                          env=blas_env(OPENBLAS_NUM_THREADS=threads), text=False)
            assert (done.returncode, done.stderr) == (0, b"")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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
        (["estimate", "{tracks}", "--intrinsics", "-800,320,240", "--mode", "least-squares"], "focal_px must be > 0, got -800.0"),
        (["cluster", "{tracks}", "--intrinsics", "-800,320,240"], "focal_px must be > 0, got -800.0"),
        (["collision-map", "{scene}", "--grid", "-2,2,5,5", "--out", "{out}"], "lateral_extent must be >= 0, got -2.0"),
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
    """Errors of the main() handlers and of read_scenario: exit 2, one
    stderr line with the exact message, and no output file."""

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
        ("intrinsics", "principal_point", 5, "principal_point must be a finite 2-vector, got 5"),
        ("object", "points", "x", "points must be an array of numbers of shape (N, 3)"),
        ("scenario", "pixel_noise_sigma", "x", "pixel_noise_sigma must be finite, got 'x'"),
    ])
    def test_scenario_field_of_wrong_type(self, where, key, value, message, tmp_path, capsys):
        code, tracks = self.run_with_field("simulate", where, key, value, tmp_path)
        self.assert_one_error(code, capsys, message, tracks)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]

    @pytest.mark.parametrize("frame_count", [2**63, 2**62, 10**20])
    def test_frame_count_too_large_to_render(self, frame_count, tmp_path, capsys):
        code, tracks = self.run_with_field("simulate", "scenario", "frame_count", frame_count, tmp_path)
        limit = np.iinfo(np.intp).max
        message = f"frame_count {frame_count} is too large: its render arrays would exceed {limit} bytes"
        self.assert_one_error(code, capsys, message, tracks)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]

    @staticmethod
    def run_with_field(command, where, key, value, tmp_path):
        """(exit code, output path) of simulate or collision-map on
        planar_scenario() with one field set to value, written as JSON
        allows: Infinity, NaN and every digit of an integer."""
        scene = tmp_path / "scene.json"
        write_scenario(scene, planar_scenario())
        doc = read_json(scene)
        {"intrinsics": doc["intrinsics"], "object": doc["objects"][0], "scenario": doc}[where][key] = value
        scene.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        if command == "simulate":
            return run("simulate", scene, "--out-tracks", out, "--out-truth", tmp_path / "g.json"), out
        return run("collision-map", scene, "--grid", "2,2,5,5", "--out", out), out

    @pytest.mark.parametrize("where, key, value, message", [
        ("intrinsics", "image_size", [math.inf, 720], "image_size must be positive integers, got [inf, 720]"),
        ("scenario", "frame_count", math.inf, "frame_count must be an integer >= 2, got inf"),
        ("scenario", "frame_count", math.nan, "frame_count must be an integer >= 2, got nan"),
        ("object", "points", [[1.0, 10**399, 20.0]], "points has a number too large for float64"),
        ("intrinsics", "focal_px", 10**399, "focal_px is too large for float64"),
        ("scenario", "pixel_noise_sigma", 10**399, "pixel_noise_sigma is too large for float64"),
        ("scenario", "camera_velocity", [0.0, 10**399, 0.0], "camera_velocity has a number too large for float64"),
    ], ids=["image-size-inf", "frame-count-inf", "frame-count-nan", "point-400-digits", "focal-400-digits",
            "noise-400-digits", "camera-velocity-400-digits"])
    @pytest.mark.parametrize("command", ["simulate", "collision-map"])
    def test_scenario_number_no_field_takes(self, command, where, key, value, message, tmp_path, capsys):
        code, out = self.run_with_field(command, where, key, value, tmp_path)
        self.assert_one_error(code, capsys, message, out)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "scene.json"]

    @pytest.mark.parametrize("where, key, value", [
        pytest.param(where, key, value, id=f"{key}={'400 digits' if value == 10**399 else repr(value)}")
        for where, keys in SCENARIO_FIELDS.items() for key in keys for value in BAD_FIELD_VALUES
    ])
    def test_scenario_field_message_is_its_constructors(self, where, key, value, tmp_path, capsys):
        """The reader converts no field: a value in a scenario file is
        rejected with the message the constructor that owns the field
        gives it, or taken when that constructor takes it."""
        message = constructor_message(where, key, value)
        code, out = self.run_with_field("simulate", where, key, value, tmp_path)
        if message is None:
            assert isinstance(read_scenario(tmp_path / "scene.json"), Scenario)
            return
        assert "\n" not in message
        self.assert_one_error(code, capsys, message, out)

    @pytest.mark.parametrize("value", [None, [1], True, {"a": 1}])
    def test_scenario_object_id_not_text_or_number(self, value, tmp_path, capsys):
        code, out = self.run_with_field("simulate", "object", "id", value, tmp_path)
        self.assert_one_error(code, capsys, f"scenario: objects[0].id must be a string or a number, got {value!r}", out)

    def test_scenario_integer_past_the_digit_limit(self, tmp_path, capsys):
        """json refuses an integer of over 4300 digits with a bare ValueError."""
        scene, out = tmp_path / "scene.json", tmp_path / "out.csv"
        write_scenario(scene, planar_scenario())
        scene.write_text(scene.read_text().replace('"frame_count": 3', '"frame_count": 1' + "0" * 5000))
        code = run("simulate", scene, "--out-tracks", out, "--out-truth", tmp_path / "g.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scene}: Exceeds the limit (4300 digits)") and err.count("\n") == 1
        assert not out.exists()

    def test_sensitivity_step_that_overflows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run("sensitivity", "--focal-px", "800", "--speed-kmh", "1e300", "--frame-dt", "1e10", "--out", out)
        message = "frame_dt 10000000000.0 s at 2.777777777777778e+299 m/s: the step's square overflows float64"
        self.assert_one_error(code, capsys, message, out)
