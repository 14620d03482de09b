"""The three workloads: seeded inputs, the CLI commands, and output checks.

A workload's build() writes its inputs into a work directory and works
out the expected outputs with the oracle; commands() lists the ttckit
CLI invocations of one round; check() reads the round's outputs and
compares them with the expectations. The check_* functions take parsed
outputs so that tests can hand them corrupted copies.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle, scenes

# Road scene size. 20k tracks take about 21 s per round of the three
# commands on a 2-core machine, too long for several rounds in one run;
# 5k tracks keep a round near 4.5 s with per-track work still dominant.
ROAD_TRACKS = 5000
MOTION_SCENES = 2
MOTION_OBJECTS = 6
MOTION_PER_OBJECT = 250
PLAN_OBJECTS = 10
PLAN_PER_OBJECT = 15
PLAN_CELLS = 101
PLAN_EXTENT = 1.0  # per-frame velocity change, each axis
PLAN_RADIUS = 2.0
SENSITIVITY_TRIALS = 2000
# The CLI's default --z-values without 100 m: there the preset's disparity
# (1.2 px) is 4.2 sigma of the 0.2 px detection noise, and about one seed
# in twenty draws a non-positive disparity, a degenerate trial.
SENSITIVITY_DEPTHS = (10.0, 20.0, 40.0, 60.0, 80.0)
# approach-45deg preset at 10 um pixel pitch: 8 mm lens, 0.15 m baseline, 0.2 px detections
STEREO_BASELINE_M = 0.15
STEREO_FOCAL_PX = 8.0e-3 / 10.0e-6
STEREO_DETECTION_PX = 0.2

MAX_MESSAGES = 5


@dataclass
class Tally:
    """Operations checked in one round.

    attempted and failed count output items (failed: the program gave no
    result for the item); wrong counts the checks that found a delivered
    result off the oracle, and errors keeps the first few of their messages.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: int = 0

    def add(self, other: "Tally") -> "Tally":
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.extend(other.errors[: max(0, MAX_MESSAGES - len(self.errors))])
        return self

    def mismatch(self, count: int, message: str) -> None:
        if count:
            self.wrong += int(count)
            if len(self.errors) < MAX_MESSAGES:
                self.errors.append(message)


def scenario_document(scene: scenes.Scene) -> dict:
    """Scenario JSON (schema 1) of a scene; floats survive the round trip."""
    return {
        "schema": 1,
        "intrinsics": {
            "focal_px": scenes.FOCAL,
            "principal_point": scenes.PP.tolist(),
            "image_size": None,
            "allow_off_center": True,
        },
        "camera_velocity": scene.camera_velocity.tolist(),
        "frame_count": scene.frame_count,
        "pixel_noise_sigma": 0.0,
        "rng_seed": 0,
        "objects": [
            {"id": oid, "velocity": scene.velocities[j].tolist(), "points": scene.object_points(j).tolist()}
            for j, oid in enumerate(scene.object_ids)
        ],
    }


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------ road-estimate


@dataclass
class RoadExpect:
    ids: list[str]
    pixels: np.ndarray  # (tracks, frames, 2)
    k0: np.ndarray
    H: np.ndarray
    epipole: np.ndarray  # (tracks, 2)


def road_expectations(scene: scenes.Scene) -> RoadExpect:
    rel = scene.relative
    return RoadExpect(
        # the simulate command names track i of object o "o-i"
        ids=[f"{scene.object_ids[o]}-{i}" for i, o in enumerate(scene.owner)],
        pixels=oracle.project(scene.positions(), scenes.FOCAL, scenes.PP),
        k0=oracle.frames_to_sweep(scene.points, rel),
        H=oracle.miss_frames(scene.points, rel),
        epipole=oracle.epipole(rel, scenes.FOCAL, scenes.PP),
    )


def check_simulation(track_rows: list[list[str]], truth: dict, expect: RoadExpect) -> Tally:
    """One operation per track: its pixels within 1e-9 px, its truth within 1e-9 relative."""
    tally = Tally(attempted=len(expect.ids))
    index = {tid: i for i, tid in enumerate(expect.ids)}
    frames = expect.pixels.shape[1]
    got = np.full(expect.pixels.shape, np.nan)
    seen = np.zeros((len(expect.ids), frames), dtype=bool)
    unknown = 0
    for row in track_rows[1:]:
        i = index.get(row[0])
        frame = int(row[1])
        if i is None or not 0 <= frame < frames:
            unknown += 1
            continue
        got[i, frame] = (float(row[2]), float(row[3]))
        seen[i, frame] = True
    tally.mismatch(unknown, f"{unknown} track rows name no simulated point or frame")
    complete = seen.all(axis=1)
    pix_ok = oracle.close(got, expect.pixels, abs_=1e-9).all(axis=(1, 2))

    points = {p["track_id"]: p for p in truth.get("points", [])}
    has_truth = np.array([tid in points for tid in expect.ids])
    tally.failed = int(np.count_nonzero(~(complete & has_truth)))
    doc = [points.get(tid) or {} for tid in expect.ids]
    k0 = np.array([_num(p.get("k0")) for p in doc])
    H = np.array([_num(p.get("H")) for p in doc])
    epi = np.array([p.get("epipole") or [np.nan, np.nan] for p in doc], dtype=np.float64)
    truth_ok = (
        oracle.close(k0, expect.k0, rel=1e-9)
        & oracle.close(H, expect.H, rel=1e-9)
        & oracle.close(epi, expect.epipole, rel=1e-9).all(axis=1)
    )
    delivered = complete & has_truth
    tally.mismatch(np.count_nonzero(delivered & ~pix_ok), f"{np.count_nonzero(delivered & ~pix_ok)} tracks off the projected pixels by more than 1e-9 px")
    tally.mismatch(np.count_nonzero(delivered & ~truth_ok), f"{np.count_nonzero(delivered & ~truth_ok)} truth entries off k0/H/epipole by more than 1e-9 relative")
    return tally


def check_estimates(doc: dict, expect: RoadExpect, mode: str) -> Tally:
    """One operation per track: status ok, Approaching, k/H within 1e-6
    relative, epipole within 1e-6 px, and for three-frame |x| <= 1e-9."""
    tally = Tally(attempted=len(expect.ids))
    entries = {e.get("track_id"): e for e in doc.get("estimates", [])}
    epipoles = {e.get("track_id"): e for e in doc.get("epipoles", [])}
    ok = [entries.get(tid, {}).get("status") == "ok" for tid in expect.ids]
    tally.failed = ok.count(False)
    delivered = np.array(ok)
    rows = [entries.get(tid, {}) for tid in expect.ids]
    k = np.array([_num(e.get("k")) for e in rows])
    H = np.array([_num(e.get("H")) for e in rows])
    epi = np.array([(epipoles.get(tid) or {}).get("position") or [np.nan, np.nan] for tid in expect.ids], dtype=np.float64)
    approaching = np.array([e.get("classification") == "Approaching" for e in rows])
    checks = [
        ("not classified Approaching", approaching),
        ("k off k0 by more than 1e-6 relative", oracle.close(k, expect.k0, rel=1e-6)),
        ("H off the miss distance by more than 1e-6 relative", oracle.close(H, expect.H, rel=1e-6)),
        ("epipole off by more than 1e-6 px", oracle.close(epi, expect.epipole, abs_=1e-6).all(axis=1)),
    ]
    if mode == "three-frame":
        x = np.array([_num(e.get("offset_angle_rad")) for e in rows])
        checks.append(("|offset_angle_rad| above 1e-9", np.abs(x) <= 1e-9))
    for what, passed in checks:
        bad = np.count_nonzero(delivered & ~passed)
        tally.mismatch(bad, f"{mode}: {bad} tracks {what}")
    return tally


def _num(value) -> float:
    return np.nan if value is None else float(value)


class RoadEstimate:
    name = "road-estimate"
    outputs = ("tracks.csv", "truth.json", "planar.json", "three_frame.json")
    rate = ("tracks_per_s", ROAD_TRACKS, "estimate_planar")

    def build(self, seed: int, work: Path):
        scene = scenes.road_scene(np.random.default_rng(seed), ROAD_TRACKS)
        (work / "road.json").write_text(json.dumps(scenario_document(scene)), encoding="utf-8")
        return road_expectations(scene)

    def commands(self, seed: int, work: Path) -> list[tuple[str, list[str]]]:
        tracks = str(work / "tracks.csv")
        common = ["--intrinsics", scenes.INTRINSICS_ARG, "--horizon", scenes.HORIZON_ARG, "--seed", str(seed)]
        return [
            ("simulate", ["simulate", str(work / "road.json"), "--out-tracks", tracks, "--out-truth", str(work / "truth.json")]),
            ("estimate_planar", ["estimate", tracks, "--mode", "planar", *common, "--out", str(work / "planar.json")]),
            ("estimate_three_frame", ["estimate", tracks, "--mode", "three-frame", *common, "--out", str(work / "three_frame.json")]),
        ]

    def check(self, expect: RoadExpect, work: Path) -> Tally:
        tally = Tally()
        tally.add(_checked(lambda: check_simulation(read_rows(work / "tracks.csv"), _load(work / "truth.json"), expect), len(expect.ids)))
        for mode, name in (("planar", "planar.json"), ("three-frame", "three_frame.json")):
            tally.add(_checked(lambda: check_estimates(_load(work / name), expect, mode), len(expect.ids)))
        return tally


# ----------------------------------------------------------- motion-segment


@dataclass
class MotionExpect:
    members: list[list[str]]  # track ids per object
    epipole: np.ndarray  # (objects, 2)
    k0: dict[str, float]


def write_motion_tracks(scene: scenes.Scene, rng: np.random.Generator, path: Path) -> MotionExpect:
    """Noise-free tracks of every point, in shuffled order, plus their truth."""
    pixels = oracle.project(scene.positions(), scenes.FOCAL, scenes.PP)
    ids = [f"{scene.object_ids[o]}-{i}" for i, o in enumerate(scene.owner)]
    lines = ["track_id,frame,u,v"]
    for i in rng.permutation(len(ids)):
        lines.extend(f"{ids[i]},{f},{float(u)!r},{float(v)!r}" for f, (u, v) in enumerate(pixels[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    k0 = oracle.frames_to_sweep(scene.points, scene.relative)
    return MotionExpect(
        members=[[ids[i] for i in np.flatnonzero(scene.owner == j)] for j in range(len(scene.object_ids))],
        epipole=oracle.epipole(scene.velocities - scene.camera_velocity, scenes.FOCAL, scenes.PP),
        k0=dict(zip(ids, k0.tolist())),
    )


def check_clusters(doc: dict, expect: MotionExpect) -> Tally:
    """One operation per generated object: exactly one cluster holds all of
    its tracks and nothing else, its epipole within 1e-6 px, and every
    member's ttc_values entry within 1e-6 relative of k0."""
    tally = Tally(attempted=len(expect.members))
    by_members = {}
    for c in doc.get("clusters", []):
        by_members.setdefault(frozenset(c.get("member_ids", [])), []).append(c)
    for j, ids in enumerate(expect.members):
        found = by_members.get(frozenset(ids), [])
        if len(found) != 1 or len(found[0]["member_ids"]) != len(ids):
            tally.mismatch(1, f"object {j}: {len(found)} clusters hold exactly its {len(ids)} tracks")
            continue
        c = found[0]
        epi = np.asarray(c.get("epipole", {}).get("position", [np.nan, np.nan]), dtype=np.float64)
        k = np.asarray(c.get("ttc_values", []), dtype=np.float64)
        k0 = np.array([expect.k0[tid] for tid in c["member_ids"]])
        if not oracle.close(epi, expect.epipole[j], abs_=1e-6).all():
            tally.mismatch(1, f"object {j}: epipole {epi.tolist()} against {expect.epipole[j].tolist()}")
        elif k.shape != k0.shape or not oracle.close(k, k0, rel=1e-6).all():
            tally.mismatch(1, f"object {j}: ttc_values off k0 by more than 1e-6 relative")
    return tally


class MotionSegment:
    name = "motion-segment"
    outputs = tuple(f"clusters{s}.json" for s in range(MOTION_SCENES))
    rate = ("flows_per_s", MOTION_SCENES * MOTION_OBJECTS * MOTION_PER_OBJECT, "cluster")

    def build(self, seed: int, work: Path) -> list[MotionExpect]:
        rng = np.random.default_rng(seed)
        expects = []
        for s in range(MOTION_SCENES):
            scene = scenes.motion_scene(rng, MOTION_OBJECTS, MOTION_PER_OBJECT)
            expects.append(write_motion_tracks(scene, rng, work / f"motion{s}.csv"))
        return expects

    def commands(self, seed: int, work: Path) -> list[tuple[str, list[str]]]:
        return [
            ("cluster", ["cluster", str(work / f"motion{s}.csv"), "--intrinsics", scenes.INTRINSICS_ARG,
                         "--seed", str(seed), "--out", str(work / f"clusters{s}.json")])
            for s in range(MOTION_SCENES)
        ]

    def check(self, expects: list[MotionExpect], work: Path) -> Tally:
        tally = Tally()
        for s, expect in enumerate(expects):
            tally.add(_checked(lambda: check_clusters(_load(work / f"clusters{s}.json"), expect), len(expect.members)))
        return tally


# ----------------------------------------------------------- collision-plan


def grid_offsets(cells: int, extent: float) -> np.ndarray:
    """Cell centres of one grid axis: an odd count, exactly 0 in the middle."""
    return (np.arange(cells) - cells // 2) * (extent / (cells // 2))


def check_collision_map(rows: list[list[str]], expect: dict[str, np.ndarray]) -> Tally:
    """One operation per cell: offsets, min TTC and miss distance within
    1e-9 (relative above 1) and the collision flag exactly."""
    cells = len(expect["min_ttc"])
    tally = Tally(attempted=cells)
    body = rows[1:]
    if len(body) != cells:
        tally.failed = max(0, cells - len(body))
        tally.mismatch(abs(cells - len(body)), f"map has {len(body)} cells, expected {cells}")
        body = body[:cells]
    got = np.array([[float(x) for x in r[:4]] for r in body]).reshape(-1, 4)
    flag = np.array([r[4] == "1" for r in body])
    n = len(body)
    ok = np.ones(n, dtype=bool)
    for col, key in enumerate(("dv_lateral", "dv_forward", "min_ttc", "miss")):
        ok &= oracle.close(got[:, col], expect[key][:n], rel=1e-9, abs_=1e-9)
    ok &= flag == expect["collision"][:n]
    tally.mismatch(np.count_nonzero(~ok), f"{np.count_nonzero(~ok)} map cells differ from the oracle")
    return tally


def check_sensitivity(rows: list[list[str]]) -> Tally:
    """One operation per depth row: stereo depth error equals Z^2 dp / (B f)
    within 1e-12 relative, no degenerate trials, plane heading error below
    5 degrees up to 80 m, stereo heading error above 10x the plane's."""
    header, body = rows[0], rows[1:]
    tally = Tally(attempted=len(SENSITIVITY_DEPTHS))
    if len(body) != len(SENSITIVITY_DEPTHS):
        tally.failed = len(SENSITIVITY_DEPTHS)
        return tally
    col = {name: i for i, name in enumerate(header)}
    z = np.array([float(r[col["z_m"]]) for r in body])
    depth_err = np.array([float(r[col["stereo_depth_error_m"]]) for r in body])
    stereo = np.array([float(r[col["stereo_heading_error_deg"]]) for r in body])
    plane = np.array([float(r[col["plane_heading_error_deg"]]) for r in body])
    degenerate = np.array([int(r[col["degenerate_trials"]]) for r in body])
    expected = oracle.stereo_depth_error(np.array(SENSITIVITY_DEPTHS), STEREO_BASELINE_M, STEREO_FOCAL_PX, STEREO_DETECTION_PX)
    for what, passed in (
        ("depth column differs", z == np.array(SENSITIVITY_DEPTHS)),
        ("stereo depth error off Z^2 dp / (B f)", oracle.close(depth_err, expected, rel=1e-12)),
        ("degenerate trials", degenerate == 0),
        ("plane heading error of 5 deg or more within 80 m", (plane < 5.0) | (z > 80.0)),
        ("stereo heading error not above 10x the plane's", stereo > 10.0 * plane),
    ):
        tally.mismatch(np.count_nonzero(~passed), f"sensitivity: {np.count_nonzero(~passed)} rows: {what}")
    return tally


class CollisionPlan:
    name = "collision-plan"
    outputs = ("map.csv", "sensitivity.csv")
    rate = ("cells_per_s", PLAN_CELLS * PLAN_CELLS, "collision_map")

    def build(self, seed: int, work: Path) -> dict[str, np.ndarray]:
        scene = scenes.planning_scene(np.random.default_rng(seed), PLAN_OBJECTS, PLAN_PER_OBJECT)
        (work / "plan.json").write_text(json.dumps(scenario_document(scene)), encoding="utf-8")
        offsets = grid_offsets(PLAN_CELLS, PLAN_EXTENT)
        return oracle.collision_cells(
            scene.points, scene.velocities[scene.owner], scene.camera_velocity,
            offsets, offsets, scene.frame_count, PLAN_RADIUS,
        )

    def commands(self, seed: int, work: Path) -> list[tuple[str, list[str]]]:
        grid = f"{PLAN_EXTENT},{PLAN_EXTENT},{PLAN_CELLS},{PLAN_CELLS}"
        return [
            ("collision_map", ["collision-map", str(work / "plan.json"), "--grid", grid,
                               "--radius", str(PLAN_RADIUS), "--out", str(work / "map.csv")]),
            ("sensitivity", ["sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", "10",
                             "--z-values", ",".join(map(str, SENSITIVITY_DEPTHS)), "--trials", str(SENSITIVITY_TRIALS),
                             "--seed", str(seed), "--out", str(work / "sensitivity.csv")]),
        ]

    def check(self, expect: dict[str, np.ndarray], work: Path) -> Tally:
        tally = Tally()
        tally.add(_checked(lambda: check_collision_map(read_rows(work / "map.csv"), expect), len(expect["min_ttc"])))
        tally.add(_checked(lambda: check_sensitivity(read_rows(work / "sensitivity.csv")), len(SENSITIVITY_DEPTHS)))
        return tally


WORKLOADS = {w.name: w for w in (RoadEstimate(), MotionSegment(), CollisionPlan())}


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _checked(check, attempted: int) -> Tally:
    """Run one check; a missing or unreadable output fails all its operations."""
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Tally(attempted=attempted, failed=attempted, errors=[f"output unreadable: {type(exc).__name__}: {exc}"])
