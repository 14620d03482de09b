"""File formats: track CSV, scenario JSON, result documents, grid CSV.

Formats are part of the CLI contract and deliberately boring:

* Tracks: CSV with header ``track_id,frame,u,v``, one row per
  observation. Frame indices must be consecutive (step 1) per track and
  fit in 64 bits; ids are kept verbatim. read_tracks_csv parses the
  whole file as columns into a TrackTable (rows grouped by track, in
  first-appearance order) and checks it with array operations; only a
  file that fails a check is parsed again line by line, to name the
  offending line or track.
* Scenarios and ground truth: JSON, schema-versioned (``"schema": 1``).
* Collision maps and sensitivity tables: CSV grids.

All writers emit LF newlines, one-line JSON with sorted keys, and
repr-shortest float formatting, so identical inputs produce
byte-identical files. Parse failures raise InvalidInput with the
offending line or field named.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .camera import CameraIntrinsics
from .errors import InvalidInput
from .simulate import CollisionMap, GroundTruth, SceneObject, Scenario
from .stereo import SensitivityTable
from .ttc import TrackObservation, TrackTable

__all__ = [
    "read_json",
    "read_scenario",
    "read_tracks_csv",
    "truth_document",
    "write_collision_map_csv",
    "write_json",
    "write_scenario",
    "write_sensitivity_csv",
    "write_tracks_csv",
]

TRACKS_HEADER = "track_id,frame,u,v"
_MAP_HEADER = "dv_lateral,dv_forward,min_ttc_frames,miss_distance_m,collision"
_SENSITIVITY_HEADER = (
    "z_m,stereo_depth_error_m,stereo_heading_error_deg,"
    "plane_heading_error_deg,ttc_error_frames,degenerate_trials"
)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; inf and nan spelled out."""
    return repr(float(x))


def _json_text(document: dict) -> str:
    """The text write_json writes, on one line: json.dumps with indent
    runs the pure-Python encoder, without it the C one. Numpy arrays and
    scalars become lists and numbers."""
    return json.dumps(
        document, sort_keys=True, allow_nan=False,
        default=lambda o: o.tolist() if isinstance(o, np.ndarray) else o.item(),
    ) + "\n"


def _write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF newlines on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, document: dict) -> None:
    """Write a JSON document on one line with sorted keys and a trailing
    newline.

    Rejects NaN/Infinity: documents must encode missing values as null.
    """
    _write_text(path, _json_text(document))


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- tracks

def write_tracks_csv(path, tracks, ids: list[str] | None = None) -> None:
    """Write tracks as CSV rows, track after track; tracks of 0 rows
    (None entries) write no rows.

    Args:
        path: output file.
        tracks: a TrackTable, written from its columns without building
            any TrackObservation, or a sequence of TrackObservation or
            None (too-short tracks); index label is their position unless
            ids is given.
        ids: optional per-track labels aligned with tracks.
    """
    if not isinstance(tracks, TrackTable):
        tracks = TrackTable.from_tracks(tracks)
    if ids is not None and len(ids) != len(tracks):
        raise InvalidInput(f"{len(ids)} ids for {len(tracks)} tracks")
    labels = [str(i) for i in range(len(tracks))] if ids is None else ids
    lengths = tracks.length.tolist()
    for label, n in zip(labels, lengths):
        # read_tracks_csv splits rows wherever str.splitlines does
        if n and ("," in label or len((label + ".").splitlines()) != 1):
            raise InvalidInput(f"track id {label!r} must not contain commas or line breaks")
    row_labels = np.repeat(np.array(labels, dtype=object), tracks.length).tolist()
    rows = tracks.rows()
    u, v = tracks.positions[rows].T.tolist()
    # tolist() gives Python ints and floats: repr is _fmt without the float() call
    lines = [
        f"{label},{frame},{x!r},{y!r}"
        for label, frame, x, y in zip(row_labels, tracks.frames[rows].tolist(), u, v)
    ]
    _write_text(path, "\n".join([TRACKS_HEADER, *lines]) + "\n")


def read_tracks_csv(path) -> tuple[list[str], TrackTable]:
    """Parse a track CSV.

    Track ids are kept verbatim, surrounding whitespace included. The
    whole file is parsed as columns at once; only when a check fails is
    it parsed again line by line, which names the first offending line
    or track.

    Returns:
        (ids, tracks) in first-appearance order of track_id; tracks is a
        TrackTable, a sequence of TrackObservation.

    Raises:
        InvalidInput: non-UTF-8 text or malformed header/rows, a frame
            index beyond 64 bits included, named by path and 1-based line
            number; frame steps other than 1 surface from
            TrackObservation validation with the track id named.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if not lines or lines[0].strip() != TRACKS_HEADER:
        raise InvalidInput(f"{path}: line 1: expected header {TRACKS_HEADER!r}")
    parsed = _table_from_columns(lines[1:])
    if parsed is None:
        ids, tracks = _read_track_lines(path, lines)
        parsed = ids, TrackTable.from_tracks(tracks)
    return parsed


def _table_from_columns(rows: list[str]) -> tuple[list[str], TrackTable] | None:
    """The rows below the header as (ids, table), or None when any check
    fails: field count, number syntax, 64-bit frames, finite pixels, at
    least 2 rows per track and frame steps of 1."""
    rows = [row for row in rows if row.strip()]
    if any(row.count(",") != 3 for row in rows):
        return None
    fields = ",".join(rows).split(",") if rows else []
    r = len(rows)
    try:
        frames = np.fromiter(map(int, fields[1::4]), dtype=np.int64, count=r)
        positions = np.empty((r, 2))
        positions[:, 0] = np.fromiter(map(float, fields[2::4]), dtype=np.float64, count=r)
        positions[:, 1] = np.fromiter(map(float, fields[3::4]), dtype=np.float64, count=r)
    except (ValueError, OverflowError):
        return None
    # each row's track as its index in first-appearance order
    labels = fields[0::4]
    index = dict.fromkeys(labels)
    ids = list(index)
    index.update(zip(ids, range(len(ids))))
    track = np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=r)
    if np.any(track[1:] < track[:-1]):  # interleaved tracks: group their rows
        grouped = np.argsort(track, kind="stable")
        frames, positions = frames[grouped], positions[grouped]
    length = np.bincount(track, minlength=len(ids))
    start = np.cumsum(length) - length
    # as in TrackObservation: the int64 difference wraps, so a step also rises
    steps_ok = (np.diff(frames) == 1) & (frames[1:] > frames[:-1])
    steps_ok[start[1:] - 1] = True  # a step between two tracks is no step
    if np.any(length < 2) or not steps_ok.all() or not np.isfinite(positions).all():
        return None
    return ids, TrackTable(frames, positions, start, length)


def _read_track_lines(path, lines: list[str]) -> tuple[list[str], list[TrackObservation]]:
    """read_tracks_csv one line at a time after its header check: the
    reference for the column parse, and the source of its error messages."""
    order: list[str] = []
    rows: dict[str, list[tuple[int, float, float]]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise InvalidInput(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        tid = parts[0]
        try:
            frame = int(parts[1])
            u = float(parts[2])
            v = float(parts[3])
        except ValueError as exc:
            raise InvalidInput(f"{path}: line {lineno}: {exc}") from exc
        if not -(2**63) <= frame < 2**63:
            raise InvalidInput(f"{path}: line {lineno}: frame index must fit in a signed 64-bit integer")
        if not (math.isfinite(u) and math.isfinite(v)):
            raise InvalidInput(f"{path}: line {lineno}: coordinates must be finite")
        if tid not in rows:
            rows[tid] = []
            order.append(tid)
        rows[tid].append((frame, u, v))
    tracks = []
    for tid in order:
        entries = rows[tid]
        frames = np.array([e[0] for e in entries], dtype=np.int64)
        positions = np.array([[e[1], e[2]] for e in entries])
        try:
            tracks.append(TrackObservation(frames=frames, positions=positions))
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: track {tid!r}: {exc}") from exc
    return order, tracks


# -------------------------------------------------------------- scenario

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise InvalidInput(f"scenario: missing {where}{key}")
    return mapping[key]


def read_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises:
        InvalidInput: unreadable, non-UTF-8 or malformed JSON, or failed
            validation; messages name the path or the offending field.
    """
    try:
        doc = read_json(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("scenario: top level must be an object")
    schema = doc.get("schema")
    if schema != 1:
        raise InvalidInput(f"scenario: unsupported schema {schema!r}, expected 1")
    intr_doc = _require(doc, "intrinsics", "")
    try:
        intrinsics = CameraIntrinsics(
            focal_px=_require(intr_doc, "focal_px", "intrinsics."),
            principal_point=tuple(_require(intr_doc, "principal_point", "intrinsics.")),
            image_size=(
                tuple(intr_doc["image_size"]) if intr_doc.get("image_size") is not None else None
            ),
            allow_off_center=bool(intr_doc.get("allow_off_center", False)),
        )
    except InvalidInput:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"scenario: intrinsics: {exc}") from exc
    objects_doc = _require(doc, "objects", "")
    if not isinstance(objects_doc, list):
        raise InvalidInput(f"scenario: objects must be a list, got {objects_doc!r}")
    objects = []
    for i, obj_doc in enumerate(objects_doc):
        where = f"objects[{i}]."
        try:
            objects.append(
                SceneObject(
                    object_id=str(_require(obj_doc, "id", where)),
                    points=np.asarray(_require(obj_doc, "points", where), dtype=np.float64),
                    velocity=np.asarray(_require(obj_doc, "velocity", where), dtype=np.float64),
                )
            )
        except InvalidInput:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"scenario: objects[{i}]: {exc}") from exc
    try:
        return Scenario(
            intrinsics=intrinsics,
            objects=tuple(objects),
            camera_velocity=np.asarray(doc.get("camera_velocity", [0.0, 0.0, 0.0]), dtype=np.float64),
            frame_count=_require(doc, "frame_count", ""),
            pixel_noise_sigma=float(doc.get("pixel_noise_sigma", 0.0)),
            rng_seed=doc.get("rng_seed", 0),
        )
    except InvalidInput:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"scenario: {exc}") from exc


def write_scenario(path, scenario: Scenario) -> None:
    doc = {
        "schema": 1,
        "intrinsics": {
            "focal_px": scenario.intrinsics.focal_px,
            "principal_point": list(scenario.intrinsics.principal_point),
            "image_size": (
                list(scenario.intrinsics.image_size)
                if scenario.intrinsics.image_size is not None
                else None
            ),
            "allow_off_center": scenario.intrinsics.allow_off_center,
        },
        "camera_velocity": scenario.camera_velocity,
        "frame_count": scenario.frame_count,
        "pixel_noise_sigma": scenario.pixel_noise_sigma,
        "rng_seed": scenario.rng_seed,
        "objects": [
            {"id": obj.object_id, "velocity": obj.velocity, "points": obj.points}
            for obj in scenario.objects
        ],
    }
    write_json(path, doc)


# ----------------------------------------------------- derived documents

def truth_document(truth: GroundTruth, ids: list[str]) -> dict:
    """Ground truth as a JSON-ready document (schema 1), built from the
    columns of truth without building any PointTruth; NaN becomes null."""
    if len(ids) != len(truth):
        raise InvalidInput(f"{len(ids)} ids for {len(truth)} truth points")
    v_g = truth.v_g.tolist()
    epipole = [None if math.isnan(e[0]) else e for e in truth.epipole.tolist()]
    labels = [label.value for label in truth.LABELS]
    points = [
        {
            "track_id": tid,
            "object_id": truth.object_ids[obj],
            "cluster_id": obj,
            "v_g": v_g[obj],
            "speed": speed,
            "epipole": epipole[obj],
            "k0": None if math.isnan(k0) else k0,
            "H": None if math.isnan(h) else h,
            "label": labels[label],
            "valid_frames": valid,
        }
        for tid, obj, speed, k0, h, label, valid in zip(
            ids,
            truth.cluster_id.tolist(),
            truth.speed.tolist(),
            truth.k0.tolist(),
            truth.H.tolist(),
            truth.label.tolist(),
            truth.valid_frames.tolist(),
        )
    ]
    return {"schema": 1, "frame_count": truth.frame_count, "points": points}


def write_collision_map_csv(path, cmap: CollisionMap) -> None:
    """Collision map as CSV, forward-major row order."""
    lines = [_MAP_HEADER]
    lateral = [_fmt(dv_l) for dv_l in cmap.lateral_offsets.tolist()]
    for dv_f, ttc_row, miss_row, hit_row in zip(
        cmap.forward_offsets.tolist(),
        cmap.min_ttc.tolist(),
        cmap.miss_distance.tolist(),
        cmap.collision.tolist(),
    ):
        forward = _fmt(dv_f)
        for dv_l, ttc, miss, hit in zip(lateral, ttc_row, miss_row, hit_row):
            # tolist() gives Python floats: repr is _fmt without the float() call
            lines.append(f"{dv_l},{forward},{ttc!r},{miss!r},{'1' if hit else '0'}")
    _write_text(path, "\n".join(lines) + "\n")


def write_sensitivity_csv(path, table: SensitivityTable) -> None:
    lines = [_SENSITIVITY_HEADER]
    for row in table.rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.z_m),
                    _fmt(row.stereo_depth_error_m),
                    _fmt(row.stereo_heading_error_deg),
                    _fmt(row.plane_heading_error_deg),
                    _fmt(row.ttc_error_frames),
                    str(row.degenerate_trials),
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")
