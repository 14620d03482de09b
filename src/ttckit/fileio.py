"""File formats: track CSV, scenario JSON, result documents, grid CSV.

Formats are part of the CLI contract and deliberately boring:

* Tracks: CSV with header ``track_id,frame,u,v``, one row per
  observation. Frame indices must be consecutive (step 1) per track and
  fit in 64 bits; ids are kept verbatim. read_tracks_csv parses the
  file as columns into a TrackTable (rows grouped by track, in
  first-appearance order) and checks it with array operations; a piece
  of lines that fails a check is walked line by line to name the
  offending line, and ttc._track_problem, the track rule that
  TrackObservation also applies, names the first bad track.
* Scenarios and ground truth: JSON, schema-versioned (``"schema": 1``).
* Collision maps and sensitivity tables: CSV grids.

All writers emit LF newlines, one-line JSON with sorted keys, and
repr-shortest float formatting, so identical inputs produce
byte-identical files. Parse failures raise InvalidInput with the
offending line or field named.

Track files and the per-track lists of result documents pass through
memory _CHUNK rows at a time: the CSV is read and parsed in line-aligned
pieces and written in row chunks, and a document's lazy row list
(ttc._Rows) builds and writes its entries chunk by chunk; a
collision-map CSV is written one forward row of cells at a time. Beyond
the arrays, memory is bounded by the chunk size, not by the file size,
for a rejected file too: the file's text is never held whole. The bytes
are those of a whole-file parse and json.dumps. A writer that fails
part-way removes the regular file it was writing (_write_text).

Each per-track list (ground truth points[], estimates[] and epipoles[])
is encoded without building a dict per entry: one % row template per
list (_template), built once from its sorted keys, takes each entry's
values (_texts). A value shared by an object or by the whole list is
encoded once with _json; floats go in by repr and ids by
encode_basestring_ascii, the functions json.dumps calls, and one
np.isfinite test per chunk (_finite) keeps json.dumps's rejection of
NaN and infinity.
"""

from __future__ import annotations

import json
import math
import os
import stat
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .camera import CameraIntrinsics
from .errors import InvalidInput
from .ttc import TrackTable, _Rows, _track_problem

if TYPE_CHECKING:  # annotations only: a command that reads no scenario loads neither module
    from .simulate import CollisionMap, GroundTruth, Scenario
    from .stereo import SensitivityTable

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


# CSV rows, and result-document entries, held in memory at once
_CHUNK = 512
# characters of a piece of track CSV parsed at once: _CHUNK rows of 64
_PIECE = 64 * _CHUNK


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; inf and nan spelled out."""
    return repr(float(x))


def _json(value) -> str:
    """value as JSON on one line: json.dumps with indent runs the
    pure-Python encoder, without it the C one. Numpy arrays and scalars
    become lists and numbers."""
    return json.dumps(
        value, sort_keys=True, allow_nan=False,
        default=lambda o: o.tolist() if isinstance(o, np.ndarray) else o.item(),
    )


def _constant(value) -> str:
    """value as JSON text (_json) to stand for itself in a _template."""
    return _json(value).replace("%", "%%")


def _template(fields: dict[str, str]) -> str:
    """The % template of a JSON object's text as json.dumps(sort_keys=True)
    writes it: each key of fields, in sorted order, with its value's
    text, a _constant or one % directive per column _texts fills it from."""
    return "{%s}" % ", ".join(f"{_json(key)}: {fields[key]}" for key in sorted(fields))


def _texts(template: str, columns: dict[str, list]) -> list[str]:
    """template (_template) filled once per row: columns maps each key
    whose value has directives to one iterable per directive, in order.

    Values go in as json.dumps encodes them: a Python float through %r
    (or %s, as str of a float is its repr), an id already encoded by
    encode_basestring_ascii, a value shared by many rows already _json."""
    return [template % row for row in zip(*chain.from_iterable(columns[key] for key in sorted(columns)))]


def _finite(*columns) -> None:
    """Raise json.dumps's ValueError unless every value of the columns is
    finite: a document writes a missing value as null, never NaN."""
    for column in columns:
        if not np.isfinite(column).all():
            raise ValueError("Out of range float values are not JSON compliant")


def _nullable(column: np.ndarray) -> list:
    """column's values for %s directives, NaN as null; ValueError (_finite)
    on an infinity."""
    nan = np.isnan(column)
    _finite(column[~nan])
    values = column.tolist()
    for i in np.flatnonzero(nan).tolist():
        values[i] = "null"
    return values


def _json_pieces(document: dict):
    """The text write_json writes, generated in pieces: json.dumps(document,
    sort_keys=True) and a newline. Top-level keys, strings, come in
    sorted order and each value is encoded on its own, when its piece is
    drawn; a _Rows value is drawn _CHUNK entries at a time, so its
    entries never all exist and the text is never held whole. Its
    entries are each one's JSON text (_texts), joined here, or records
    encoded here."""
    yield "{"
    for n, key in enumerate(sorted(document)):
        value = document[key]
        yield f"{', ' if n else ''}{_json(key)}: "
        if not isinstance(value, _Rows):
            yield _json(value)
            continue
        yield "["
        for first in range(0, len(value), _CHUNK):
            rows = value[first:first + _CHUNK]
            if first:
                yield ", "
            yield ", ".join(rows) if isinstance(rows[0], str) else _json(rows)[1:-1]  # the slice's list, unbracketed
        yield "]"
    yield "}\n"


def _write_text(path, pieces) -> None:
    """Write an iterable of text pieces as UTF-8 with LF newlines on
    every platform; a generator is drawn from as the file is written.

    If drawing or writing a piece fails, the file is closed and, when
    path is a regular file (not a symlink), removed, so no partial text
    is left that looks like a result; a device such as os.devnull, a
    pipe, or a symlink and its target are kept.
    """
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(pieces)
    except BaseException:
        _remove_regular(path)
        raise


def _remove_regular(path) -> None:
    """Remove path if it is a regular file, not a symlink (os.lstat): the
    output of a writer that failed. A device, a pipe, a symlink and its
    target, or no file at all, are left as they are."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    if stat.S_ISREG(mode):
        os.remove(path)


def write_json(path, document: dict) -> None:
    """Write a JSON document on one line with sorted keys and a trailing
    newline. Its top-level keys are strings; a list may be given as a
    _Rows, which is built and written chunk by chunk: a _Rows of each
    entry's JSON text (a row template's, _texts) is joined as it is, one
    of records is encoded here.

    Rejects NaN/Infinity: documents must encode missing values as null.
    Each piece is written as soon as it is encoded, so a document that
    fails to encode removes the regular file at path, one that existed
    before included (_write_text).
    """
    _write_text(path, _json_pieces(document))


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- tracks

def write_tracks_csv(path, tracks, ids: list[str] | None = None) -> None:
    """Write tracks as CSV rows, track after track, _CHUNK rows at a
    time; tracks of 0 rows (None entries) write no rows.

    Args:
        path: output file.
        tracks: a TrackTable, written from its columns without building
            any TrackObservation, or a sequence of TrackObservation or
            None (too-short tracks); index label is their position unless
            ids is given.
        ids: optional per-track labels aligned with tracks; those of
            tracks with rows must differ and hold no comma or line break.
    """
    if not isinstance(tracks, TrackTable):
        tracks = TrackTable.from_tracks(tracks)
    if ids is not None:
        if len(ids) != len(tracks):
            raise InvalidInput(f"{len(ids)} ids for {len(tracks)} tracks")
        written = set()
        for label in compress(ids, tracks.length.tolist()):  # the ids of tracks with rows
            # read_tracks_csv splits rows wherever str.splitlines does
            if "," in label or len((label + ".").splitlines()) != 1:
                raise InvalidInput(f"track id {label!r} must not contain commas or line breaks")
            # and joins the rows of one id into one track
            if label in written:
                raise InvalidInput(f"track id {label!r} is given to more than one track")
            written.add(label)
    _write_text(path, _track_rows(tracks, range(len(tracks)) if ids is None else ids))


def _track_rows(tracks: TrackTable, labels):
    """The text of a track CSV: its header, then _CHUNK rows at a time."""
    yield TRACKS_HEADER + "\n"
    rows = tracks.rows()
    owner = np.repeat(np.arange(len(tracks)), tracks.length)  # each row's track
    for first in range(0, len(rows), _CHUNK):
        chunk = rows[first:first + _CHUNK]
        u, v = tracks.positions[chunk].T.tolist()
        # tolist() gives Python ints and floats: repr is _fmt without the float() call
        yield "".join([
            f"{labels[t]},{frame},{x!r},{y!r}\n"
            for t, frame, x, y in zip(owner[first:first + _CHUNK].tolist(), tracks.frames[chunk].tolist(), u, v)
        ])


def read_tracks_csv(path) -> tuple[list[str], TrackTable]:
    """Parse a track CSV.

    Track ids are kept verbatim, surrounding whitespace included. The
    file is read and parsed as columns one piece of whole lines (about
    _PIECE characters) at a time, so its text is never held whole.

    Returns:
        (ids, tracks) in first-appearance order of track_id; tracks is a
        TrackTable, a sequence of TrackObservation.

    Raises:
        InvalidInput: non-UTF-8 text or malformed header/rows, a frame
            index beyond 64 bits included, named by path and 1-based line
            number (a bad line ahead of bad UTF-8 is the one named); else
            a track of under 2 rows or with frame steps other than 1,
            named by path and track id.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # _PIECE characters and the rest of their line: a piece ends with a
            # "\n", which ends a line for str.splitlines too, so the pieces'
            # lines are the file's, split where write_tracks_csv's id rule expects
            pieces = iter(lambda: (fh.read(_PIECE) + fh.readline()).splitlines(), [])
            lines = next(pieces, [])
            if not lines or lines[0].strip() != TRACKS_HEADER:
                raise InvalidInput(f"{path}: line 1: expected header {TRACKS_HEADER!r}")
            return _table_from_columns(path, lines[1:], pieces)
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _table_from_columns(path, lines: list[str], pieces=()) -> tuple[list[str], TrackTable]:
    """The lines below the header of the track CSV at path, lines and
    then each list of lines in pieces, parsed one list at a time, as
    (ids, table). A list that fails a line check (field count, number
    syntax, 64-bit frames, finite pixels) names its first bad line; after
    the last list, so does the first track of under 2 rows or with a
    frame step other than 1."""
    index: dict[str, int] = {}  # track id -> its place in first-appearance order
    frames, positions, track = [np.zeros(0, np.int64)], [np.zeros((0, 2))], [np.zeros(0, np.int64)]
    lineno = 2  # of the list's first line: the header is line 1
    for piece in chain([lines], pieces):
        rows = [row for row in piece if row.strip()]
        fields = ",".join(rows).split(",") if rows else []
        r = len(rows)
        try:
            if any(row.count(",") != 3 for row in rows):
                raise ValueError("a row without 4 fields")
            frames.append(np.fromiter(map(int, fields[1::4]), dtype=np.int64, count=r))
            uv = np.empty((r, 2))
            uv[:, 0] = np.fromiter(map(float, fields[2::4]), dtype=np.float64, count=r)
            uv[:, 1] = np.fromiter(map(float, fields[3::4]), dtype=np.float64, count=r)
            if not np.isfinite(uv).all():
                raise ValueError("a pixel that is not finite")
        except (ValueError, OverflowError):
            _raise_bad_line(path, piece, lineno)
            raise  # a failure no line check explains
        positions.append(uv)
        lineno += len(piece)
        labels = fields[0::4]
        new = [label for label in dict.fromkeys(labels) if label not in index]
        index.update(zip(new, range(len(index), len(index) + len(new))))
        track.append(np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=r))
    # one column at a time, each list of pieces freed as it is joined
    frames = np.concatenate(frames)
    positions = np.concatenate(positions)
    track = np.concatenate(track)
    if np.any(track[1:] < track[:-1]):  # interleaved tracks: group their rows
        grouped = np.argsort(track, kind="stable")
        frames, positions = frames[grouped], positions[grouped]
    ids = list(index)
    length = np.bincount(track, minlength=len(ids))
    start = np.cumsum(length) - length
    if problem := _track_problem(frames, start, length):
        raise InvalidInput(f"{path}: track {ids[problem[0]]!r}: {problem[1]}")
    return ids, TrackTable(frames, positions, start, length)


def _raise_bad_line(path, lines: list[str], lineno: int) -> None:
    """Raise InvalidInput naming the first of lines, numbered from
    lineno, that fails a line check of _table_from_columns."""
    for lineno, raw in enumerate(lines, start=lineno):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise InvalidInput(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            frame, u, v = int(parts[1]), float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise InvalidInput(f"{path}: line {lineno}: {exc}") from exc
        if not -(2**63) <= frame < 2**63:
            raise InvalidInput(f"{path}: line {lineno}: frame index must fit in a signed 64-bit integer")
        if not (math.isfinite(u) and math.isfinite(v)):
            raise InvalidInput(f"{path}: line {lineno}: coordinates must be finite")


# -------------------------------------------------------------- scenario

def _require(section, key: str, where: str):
    """section[key]; InvalidInput unless section, the scenario part where
    names ("intrinsics." or "objects[i]."), is a JSON object holding key."""
    if not isinstance(section, dict):
        raise InvalidInput(f"scenario: {where[:-1]} must be an object")
    if key not in section:
        raise InvalidInput(f"scenario: missing {where}{key}")
    return section[key]


def read_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    It converts no field value: each goes as parsed to the constructor
    whose rule owns it, so a bad value gets a library call's message. It
    checks the structure: parts are JSON objects holding their fields,
    "objects" a list, an object id a string or a number (kept as text).

    Raises:
        InvalidInput: unreadable, non-UTF-8 or malformed JSON, or failed
            validation; messages name the path or the offending field.
    """
    from .simulate import SceneObject, Scenario

    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or an integer past int()'s digit limit
        raise InvalidInput(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("scenario: top level must be an object")
    schema = doc.get("schema")
    if schema != 1:
        raise InvalidInput(f"scenario: unsupported schema {schema!r}, expected 1")
    intr_doc = _require(doc, "intrinsics", "")
    intrinsics = CameraIntrinsics(
        focal_px=_require(intr_doc, "focal_px", "intrinsics."),
        principal_point=_require(intr_doc, "principal_point", "intrinsics."),
        image_size=intr_doc.get("image_size"),
        allow_off_center=intr_doc.get("allow_off_center", False),
    )
    objects_doc = _require(doc, "objects", "")
    if not isinstance(objects_doc, list):
        raise InvalidInput(f"scenario: objects must be a list, got {objects_doc!r}")
    objects = []
    for i, obj_doc in enumerate(objects_doc):
        where = f"objects[{i}]."
        object_id = _require(obj_doc, "id", where)
        if isinstance(object_id, bool) or not isinstance(object_id, (str, int, float)):
            raise InvalidInput(f"scenario: {where}id must be a string or a number, got {object_id!r}")
        points, velocity = _require(obj_doc, "points", where), _require(obj_doc, "velocity", where)
        objects.append(SceneObject(str(object_id), points, velocity))
    return Scenario(
        intrinsics=intrinsics,
        objects=objects,
        camera_velocity=doc.get("camera_velocity", [0.0, 0.0, 0.0]),
        frame_count=_require(doc, "frame_count", ""),
        pixel_noise_sigma=doc.get("pixel_noise_sigma", 0.0),
        rng_seed=doc.get("rng_seed", 0),
    )


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
    columns of truth without building any PointTruth; NaN becomes null.
    Its "points" are a _Rows of each point's JSON text, built when read
    from one row template (_template): each object's cluster_id,
    epipole, object_id and v_g are encoded once, here, and a point's
    floats and track id as json.dumps encodes them (_texts).

    Raises:
        InvalidInput: ids and truth differ in length.
        ValueError: an object's v_g or epipole is infinite here, or, when
            a point is read, its speed is not finite or its k0 or H is
            infinite: a JSON document holds no NaN or infinity.
    """
    if len(ids) != len(truth):
        raise InvalidInput(f"{len(ids)} ids for {len(truth)} truth points")
    v_g = [_json(v) for v in truth.v_g.tolist()]
    epipole = [_json(e) for e in truth._epipoles()]
    object_id = [_json(o) for o in truth.object_ids]
    label = [_json(label.value) for label in truth.LABELS]
    template = _template({
        "track_id": "%s", "object_id": "%s", "cluster_id": "%d", "v_g": "%s", "speed": "%r",
        "epipole": "%s", "k0": "%s", "H": "%s", "label": "%s", "valid_frames": "%d",
    })

    def points(start: int, stop: int) -> list[str]:
        rows = slice(start, stop)
        obj = truth.cluster_id[rows].tolist()
        speed = truth.speed[rows]
        _finite(speed)
        return _texts(template, {
            "track_id": [map(encode_basestring_ascii, ids[rows])],
            "object_id": [map(object_id.__getitem__, obj)],
            "cluster_id": [obj],
            "v_g": [map(v_g.__getitem__, obj)],
            "speed": [speed.tolist()],
            "epipole": [map(epipole.__getitem__, obj)],
            "k0": [_nullable(truth.k0[rows])],
            "H": [_nullable(truth.H[rows])],
            "label": [map(label.__getitem__, truth.label[rows].tolist())],
            "valid_frames": [truth.valid_frames[rows].tolist()],
        })

    return {"schema": 1, "frame_count": truth.frame_count, "points": _Rows(len(truth), points)}


def write_collision_map_csv(path, cmap: CollisionMap) -> None:
    """Collision map as CSV, forward-major row order, written one forward
    row of cells at a time."""
    _write_text(path, _map_rows(cmap))


def _map_rows(cmap: CollisionMap):
    """The text of a collision-map CSV: its header, then one forward row
    of cells at a time."""
    yield _MAP_HEADER + "\n"
    lateral = [_fmt(dv_l) for dv_l in cmap.lateral_offsets.tolist()]
    for dv_f, ttc_row, miss_row, hit_row in zip(
        cmap.forward_offsets.tolist(), cmap.min_ttc, cmap.miss_distance, cmap.collision
    ):
        forward = _fmt(dv_f)
        # tolist() gives Python floats: repr is _fmt without the float() call
        yield "".join([
            f"{dv_l},{forward},{ttc!r},{miss!r},{'1' if hit else '0'}\n"
            for dv_l, ttc, miss, hit in zip(lateral, ttc_row.tolist(), miss_row.tolist(), hit_row.tolist())
        ])


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
    _write_text(path, ["\n".join(lines), "\n"])
