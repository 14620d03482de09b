"""File format round-trips and parse error reporting."""

import copy
import json
import math
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ttckit import (
    CameraIntrinsics,
    CollisionMap,
    GridSpec,
    InvalidInput,
    Scenario,
    SceneObject,
    TrackObservation,
    TrackTable,
    collision_map,
    preset_approach_45deg,
    orientation_error_sweep,
    simulate,
)
from ttckit import fileio
from ttckit.fileio import (
    TRACKS_HEADER,
    read_json,
    read_scenario,
    read_tracks_csv,
    truth_document,
    write_collision_map_csv,
    write_json,
    write_scenario,
    write_sensitivity_csv,
    write_tracks_csv,
)


def sample_tracks():
    t1 = TrackObservation(
        frames=(0, 1, 2),
        positions=np.array([[10.0, 20.0], [11.5, 19.25], [13.0625, 18.5]]),
    )
    t2 = TrackObservation(
        frames=(3, 4), positions=np.array([[-5.0, 0.125], [-4.0, 0.25]])
    )
    return [t1, t2]


def sample_scenario():
    intr = CameraIntrinsics(
        focal_px=700.0, principal_point=(320.0, 240.0), image_size=(640, 480)
    )
    objects = (
        SceneObject("a", np.array([[1.0, 0.5, 20.0], [1.2, 0.4, 21.0]]), np.array([0.1, 0.0, -1.5])),
        SceneObject("b", np.array([[-2.0, 0.2, 24.0]]), np.array([-0.45, 0.05, -1.8])),
    )
    return Scenario(
        intrinsics=intr,
        objects=objects,
        camera_velocity=np.array([0.0, 0.0, 0.25]),
        frame_count=9,
        pixel_noise_sigma=0.3,
        rng_seed=17,
    )


class TestTrackTable:
    """Columns of tracks; a track of 0 rows stands for no track."""

    def table(self):
        return TrackTable.from_tracks([sample_tracks()[0], None, sample_tracks()[1]])

    def test_empty_track_reads_as_none(self):
        table = self.table()
        assert table.length.tolist() == [3, 0, 2] and table.start.tolist() == [0, 3, 3]
        assert table[1] is None and table[2].frames == (3, 4)
        assert [t is None for t in table] == [False, True, False]

    def test_slice_gives_a_table(self):
        part = self.table()[1:]
        assert isinstance(part, TrackTable) and len(part) == 2
        assert part[0] is None and part[1].frames == (3, 4)

    def test_rows_list_tracks_in_order(self):
        table = self.table().take([2, 0])
        assert table.frames[table.rows()].tolist() == [3, 4, 0, 1, 2]

    def test_written_from_columns_in_track_order(self, tmp_path):
        table = self.table().take([2, 1, 0])
        write_tracks_csv(tmp_path / "table.csv", table, ["b", "none,skipped", "a"])
        write_tracks_csv(tmp_path / "list.csv", [sample_tracks()[1], sample_tracks()[0]], ["b", "a"])
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


class TestTracksCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tracks.csv"
        tracks = sample_tracks()
        write_tracks_csv(path, tracks, ids=["a-0", "b-1"])
        ids, back = read_tracks_csv(path)
        assert ids == ["a-0", "b-1"]
        for orig, read in zip(tracks, back):
            assert read.frames == orig.frames
            assert np.array_equal(read.positions, orig.positions)  # repr round-trip

    def test_default_numeric_ids_and_none_skipped(self, tmp_path):
        path = tmp_path / "tracks.csv"
        tracks = [sample_tracks()[0], None, sample_tracks()[1]]
        write_tracks_csv(path, tracks)
        ids, back = read_tracks_csv(path)
        assert ids == ["0", "2"]
        assert len(back) == 2

    def test_id_count_mismatch(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_tracks_csv(tmp_path / "t.csv", sample_tracks(), ids=["only-one"])

    def test_comma_in_id_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_tracks_csv(tmp_path / "t.csv", sample_tracks(), ids=["a,b", "c"])

    # every character str.splitlines breaks a line at, which the reader
    # would split a row on
    @pytest.mark.parametrize(
        "brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    @pytest.mark.parametrize("where", ["car{}A", "{}car", "car{}"])
    def test_line_break_in_id_rejected(self, brk, where, tmp_path):
        label = where.format(brk)
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidInput, match=f"track id {re.escape(repr(label))}"):
            write_tracks_csv(path, sample_tracks(), ids=[label, "c"])
        assert not path.exists()

    def test_repeated_id_rejected(self, tmp_path):
        # frames (0, 1, 2) then (3, 4): one "car" track would read back
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidInput, match=re.escape("track id 'car' is given to more than one track")):
            write_tracks_csv(path, sample_tracks(), ids=["car", "car"])
        assert not path.exists()
        # a track of 0 rows writes no row, so its id may repeat
        write_tracks_csv(path, [sample_tracks()[0], None], ids=["car", "car"])
        assert read_tracks_csv(path)[0] == ["car"]

    def test_other_characters_in_ids_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        labels = ["car\tA", "b\u00e9\u2027"]
        write_tracks_csv(path, sample_tracks(), ids=labels)
        assert read_tracks_csv(path)[0] == labels

    def test_whitespace_in_ids_kept(self, tmp_path):
        path = tmp_path / "t.csv"
        write_tracks_csv(path, sample_tracks(), ids=[" a", "a "])
        ids, back = read_tracks_csv(path)
        assert ids == [" a", "a "]
        assert [t.frames for t in back] == [(0, 1, 2), (3, 4)]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header,entirely\n")
        with pytest.raises(InvalidInput, match="line 1"):
            read_tracks_csv(path)

    def test_field_count_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,0,1.0\n")
        with pytest.raises(InvalidInput, match="line 2"):
            read_tracks_csv(path)

    def test_bad_number_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,0,1.0,2.0\nx,one,1.0,2.0\n")
        with pytest.raises(InvalidInput, match="line 3"):
            read_tracks_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,0,inf,2.0\n")
        with pytest.raises(InvalidInput, match="line 2"):
            read_tracks_csv(path)

    @pytest.mark.parametrize("row", ["x,1,1.0,nan", "x,1,-inf,2.0"])
    def test_non_finite_rejected_on_either_coordinate(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,0,1.0,2.0\n{row}\n")
        with pytest.raises(InvalidInput, match="line 3: coordinates must be finite"):
            read_tracks_csv(path)

    def test_repeated_frame_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,1,1.0,2.0\nx,1,1.5,2.0\n")
        message = f"{path}: track 'x': frame indices must increase by exactly 1, got steps [0]"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            read_tracks_csv(path)

    def test_step_that_wraps_at_64_bits_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = f"{TRACKS_HEADER}\na,{2**63 - 1},1.0,2.0\na,{-(2**63)},1.5,2.0\n"
        path.write_text(rows)
        message = f"{path}: track 'a': frame indices must increase by exactly 1, got steps [-18446744073709551615]"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            read_tracks_csv(path)
        # the column parse names the track itself
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            fileio._table_from_columns(path, rows.splitlines()[1:])

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{TRACKS_HEADER}\nx\xff,0,1.0,2.0\n".encode("latin-1"))
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
            read_tracks_csv(path)

    def test_non_increasing_frames_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,1,1.0,2.0\nx,1,1.5,2.0\n")
        with pytest.raises(InvalidInput, match="track 'x'"):
            read_tracks_csv(path)

    def test_frame_gap_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACKS_HEADER}\nx,0,1.0,2.0\nx,2,1.5,2.0\n")
        with pytest.raises(InvalidInput, match="track 'x'"):
            read_tracks_csv(path)

    def test_interleaved_rows_group_by_id(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            f"{TRACKS_HEADER}\n"
            "b,0,1.0,1.0\n"
            "a,5,2.0,2.0\n"
            "b,1,1.5,1.0\n"
            "a,6,2.5,2.0\n"
        )
        ids, tracks = read_tracks_csv(path)
        assert ids == ["b", "a"]  # first-appearance order
        assert tracks[1].frames == (5, 6)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACKS_HEADER}\n\nx,0,1.0,2.0\n\nx,1,2.0,3.0\n")
        ids, tracks = read_tracks_csv(path)
        assert ids == ["x"]
        assert len(tracks[0]) == 2

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_tracks_csv(p1, sample_tracks())
        write_tracks_csv(p2, sample_tracks())
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert b"\r" not in p1.read_bytes()


# Hostile tokens for the property test of the track reader.
TRACK_IDS = st.sampled_from(["a", "b", " a", "a ", "car-0", "", " ", "\t", "\u00e9"])
COORDINATES = st.floats(allow_nan=False, allow_infinity=False).map(repr)
FRAME_TOKENS = st.sampled_from(
    [str(2**63), str(-(2**63) - 1), str(2**63 - 1), "x", "", " 7 ", "+1", "1_0", "1.0", "9"]
)
COORDINATE_TOKENS = st.sampled_from(
    ["nan", "inf", "-Infinity", "1e400", "-1e400", "5e-324", "1.7976931348623157e308", "abc", "", " 2.5 ", "1_0.5"]
)


@st.composite
def track_csvs(draw):
    """Track CSV text: well-formed tracks, their rows interleaved, then a
    few hostile edits, blank lines and a choice of line ending."""
    lengths = st.sampled_from([2, 3, 4, 2, 3, 4, 1])
    tracks = draw(
        st.lists(st.tuples(TRACK_IDS, st.integers(-5, 100), lengths), min_size=1, max_size=5, unique_by=lambda t: t[0])
    )
    queues = [
        [[tid, str(start + j), draw(COORDINATES), draw(COORDINATES)] for j in range(n)]
        for tid, start, n in tracks
    ]
    rows = []
    for pick in draw(st.lists(st.integers(0, 4), max_size=20)):
        live = [queue for queue in queues if queue]
        if live:
            rows.append(live[pick % len(live)].pop(0))
    rows += [row for queue in queues for row in queue]
    for at, edit in draw(st.lists(st.tuples(st.integers(0, 99), st.sampled_from("ifuvgdx")), max_size=2)):
        if not rows:
            break
        row = rows[at % len(rows)]
        if edit == "i":
            row[0] = draw(TRACK_IDS)
        elif edit == "f":
            row[1] = draw(FRAME_TOKENS)
        elif edit in "uv" and len(row) == 4:
            row["uv".index(edit) + 2] = draw(COORDINATE_TOKENS)
        elif edit == "g" and row[1].lstrip("-").isdigit():  # a frame gap, or a repeated frame
            row[1] = str(int(row[1]) + draw(st.sampled_from([1, -1])))
        elif edit == "d":
            row.pop()
        elif edit == "x":
            row.append("0.0")
    lines = [TRACKS_HEADER] + [",".join(row) for row in rows]
    for at, blank in draw(st.lists(st.tuples(st.integers(1, 99), st.sampled_from(["", " ", "\t "])), max_size=2)):
        lines.insert(1 + at % len(lines), blank)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def read_track_lines(path, lines: list[str]) -> tuple[list[str], list[TrackObservation]]:
    """read_tracks_csv one line at a time after its header check: the
    reference for the column parse and its error messages."""
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


class TestColumnParse:
    """read_tracks_csv parses columns a piece at a time; at any piece
    size it reads every file as the line reader read_track_lines does:
    the same tracks, or the same error."""

    @staticmethod
    def outcome(read):
        try:
            ids, tracks = read()
        except InvalidInput as exc:
            return str(exc)
        return ids, [t.frames for t in tracks], [t.positions.tolist() for t in tracks]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=track_csvs())
    @example(text=f"{TRACKS_HEADER}\n a,0,1.0,2.0\na ,0,1.0,2.0\n a,1,1.5,2.0\na ,1,1.0,2.5\n")
    @example(text=f"{TRACKS_HEADER}\r\nx,{2**63 - 1},1.0,2.0\r\n\r\nx,{2**63},1.5,2.0\r\n")
    @example(text=f"{TRACKS_HEADER}\n")
    @example(text=f"{TRACKS_HEADER}\nb,0,1.0,2.0\nb,1,1.0,2.0\na,{2**63 - 1},1.0,2.0\na,{-(2**63)},1.5,2.0\n")
    @example(text=f"{TRACKS_HEADER}\nx,0,1.0,2.0\nx,1,1e400,2.0\n")
    def test_column_and_line_parses_agree(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        lines = path.read_text(encoding="utf-8").splitlines()
        want = self.outcome(lambda: read_track_lines(path, lines))
        for size in (1, 7, fileio._PIECE):
            with mock.patch.object(fileio, "_PIECE", size):
                assert self.outcome(lambda: read_tracks_csv(path)) == want, size
        # the column parse of the lines as one list
        assert self.outcome(lambda: fileio._table_from_columns(path, lines[1:])) == want


def hostile_scenario(**fields):
    """A valid one-object scenario document with fields replaced."""
    doc = {
        "schema": 1, "intrinsics": {"focal_px": 800.0, "principal_point": [320.0, 240.0]},
        "objects": [{"id": "a", "points": [[1.0, 0.0, 20.0]], "velocity": [0.0, 0.0, -1.0]}],
        "frame_count": 5,
    }
    return {**doc, **fields}


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        scenario = sample_scenario()
        write_scenario(path, scenario)
        back = read_scenario(path)
        assert back.intrinsics.focal_px == scenario.intrinsics.focal_px
        assert back.intrinsics.principal_point == scenario.intrinsics.principal_point
        assert back.intrinsics.image_size == scenario.intrinsics.image_size
        assert back.frame_count == scenario.frame_count
        assert back.pixel_noise_sigma == scenario.pixel_noise_sigma
        assert back.rng_seed == scenario.rng_seed
        assert np.array_equal(back.camera_velocity, scenario.camera_velocity)
        assert len(back.objects) == 2
        for bo, so in zip(back.objects, scenario.objects):
            assert bo.object_id == so.object_id
            assert np.array_equal(bo.points, so.points)
            assert np.array_equal(bo.velocity, so.velocity)

    def test_round_trip_simulates_identically(self, tmp_path):
        path = tmp_path / "scene.json"
        scenario = sample_scenario()
        write_scenario(path, scenario)
        tracks_a, _ = simulate(scenario)
        tracks_b, _ = simulate(read_scenario(path))
        for a, b in zip(tracks_a, tracks_b):
            assert np.array_equal(a.positions, b.positions)

    def test_byte_identical_and_sorted(self, tmp_path):
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_scenario(p1, sample_scenario())
        write_scenario(p2, sample_scenario())
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert data.endswith(b"\n")
        assert b"\r" not in data
        text = data.decode()
        assert text.index('"camera_velocity"') < text.index('"frame_count"')

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput):
            read_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInput):
            read_scenario(path)

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes('{"schema": 1, "objects": [{"id": "caf\xe9"}]}'.encode("latin-1"))
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
            read_scenario(path)

    @pytest.mark.parametrize("objects", [None, 3, "car", {"id": "a"}])
    def test_objects_must_be_a_list(self, objects, tmp_path):
        path = tmp_path / "bad.json"
        write_json(
            path,
            {
                "schema": 1,
                "intrinsics": {"focal_px": 700.0, "principal_point": [320.0, 240.0]},
                "objects": objects,
                "frame_count": 4,
            },
        )
        with pytest.raises(InvalidInput, match=re.escape(f"scenario: objects must be a list, got {objects!r}")):
            read_scenario(path)

    @pytest.mark.parametrize("object_id, text", [("car", "car"), (7, "7"), (1.5, "1.5")])
    def test_object_id_string_or_number_kept_as_text(self, object_id, text, tmp_path):
        path = tmp_path / "scene.json"
        obj = {"id": object_id, "points": [[1.0, 0.0, 20.0]], "velocity": [0.0, 0.0, -1.0]}
        write_json(path, hostile_scenario(objects=[obj]))
        assert read_scenario(path).objects[0].object_id == text

    @pytest.mark.parametrize("part, doc", [
        ("intrinsics", hostile_scenario(intrinsics=[800.0, 320.0, 240.0])),
        ("objects[0]", hostile_scenario(objects=["a"])),
    ])
    def test_part_must_be_an_object(self, part, doc, tmp_path):
        path = tmp_path / "scene.json"
        write_json(path, doc)
        with pytest.raises(InvalidInput, match=re.escape(f"scenario: {part} must be an object")):
            read_scenario(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"schema": 2})
        with pytest.raises(InvalidInput, match="schema"):
            read_scenario(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(
            path,
            {
                "schema": 1,
                "intrinsics": {"focal_px": 700.0, "principal_point": [320.0, 240.0]},
                "objects": [{"id": "a", "points": [[0.0, 0.0, 5.0]]}],
                "frame_count": 4,
            },
        )
        with pytest.raises(InvalidInput, match="velocity"):
            read_scenario(path)

    def test_bad_intrinsics_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(
            path,
            {
                "schema": 1,
                "intrinsics": {"focal_px": -1.0, "principal_point": [320.0, 240.0]},
                "objects": [],
                "frame_count": 4,
            },
        )
        with pytest.raises(InvalidInput):
            read_scenario(path)


# values no scenario field takes: NaN, infinities, 400-digit integers,
# numbers past float64's range, fractions, strings, None, booleans, empty
# containers, ragged and nested-empty lists
HOSTILE_LEAVES = st.sampled_from([
    math.nan, math.inf, -math.inf, 10**399, -(10**399), 1.7e308, -1.7e308, 0.5, 2.5, "x", "3", None, True, "false",
    [], {}, [[]], [[], 1], [1, []], [[1.0, 2.0, 3.0], [1.0]], [[[]]],
]).map(copy.deepcopy)  # a later replacement may land inside a drawn list
# lists of the wrong length or depth
MISSHAPEN = st.lists(st.floats(-1e3, 1e3) | st.lists(st.floats(-1e3, 1e3), max_size=4), max_size=4)


def slots(node):
    """(container, key) of every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from slots(value)


@st.composite
def scenario_docs(draw):
    """A valid scenario document, then up to 3 of its values, at any
    depth, replaced by a hostile leaf or a misshapen list, or deleted."""
    coord = st.floats(-1e3, 1e3)
    vector = st.lists(coord, min_size=3, max_size=3)
    point = st.tuples(coord, coord, st.floats(0.1, 1e3)).map(list)
    size = st.none() | st.lists(st.integers(1, 2000), min_size=2, max_size=2)
    doc = draw(st.fixed_dictionaries({
        "schema": st.just(1),
        "intrinsics": st.fixed_dictionaries({
            "focal_px": st.floats(1.0, 1e4), "principal_point": st.lists(coord, min_size=2, max_size=2),
            "image_size": size, "allow_off_center": st.just(True),
        }),
        "objects": st.lists(st.fixed_dictionaries({
            "id": st.text(max_size=3), "points": st.lists(point, min_size=1, max_size=3), "velocity": vector,
        }), max_size=3),
        "camera_velocity": vector,
        "frame_count": st.integers(2, 50),
        "pixel_noise_sigma": st.floats(0.0, 5.0),
        "rng_seed": st.integers(0, 2**32),
    }))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(slots(doc))))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(HOSTILE_LEAVES | MISSHAPEN)
    return doc


class TestScenarioProperties:
    """read_scenario returns a Scenario or raises InvalidInput, whatever
    the document holds; never another error or a warning."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=scenario_docs())
    @example(doc=hostile_scenario(frame_count=math.inf))
    @example(doc=hostile_scenario(frame_count=math.nan))
    @example(doc=hostile_scenario(intrinsics={"focal_px": 800.0, "principal_point": [0, 0], "image_size": [math.inf, 720]}))
    @example(doc=hostile_scenario(intrinsics={"focal_px": 10**399, "principal_point": [320.0, 240.0]}))
    @example(doc=hostile_scenario(objects=[{"id": "a", "points": [[1.0, 10**399, 20.0]], "velocity": [0.0, 0.0, 1.0]}]))
    @example(doc=hostile_scenario(pixel_noise_sigma=10**399))
    @example(doc=hostile_scenario(camera_velocity=[0.0, 10**399, 0.0]))
    @example(doc=hostile_scenario(intrinsics={"focal_px": 800.0, "principal_point": [0, 0], "image_size": [[], 1]}))
    @example(doc=hostile_scenario(objects=[{"id": "a", "points": [[], 1], "velocity": [0.0, 0.0, 1.0]}]))
    @example(doc=hostile_scenario(objects=[{"id": None, "points": [[1.0, 0.0, 5.0]], "velocity": [0.0, 0.0, 1.0]}]))
    @example(doc=hostile_scenario(intrinsics=[]))
    def test_scenario_or_invalid_input(self, doc, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            scenario = read_scenario(path)
        except InvalidInput:
            return
        assert isinstance(scenario, Scenario)


class TestJsonHelpers:
    def test_write_json_numpy(self, tmp_path):
        path = tmp_path / "numpy.json"
        write_json(
            path,
            {
                "arr": np.array([[1.0, 2.0]]),
                "scalar": np.float64(3.5),
                "int": np.int64(7),
                "flag": np.bool_(True),
                "nested": (np.int32(1), [np.float32(0.5)]),
            },
        )
        assert read_json(path) == {
            "arr": [[1.0, 2.0]],
            "scalar": 3.5,
            "int": 7,
            "flag": True,
            "nested": [1, [0.5]],
        }

    def test_write_json_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": float("nan")})

    def test_read_back(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": [1, 2]})
        assert read_json(path) == {"a": [1, 2], "b": 1}


class TestTruthDocument:
    def test_document_shape(self, tmp_path):
        scenario = sample_scenario()
        tracks, truth = simulate(scenario)
        ids = [f"t{i}" for i in range(len(tracks))]
        doc = truth_document(truth, ids)
        assert doc["schema"] == 1
        assert doc["frame_count"] == scenario.frame_count
        assert len(doc["points"]) == len(tracks)
        first = doc["points"][0]
        assert first["track_id"] == "t0"
        assert first["object_id"] == "a"
        assert first["label"] == "Approaching"
        # document must be writable as JSON (no NaN, numpy gone)
        write_json(tmp_path / "truth.json", doc)

    def test_constant_bearing_nulls(self, tmp_path):
        intr = CameraIntrinsics(focal_px=700.0, principal_point=(320.0, 240.0))
        obj = SceneObject("s", np.array([[0.0, 0.0, 10.0]]), np.zeros(3))
        scenario = Scenario(
            intrinsics=intr, objects=(obj,), camera_velocity=np.zeros(3), frame_count=3
        )
        _, truth = simulate(scenario)
        doc = truth_document(truth, ["s-0"])
        pt = doc["points"][0]
        assert pt["epipole"] is None and pt["k0"] is None and pt["H"] is None
        write_json(tmp_path / "truth.json", doc)
        assert read_json(tmp_path / "truth.json")["points"][0]["k0"] is None

    def test_id_count_mismatch(self):
        _, truth = simulate(sample_scenario())
        with pytest.raises(InvalidInput):
            truth_document(truth, ["too-few"])


class TestGridCsvWriters:
    def test_collision_map_golden(self, tmp_path):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
        obj = SceneObject("w", np.array([[3.0, 0.0, 30.0]]), np.array([0.0, 0.0, -1.0]))
        scenario = Scenario(
            intrinsics=intr, objects=(obj,), camera_velocity=np.zeros(3), frame_count=40
        )
        cmap = collision_map(scenario, GridSpec(0.0, 0.0, 1, 1), collision_radius=2.0)
        path = tmp_path / "map.csv"
        write_collision_map_csv(path, cmap)
        assert path.read_text() == (
            "dv_lateral,dv_forward,min_ttc_frames,miss_distance_m,collision\n"
            "0.0,0.0,30.0,3.0,0\n"
        )

    def test_collision_map_inf_nan_cells(self, tmp_path):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
        scenario = Scenario(
            intrinsics=intr, objects=(), camera_velocity=np.zeros(3), frame_count=10
        )
        cmap = collision_map(scenario, GridSpec(0.0, 0.0, 1, 1))
        path = tmp_path / "map.csv"
        write_collision_map_csv(path, cmap)
        assert path.read_text().splitlines()[1] == "0.0,0.0,inf,nan,0"

    def test_collision_map_row_order(self, tmp_path):
        intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
        obj = SceneObject("w", np.array([[0.0, 0.0, 30.0]]), np.zeros(3))
        scenario = Scenario(
            intrinsics=intr,
            objects=(obj,),
            camera_velocity=np.array([0.0, 0.0, 1.0]),
            frame_count=40,
        )
        cmap = collision_map(scenario, GridSpec(1.0, 1.0, 3, 3))
        path = tmp_path / "map.csv"
        write_collision_map_csv(path, cmap)
        rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
        # forward-major: dv_forward constant within each block of 3
        assert [r[1] for r in rows] == ["-1.0"] * 3 + ["0.0"] * 3 + ["1.0"] * 3
        assert [r[0] for r in rows[:3]] == ["-1.0", "0.0", "1.0"]

    def test_collision_map_equals_per_cell_format(self, tmp_path):
        # every cell written as repr(float(value)), one numpy scalar at a time
        rng = np.random.default_rng(4)
        ttc = rng.uniform(0.0, 50.0, size=(5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
        ttc[0, :3] = np.inf
        miss = rng.uniform(0.0, 5.0, size=(5, 7))
        miss[0, :3] = np.nan
        miss[1, 1] = 0.0
        cmap = CollisionMap(
            lateral_offsets=(np.arange(7) - 3) * (0.7 / 3),
            forward_offsets=(np.arange(5) - 2) * 0.1,
            min_ttc=ttc,
            miss_distance=miss,
            collision=rng.random((5, 7)) < 0.5,
            collision_radius=2.0,
            frame_count=30,
        )
        path = tmp_path / "map.csv"
        write_collision_map_csv(path, cmap)
        expected = ["dv_lateral,dv_forward,min_ttc_frames,miss_distance_m,collision"]
        for fi, dv_f in enumerate(cmap.forward_offsets):
            for li, dv_l in enumerate(cmap.lateral_offsets):
                values = (dv_l, dv_f, ttc[fi, li], miss[fi, li])
                expected.append(
                    ",".join([repr(float(v)) for v in values] + ["1" if cmap.collision[fi, li] else "0"])
                )
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_sensitivity_csv_shape(self, tmp_path):
        table = orientation_error_sweep(
            preset_approach_45deg(10.0), [20.0, 40.0], trials=10, rng_seed=2
        )
        path = tmp_path / "sens.csv"
        write_sensitivity_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "z_m,stereo_depth_error_m,stereo_heading_error_deg,"
            "plane_heading_error_deg,ttc_error_frames,degenerate_trials"
        )
        assert len(lines) == 3
        assert lines[1].startswith("20.0,")
        assert lines[1].endswith(",0")  # degenerate count is an int


# Every line break of str.splitlines; reading the file turns "\r" and
# "\r\n" into "\n".
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def parse_outcome(path):
    """read_tracks_csv as comparable values, or its error message."""
    try:
        ids, table = read_tracks_csv(path)
    except InvalidInput as exc:
        return str(exc)
    return ids, table.frames.tolist(), table.positions.tolist(), table.start.tolist(), table.length.tolist()


def outcomes_by_piece_size(path, sizes):
    """parse_outcome with read_tracks_csv cutting the text into pieces of
    at least each of the given sizes."""
    found = {}
    for size in sizes:
        with mock.patch.object(fileio, "_PIECE", size):
            found[size] = parse_outcome(path)
    return found


class TestReadPieces:
    """read_tracks_csv parses its text in line-aligned pieces: any piece
    size reads a file exactly as one piece does."""

    @staticmethod
    def text_with_every_separator():
        rows = [TRACKS_HEADER]
        # tracks a and b interleaved, each spread over the whole file
        for j in range(len(SEPARATORS)):
            rows += [f"a,{j},{j}.5,1.25", f" b ,{10 + j},-{j}.0,2.5"]
        rows.insert(3, "")
        rows.insert(6, " \t ")
        text = ""
        for j, row in enumerate(rows[:-1]):
            # each separator alone, then before and after a "\n", where pieces end
            sep = SEPARATORS[j % len(SEPARATORS)]
            text += row + [sep, sep + "\n", "\n" + sep][(j // len(SEPARATORS)) % 3]
        return text + rows[-1] + "\n"

    def test_every_piece_size_reads_alike(self, tmp_path):
        path = tmp_path / "t.csv"
        text = self.text_with_every_separator()
        path.write_bytes(text.encode("utf-8"))
        whole = parse_outcome(path)
        assert whole[0] == ["a", " b "]
        assert whole[-1] == [len(SEPARATORS), len(SEPARATORS)]
        for size, got in outcomes_by_piece_size(path, range(1, len(text) + 2)).items():
            assert got == whole, size

    def test_separator_as_a_piece_ends(self, tmp_path):
        # a 2-row track whose separator falls just before and just after a cut
        path = tmp_path / "t.csv"
        for sep in SEPARATORS:
            for at in (sep + "\n", "\n" + sep):
                path.write_bytes(f"{TRACKS_HEADER}\nx,0,1.0,2.0{at}x,1,1.5,2.0\n".encode("utf-8"))
                want = (["x"], [0, 1], [[1.0, 2.0], [1.5, 2.0]], [0], [2])
                assert set(map(repr, outcomes_by_piece_size(path, range(1, 40)).values())) == {repr(want)}, repr(at)

    def test_bad_row_in_a_later_piece_named(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [f"t{i},{f},1.{i},2.{f}" for i in range(30) for f in range(2)]
        bad_at = len(rows) + 2  # 1-based, after the header
        for bad, message in (
            ("z,0,1.0", "expected 4 fields, got 3"),
            ("z,0,1.0,inf", "coordinates must be finite"),
            ("z,0,one,2.0", "could not convert string to float: 'one'"),
        ):
            path.write_text("\n".join([TRACKS_HEADER, *rows, bad, "z,1,1.0,2.0"]) + "\n")
            want = f"{path}: line {bad_at}: {message}"
            assert parse_outcome(path) == want
            for size, got in outcomes_by_piece_size(path, (1, 7, 64, 200, 10_000)).items():
                assert got == want, size

    def test_track_broken_in_a_later_piece_named(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [f"t{i},{f},1.{i},2.{f}" for i in range(30) for f in range(2)]
        path.write_text("\n".join([TRACKS_HEADER, *rows, "t3,3,1.0,2.0"]) + "\n")
        want = f"{path}: track 't3': frame indices must increase by exactly 1, got steps [1, 2]"
        assert set(outcomes_by_piece_size(path, (1, 7, 64, 10_000)).values()) == {want}

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=track_csvs(), separators=st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=4),
           size=st.integers(1, 120))
    def test_any_csv_any_piece_size(self, text, separators, size, tmp_path):
        lines = text.splitlines()
        text = "".join(line + separators[j % len(separators)] for j, line in enumerate(lines))
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcomes_by_piece_size(path, [size])[size] == parse_outcome(path)


JSON_STRINGS = st.text(max_size=6) | st.sampled_from(["\u00e9t\u00e9", '"q"', "back\\slash", "\u2028", '\\"', "\U0001f697"])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_STRINGS
    | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(np.bool_, st.booleans())
)
JSON_ENTRIES = st.dictionaries(JSON_STRINGS, JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3), max_size=4)


def rows_of(entries):
    """entries as a _Rows that builds fresh copies when read."""
    return fileio._Rows(len(entries), lambda start, stop: [dict(e) for e in entries[start:stop]])


class TestChunkedJson:
    """write_json encodes a _Rows value a chunk of entries at a time; the
    text equals json.dumps of the document with every _Rows a list."""

    @staticmethod
    def reference(document):
        listed = {key: list(value) if isinstance(value, fileio._Rows) else value for key, value in document.items()}
        return json.dumps(listed, sort_keys=True, default=lambda o: o.item()) + "\n"

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=st.dictionaries(
        JSON_STRINGS, JSON_SCALARS | st.lists(JSON_ENTRIES, max_size=7).map(rows_of), max_size=4,
    ))
    def test_every_chunk_size_writes_json_dumps(self, document, tmp_path):
        want = self.reference(document)
        longest = max([len(v) for v in document.values() if isinstance(v, fileio._Rows)], default=0)
        path = tmp_path / "doc.json"
        for size in range(1, longest + 2):
            with mock.patch.object(fileio, "_CHUNK", size):
                write_json(path, document)
            assert path.read_bytes().decode("utf-8") == want, size

    def test_empty_rows_and_empty_document(self, tmp_path):
        path = tmp_path / "doc.json"
        for document in ({}, {"rows": rows_of([])}, {"b": rows_of([]), "a": rows_of([{}])}):
            write_json(path, document)
            assert path.read_text(encoding="utf-8") == self.reference(document)

    @pytest.mark.parametrize("size", [1, 2, 512])
    def test_nan_in_a_later_chunk_leaves_no_file(self, size, tmp_path):
        entries = [{"k": float(i)} for i in range(5)] + [{"k": float("nan")}]
        path = tmp_path / "doc.json"
        with mock.patch.object(fileio, "_CHUNK", size), pytest.raises(ValueError):
            write_json(path, {"a": 1, "estimates": rows_of(entries)})
        assert not path.exists()
        with pytest.raises(ValueError):
            write_json(path, {"a": float("nan"), "b": rows_of(entries[:5])})
        assert not path.exists()

    def test_failed_write_removes_the_file_that_was_there(self, tmp_path):
        # the failure comes after earlier chunks were written over it
        entries = [{"k": float(i)} for i in range(5)] + [{"k": float("nan")}]
        path = tmp_path / "doc.json"
        path.write_text("an earlier result\n")
        with mock.patch.object(fileio, "_CHUNK", 2), pytest.raises(ValueError):
            write_json(path, {"a": 1, "estimates": rows_of(entries)})
        assert not path.exists()

    def test_failed_write_keeps_a_device_and_a_symlink(self, tmp_path):
        document = {"a": 1, "estimates": rows_of([{"k": 0.0}, {"k": float("nan")}])}
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("an earlier result\n")
        link.symlink_to(target)
        for path in (os.devnull, link):
            with mock.patch.object(fileio, "_CHUNK", 1), pytest.raises(ValueError):
                write_json(path, document)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert link.is_symlink() and target.is_file()

    def test_rows_index_and_slice(self):
        entries = [{"i": i} for i in range(7)]
        rows = rows_of(entries)
        assert len(rows) == 7 and rows[3] == {"i": 3} and rows[-1] == {"i": 6}
        assert rows[2:5] == entries[2:5] and rows[5:2] == [] and rows[::3] == entries[::3]
        assert rows[-3:] == entries[-3:] and list(rows) == entries
        with pytest.raises(IndexError):
            rows[7]


def traced_peak(call):
    """(tracemalloc peak of call() in bytes above what was allocated
    before, its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """On 20k tracks of 6 frames the text I/O holds the file's text and
    its arrays, not a Python object per line, field or entry: each CSV
    call peaks within the size of the text it reads or writes plus 12 MB.
    The JSON writer never holds its text whole: it peaks below 2 MB on
    a truth document of over 4 MB."""

    SLACK = 12 * 2**20
    JSON_PEAK = 2 * 2**20

    def test_20k_tracks(self, tmp_path):
        n, frames = 20_000, 6
        rng = np.random.default_rng(0)
        obj = SceneObject(
            "car", np.column_stack([rng.uniform(-20, 20, (n, 2)), rng.uniform(20, 60, n)]), np.array([0.2, 0.0, -1.0])
        )
        scenario = Scenario(
            intrinsics=CameraIntrinsics(focal_px=800.0, principal_point=(640.0, 360.0)),
            objects=(obj,), camera_velocity=np.zeros(3), frame_count=frames,
        )
        tracks, truth = simulate(scenario)
        ids = [f"car-{i}" for i in range(n)]
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "g.json"

        peak, _ = traced_peak(lambda: write_tracks_csv(csv_path, tracks, ids))
        assert peak <= csv_path.stat().st_size + self.SLACK
        peak, (_, table) = traced_peak(lambda: read_tracks_csv(csv_path))
        assert peak <= csv_path.stat().st_size + self.SLACK
        assert len(table.frames) == n * frames
        # a rejected file: a short last line, or a last row that breaks the last track's steps
        bad_path = tmp_path / "bad.csv"
        for row, message in (
            ("car-0,0,1.0", f"line {n * frames + 2}: expected 4 fields, got 3"),
            (f"{ids[-1]},{table.frames[-1] + 2},1.0,2.0",
             f"track {ids[-1]!r}: frame indices must increase by exactly 1, got steps [1, 1, 1, 1, 1, 2]"),
        ):
            bad_path.write_text(csv_path.read_text() + row + "\n")
            peak, got = traced_peak(lambda: parse_outcome(bad_path))
            assert got == f"{bad_path}: {message}"
            assert peak <= bad_path.stat().st_size + self.SLACK
        peak, _ = traced_peak(lambda: write_json(json_path, truth_document(truth, ids)))
        assert json_path.stat().st_size > 2 * self.JSON_PEAK
        assert peak <= self.JSON_PEAK
        assert json_path.read_bytes().count(b'"track_id"') == n

    def test_read_peak_below_twice_the_file(self, tmp_path):
        """The reader holds one piece of the text at a time, never the
        whole text beside the file's bytes: on a CSV of over 1 MB its
        peak stays below twice the file's size."""
        n, frames = 5_000, 6
        positions = np.random.default_rng(1).uniform(0.0, 1000.0, (n * frames, 2))
        start = np.arange(0, n * frames, frames)
        table = TrackTable(np.tile(np.arange(frames), n), positions, start, np.full(n, frames))
        path = tmp_path / "t.csv"
        write_tracks_csv(path, table)
        size = path.stat().st_size
        assert size >= 2**20
        peak, (_, read) = traced_peak(lambda: read_tracks_csv(path))
        assert peak < 2 * size
        assert np.array_equal(read.positions, positions)
