"""File format round-trips and parse error reporting."""

import re

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
        # the column parse declines the file, so the line parse names it
        assert fileio._table_from_columns(rows.splitlines()[1:]) is None

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


class TestColumnParse:
    """read_tracks_csv parses whole columns and falls back to the line
    parser only on a failed check; both must read every file alike."""

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
        want = self.outcome(lambda: fileio._read_track_lines(path, lines))
        got = self.outcome(lambda: read_tracks_csv(path))
        assert got == want
        # the column parse declines exactly the files the line parse rejects
        assert (fileio._table_from_columns(lines[1:]) is None) == isinstance(want, str)


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
