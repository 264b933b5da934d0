"""Flat run logs, trajectory files, level-set JSON, histogram CSV."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench.attainment import AttainmentPoint, LevelSet, default_nadir, eaf_levels
from attainbench.fileio import (
    NA,
    flat_file_name,
    read_flat_file,
    read_trajectories,
    write_flat_files,
    write_histogram,
    write_level_sets,
    write_trajectories,
)
from attainbench.histogram import eah, fit_discretization
from attainbench.loggers import CellKey, Cursor, LogInfo, Store, cell_key
from attainbench.problems import Direction, MetaData
from attainbench.properties import External, TransformedY, TransformedYBest
from attainbench.triggers import Always

from oracles import as_trajectories

MIN = Direction.MINIMIZATION
META = MetaData("fake", 3, 2, 5, MIN)


def feed(store, values, meta=META, runs=1):
    store.attach(meta)
    for _ in range(runs):
        best = math.inf
        for e, v in enumerate(values, start=1):
            best = min(best, v)
            store.call(LogInfo(evaluations=e, transformed_y=v, transformed_y_best=best))
        store.reset()


class TestFlatFiles:
    def test_file_name_encodes_the_cell(self):
        assert flat_file_name(CellKey("continuous", 1, 10, 1)) == "continuous_f1_d10_i1.csv"
        assert flat_file_name(cell_key(META)) == "fake_f3_d5_i2.csv"

    def test_header_then_one_line_per_event(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [4.0, 3.5])
        (path,) = write_flat_files(store, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["run,event,evaluations,transformed_y",
                         "0,0,1,4.0",
                         "0,1,2,3.5"]

    def test_runs_and_events_are_zero_based_evaluations_one_based(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [4.0], runs=2)
        (path,) = write_flat_files(store, tmp_path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body == ["0,0,1,4.0", "1,0,1,4.0"]

    def test_absent_values_render_as_na(self, tmp_path):
        external = External("extra", lambda: 7.0)
        store = Store([Always()], [TransformedY(), external])
        store.attach(META)
        store.call(LogInfo(evaluations=1, transformed_y=1.0, transformed_y_best=1.0))
        external.detach()
        store.call(LogInfo(evaluations=2, transformed_y=0.5, transformed_y_best=0.5))
        (path,) = write_flat_files(store, tmp_path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body == ["0,0,1,1.0,7.0", f"0,1,2,0.5,{NA}"]

    def test_a_present_nan_and_an_absent_reading_stay_apart(self, tmp_path):
        external = External("extra", lambda: math.nan)
        store = Store([Always()], [external])
        store.attach(META)
        store.call(LogInfo(evaluations=1))
        external.detach()
        store.call(LogInfo(evaluations=2))
        first, second = (Cursor(*cell_key(META), event_index=i) for i in (0, 1))
        assert math.isnan(store.at(first, "extra"))
        assert store.at(second, "extra") is None
        (path,) = write_flat_files(store, tmp_path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == ["0,0,1,nan", f"0,1,2,{NA}"]
        _, rows = read_flat_file(path)
        assert math.isnan(rows[0].values["extra"])
        assert rows[1].values["extra"] is None

    def test_numbers_use_shortest_roundtrip_rendering(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [0.1, 1 / 3])
        (path,) = write_flat_files(store, tmp_path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body[0].endswith(",0.1")
        assert body[1].endswith(",0.3333333333333333")
        assert float(body[1].rsplit(",", 1)[1]) == 1 / 3

    def test_files_are_utf8_with_unix_line_endings(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [4.0])
        (path,) = write_flat_files(store, tmp_path)
        raw = path.read_bytes()
        raw.decode("utf-8")
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_one_file_per_cell(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [4.0])
        feed(store, [5.0], meta=MetaData("fake", 1, 1, 5, MIN))
        paths = write_flat_files(store, tmp_path)
        assert sorted(p.name for p in paths) == ["fake_f1_d5_i1.csv", "fake_f3_d5_i2.csv"]

    def test_no_property_can_stand_in_for_the_evaluations_column(self):
        with pytest.raises(ValueError, match="property name 'evaluations' is reserved"):
            Store([Always()], [External("evaluations"), TransformedY()])

    def test_roundtrip_matches_the_store(self, tmp_path):
        store = Store([Always()], [TransformedY(), TransformedYBest()])
        feed(store, [4.0, 3.5, 3.7], runs=2)
        (path,) = write_flat_files(store, tmp_path)
        names, rows = read_flat_file(path)
        assert names == ["transformed_y", "transformed_y_best"]
        assert len(rows) == 6
        for row in rows:
            cursor = Cursor(*cell_key(META), run=row.run, event_index=row.event)
            for name in names:
                assert row.values[name] == store.at(cursor, name)
            assert row.evaluations == store.at(cursor, "evaluations")

    def test_unreadable_header_is_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a flat run log"):
            read_flat_file(path)

    def test_missing_file_raises_oserror_with_path(self, tmp_path):
        with pytest.raises(OSError, match="missing.csv"):
            read_flat_file(tmp_path / "missing.csv")

    @pytest.mark.parametrize("row, problem", [
        ("0,2,3", "row has 3 cells, expected 4"),
        ("0,2,3,4,5", "row has 5 cells, expected 4"),
        ("0,2,3,abc", "could not convert string to float: 'abc'"),
        ("0,x,3,4.0", "invalid literal for int"),
        ("0,2,NA,4.0", "could not convert string to float: 'NA'"),
        ("0,0,nan,2.0", "evaluation count nan is not an integer >= 1"),
        ("0,0,inf,2.0", "evaluation count inf is not an integer >= 1"),
        ("0,0,1.5,2.0", "evaluation count 1.5 is not an integer >= 1"),
        ("0,0,-3,2.0", "evaluation count -3 is not an integer >= 1"),
        ("0,0,0,2.0", "evaluation count 0 is not an integer >= 1"),
        ("-1,-2,1,2.0", "run -1 is not an integer >= 0"),
        ("0,-2,1,2.0", "event -2 is not an integer >= 0"),
    ])
    def test_bad_rows_name_path_and_line(self, tmp_path, row, problem):
        path = tmp_path / "x.csv"
        path.write_text(f"run,event,evaluations,y\n0,0,1,2.5\n0,1,2,NA\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"x.csv:4: {problem}"):
            read_flat_file(path)

    def test_a_count_an_older_writer_rendered_as_a_float_reads_as_an_int(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("run,event,evaluations,y\n0,0,1.0,2.5\n", encoding="utf-8")
        _, (row,) = read_flat_file(path)
        assert row.evaluations == 1 and isinstance(row.evaluations, int)

    @pytest.mark.parametrize("line", [1, 2, 3000])
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, line):
        lines = ["run,event,evaluations,y"] + [f"0,{i},{i + 1},2.5" for i in range(3000)]
        lines[line - 1] += "\udcff"
        path = tmp_path / "x.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ValueError, match=f"{path.name}:{line}: not UTF-8 text$"):
            read_flat_file(path)

    def test_a_lone_carriage_return_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"run,event,evaluations,y\n0,0,1,2.0\r0,1,2,3.0\n0,x,3,4.0\n")
        with pytest.raises(ValueError, match="x.csv:2: carriage return without a line feed"):
            read_flat_file(path)

    def test_windows_line_endings_are_accepted_and_lines_still_counted(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"run,event,evaluations,y\r\n0,0,1,2.5\r\n0,1,2,NA\r\n")
        names, rows = read_flat_file(path)
        assert names == ["y"]
        assert [(r.run, r.event, r.evaluations, r.values) for r in rows] == [
            (0, 0, 1, {"y": 2.5}), (0, 1, 2, {"y": None})]
        path.write_bytes(b"run,event,evaluations,y\r\n0,0,1,2.5\r\n0,x,2,NA\r\n")
        with pytest.raises(ValueError, match="x.csv:3: invalid literal for int"):
            read_flat_file(path)


property_names = st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters=',"\r\n'),
                         min_size=1, max_size=6).filter(lambda name: name != "evaluations")
readings = st.none() | st.floats()


@settings(max_examples=60, deadline=None)
@given(names=st.lists(property_names, max_size=4, unique=True), data=st.data())
def test_flat_files_read_back_every_reading_the_store_holds(tmp_path_factory, names, data):
    properties = [External(name) for name in names]
    store = Store([Always()], properties)
    cells = [MetaData("fuzz", problem, 1, 2, MIN) for problem in (1, 2, 3)]
    for meta in data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4)):
        store.attach(meta)
        for _ in range(data.draw(st.integers(1, 3))):
            for count in data.draw(st.lists(st.integers(1, 2**53), max_size=5)):
                for prop in properties:
                    value = data.draw(readings)
                    if value is None:
                        prop.detach()
                    else:
                        prop.rebind(lambda value=value: value)
                store.call(LogInfo(evaluations=count))
            store.reset()
    paths = write_flat_files(store, tmp_path_factory.mktemp("flat"))
    assert len(paths) == len(store.cells())

    def same(a, b):
        return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))

    for path, cell in zip(paths, store.cells()):
        read_names, rows = read_flat_file(path)
        assert read_names == names
        assert len(rows) == sum(len(store.events(cell, run)) for run in store.runs(cell))
        for row in rows:
            cursor = Cursor(*cell, run=row.run, event_index=row.event)
            assert row.evaluations == store.at(cursor, "evaluations")
            for name in names:
                assert same(row.values[name], store.at(cursor, name))


class TestTrajectoryFiles:
    def test_write_then_read_roundtrip(self, tmp_path):
        trajs = as_trajectories([[(1, 9.0), (4, 3.0)], [(2, 7.0)]], MIN)
        path = tmp_path / "t.csv"
        write_trajectories(path, trajs)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "run,evaluations,quality"
        back = read_trajectories(path)
        assert [t.run for t in back] == [0, 1]
        assert back[0].points == [AttainmentPoint(1, 9.0), AttainmentPoint(4, 3.0)]

    def test_ingestion_applies_the_improvement_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n"
                        "0,1,9\n0,2,7\n0,3,7\n0,4,3\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        assert traj.points == [AttainmentPoint(1, 9.0), AttainmentPoint(2, 7.0),
                               AttainmentPoint(4, 3.0)]

    def test_rows_may_arrive_out_of_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n"
                        "0,4,3\n0,1,9\n0,2,7\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        assert [p.time for p in traj.points] == [1, 2, 4]

    def test_direction_controls_the_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,1\n0,2,4\n0,3,2\n", encoding="utf-8")
        (traj,) = read_trajectories(path, direction=Direction.MAXIMIZATION)
        assert traj.points == [AttainmentPoint(1, 1.0), AttainmentPoint(2, 4.0)]

    def test_bad_header_and_empty_body_are_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("evaluations,quality\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a trajectory file"):
            read_trajectories(path)
        path.write_text("run,evaluations,quality\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no trajectory rows"):
            read_trajectories(path)

    @pytest.mark.parametrize("body", ["\n", " \n", "\n\t\n"])
    def test_an_all_blank_body_reports_its_first_blank_line(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match="t.csv:2: blank line"):
            read_trajectories(path)

    def test_malformed_rows_name_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,notanumber\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_trajectories(path)

    @pytest.mark.parametrize("row, problem", [
        ("0,0,-3", "evaluation count 0 is below 1"),
        ("0,-2,4", "evaluation count -2 is below 1"),
        ("0,5,nan", "quality nan is not finite"),
        ("0,5,inf", "quality inf is not finite"),
        ("0,5,-inf", "quality -inf is not finite"),
        ("", "blank line"),
        ("# comment", "expected 3 cells, got 1"),
        ("0,5", "expected 3 cells, got 2"),
        ("0,5,1,2", "expected 3 cells, got 4"),
        ("0,5,x", "could not convert string 'x'"),
    ])
    def test_bad_rows_are_rejected_with_their_line(self, tmp_path, row, problem):
        path = tmp_path / "t.csv"
        path.write_text(f"run,evaluations,quality\n0,1,9\n0,2,8\n{row}\n0,4,3\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"t.csv:4: {problem}"):
            read_trajectories(path)

    @pytest.mark.parametrize("line", [2, 3, 3000])
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, line):
        lines = ["run,evaluations,quality"] + [f"0,{i + 1},{3000 - i}" for i in range(3000)]
        lines[line - 1] += "\udcff"
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ValueError, match=f"{path.name}:{line}: not UTF-8 text$"):
            read_trajectories(path)

    @pytest.mark.parametrize("body, problem", [
        ("0,x,2.0\n0,2,1.0\n\n", ":2: could not convert string 'x' to int64"),
        ("0,1,2.0\n\n0,x,1.0\n", ":3: blank line"),
    ])
    def test_the_first_bad_line_is_named(self, tmp_path, body, problem):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"t.csv{problem}"):
            read_trajectories(path)

    def test_a_lone_carriage_return_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"run,evaluations,quality\n0,1,9\n0,2\r,1.0\n")
        with pytest.raises(ValueError, match="t.csv:3: carriage return without a line feed"):
            read_trajectories(path)

    def test_windows_line_endings_are_accepted_and_blank_lines_still_found(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"run,evaluations,quality\r\n0,1,9\r\n0,2,8\r\n")
        (traj,) = read_trajectories(path)
        assert traj.points == [AttainmentPoint(1, 9.0), AttainmentPoint(2, 8.0)]
        path.write_bytes(b"run,evaluations,quality\r\n0,1,9\r\n\r\n0,2,8\r\n")
        with pytest.raises(ValueError, match="t.csv:3: blank line"):
            read_trajectories(path)


class TestAtomicWrites:
    """A writer that fails mid-document leaves the earlier file and no temporary file."""

    @staticmethod
    def level_sets(path):
        sets = eaf_levels(as_trajectories([[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]], MIN))
        sets[1].points = [AttainmentPoint(2, object())]  # not JSON-serializable
        write_level_sets(path, sets, (4, 10.0))

    @staticmethod
    def histogram(path):
        trajs = as_trajectories([[(1, 10.0), (3, 5.0)]], MIN)
        hist = eah(trajs, fit_discretization(trajs, buckets=(2, 2)))
        hist.counts = None  # fails after the header block is written
        write_histogram(path, hist)

    @staticmethod
    def trajectories(path):
        trajs = as_trajectories([[(1, 10.0)], [(2, 8.0)]], MIN)
        trajs[1].points = [AttainmentPoint(2, "not a number")]
        write_trajectories(path, trajs)

    @pytest.mark.parametrize("writer", ["level_sets", "histogram", "trajectories"])
    def test_failure_mid_document_keeps_the_earlier_file(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_text("earlier\n", encoding="utf-8")
        with pytest.raises((TypeError, ValueError, AttributeError)):
            getattr(self, writer)(path)
        assert path.read_text(encoding="utf-8") == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_unwritable_target_names_the_path(self, tmp_path):
        trajs = as_trajectories([[(1, 10.0)]], MIN)
        with pytest.raises(OSError, match="cannot write trajectory file .*missing"):
            write_trajectories(tmp_path / "missing" / "t.csv", trajs)


class TestLevelSetExport:
    def test_document_shape(self, tmp_path):
        trajs = as_trajectories([[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]], MIN)
        sets = eaf_levels(trajs)
        nadir = default_nadir(trajs)
        path = tmp_path / "levels.json"
        write_level_sets(path, sets, nadir, group={"source": "test", "runs": 2})
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["group"] == {"source": "test", "runs": 2}
        assert document["direction"] == "min"
        assert document["nadir"] == [4, 10.0]
        assert [lv["level"] for lv in document["levels"]] == [1, 2]
        assert document["levels"][0]["points"] == [[1, 10.0], [2, 8.0], [3, 5.0], [4, 2.0]]
        assert document["levels"][1]["points"] == [[2, 10.0], [3, 8.0], [4, 5.0]]

    def test_bytes_match_the_json_module(self, tmp_path):
        trajs = as_trajectories([[(1, 10.0), (3, 0.1)], [(2, 1e-300), (4, -2.5e20)]], MIN)
        sets = eaf_levels(trajs) + [LevelSet(3, [AttainmentPoint(5, math.inf),
                                                 AttainmentPoint(6, math.nan)], MIN),
                                    LevelSet(4, [], MIN)]
        group = {"source": "caf\u00e9.csv", "runs": 2, "tags": ["a", {"b": None}], "empty": {}}
        path = tmp_path / "levels.json"
        for level_sets in (sets, []):
            write_level_sets(path, level_sets, (4, 10.0), group)
            document = {
                "group": group,
                "direction": "min" if level_sets else None,
                "nadir": [4, 10.0],
                "levels": [{"level": ls.level, "points": [[p.time, p.quality] for p in ls.points]}
                           for ls in level_sets],
            }
            assert path.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"


class TestHistogramExport:
    def test_header_block_then_counts(self, tmp_path):
        trajs = as_trajectories([[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]], MIN)
        hist = eah(trajs, fit_discretization(trajs, buckets=(2, 2), scales=("log", "log")))
        path = tmp_path / "h.csv"
        write_histogram(path, hist)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# axis,buckets,origin,extent,scale"
        assert lines[1] == "# time,2,1.0,3.0,log"
        assert lines[2] == "# quality,2,2.0,8.0,log"
        assert lines[3] == "# runs,2"
        assert lines[4] == "t_bucket,q_bucket,count"
        assert lines[5:] == ["0,0,0", "0,1,2", "1,0,1", "1,1,2"]
