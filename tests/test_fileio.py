"""Flat run logs, trajectory files, level-set JSON, histogram CSV."""

import json
import math
import re
import stat
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench import fileio
from attainbench.attainment import AttainmentPoint, LevelSet, default_nadir, eaf_levels
from attainbench.fileio import (
    NA,
    FlatFile,
    _TRAJECTORY,
    _fields,
    cell_stem,
    read_flat_file,
    read_trajectories,
    write_flat_files,
    write_histogram,
    write_level_sets,
    write_trajectories,
)
from attainbench.histogram import Axis, Discretization, Histogram, eah, fit_discretization
from attainbench.loggers import CellKey, Combine, Cursor, LogInfo, Store, cell_key
from attainbench.problems import Direction, MetaData, Sphere
from attainbench.properties import External, Property, TransformedY, TransformedYBest
from attainbench.triggers import Always, Each, Trigger

from oracles import (as_trajectories, batch_of, improvement_staircase_rowwise,
                     write_flat_files_per_row)

MIN = Direction.MINIMIZATION
META = MetaData("fake", 3, 2, 5, MIN)


def feed(store, values, meta=META, runs=1):
    store.attach(meta)
    for _ in range(runs):
        best = math.inf
        for e, v in enumerate(values, start=1):
            best = min(best, v)
            store.call(batch_of(LogInfo(evaluations=e, transformed_y=v,
                                        transformed_y_best=best)))
        store.reset()


class TestFlatFiles:
    def test_file_name_encodes_the_cell(self):
        assert cell_stem(CellKey("continuous", 1, 10, 1)) == "continuous_f1_d10_i1"
        assert cell_stem(cell_key(META)) == "fake_f3_d5_i2"

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
        store.call(batch_of(LogInfo(evaluations=1, transformed_y=1.0, transformed_y_best=1.0)))
        external.detach()
        store.call(batch_of(LogInfo(evaluations=2, transformed_y=0.5, transformed_y_best=0.5)))
        (path,) = write_flat_files(store, tmp_path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert body == ["0,0,1,1.0,7.0", f"0,1,2,0.5,{NA}"]

    def test_a_present_nan_and_an_absent_reading_stay_apart(self, tmp_path):
        external = External("extra", lambda: math.nan)
        store = Store([Always()], [external])
        store.attach(META)
        store.call(batch_of(LogInfo(evaluations=1)))
        external.detach()
        store.call(batch_of(LogInfo(evaluations=2)))
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

    @pytest.mark.parametrize("reading", [[1], "1.5", True, "x", 1],
                             ids=["list", "numeric text", "bool", "text", "int"])
    def test_a_reading_that_is_not_a_float_is_named_and_its_file_not_written(
            self, tmp_path, reading):
        class Odd(Property):
            """Reads ``reading`` at evaluation 3 and 1.0 elsewhere."""

            def __call__(self, batch):
                return tuple(reading if e == 3 else 1.0 for e in batch.evaluations)

        store = Store([Always()], [TransformedY(), Odd("odd")])
        feed(store, [4.0, 3.5])
        feed(store, [4.0, 3.5, 3.0, 2.0])
        path = tmp_path / f"{cell_stem(META)}.csv"
        message = f"{path}: run 1, event 2: property 'odd' reading {reading!r} is not a float"
        with mock.patch.object(fileio, "_FLAT_BLOCK", 2):
            with pytest.raises(ValueError, match=re.escape(message)):
                write_flat_files(store, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_a_float_subclass_is_a_float_reading(self, tmp_path):
        store = Store([Always()], [TransformedY()])
        feed(store, [np.float64(4.0), 3.5])
        (path,) = write_flat_files(store, tmp_path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == ["0,0,1,4.0", "0,1,2,3.5"]

    def test_no_property_can_stand_in_for_the_evaluations_column(self):
        with pytest.raises(ValueError, match="property name 'evaluations' is reserved"):
            Store([Always()], [External("evaluations"), TransformedY()])

    def test_writing_leaves_no_tuple_on_the_20_item_free_list(self, tmp_path, new_free_20_tuples):
        setup = ("from attainbench.loggers import Store\n"
                 "from attainbench.fileio import write_flat_files\n"
                 "from attainbench.problems import Sphere\n"
                 "from attainbench.properties import TransformedY\n"
                 "from attainbench.triggers import Always\n"
                 "pb = Sphere(1, 1, 2)\n"
                 "store = Store([Always()], [TransformedY()])\n"
                 "pb.attach_logger(store)\n"
                 "for x in range(20):\n"
                 "    pb((float(x), 0.0))")
        write = ("for _ in range(100):\n"
                 f"    write_flat_files(store, {str(tmp_path)!r})")
        assert new_free_20_tuples(setup, write) <= 0
        (path,) = tmp_path.iterdir()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 20

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
        ("0,2,3", "expected 4 cells, got 3"),
        ("0,2,3,4,5", "expected 4 cells, got 5"),
        ("0,2,3,abc", "y reading 'abc' is not a number or NA"),
        ("0,x,3,4.0", r"event 'x' is not an integer in \[0, 2\*\*63\)"),
        ("0,2,NA,4.0", r"evaluation count 'NA' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,nan,2.0", r"evaluation count 'nan' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,inf,2.0", r"evaluation count 'inf' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,1.5,2.0", r"evaluation count '1\.5' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,1.0,2.5", r"evaluation count '1\.0' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,-3,2.0", r"evaluation count '-3' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,0,2.0", r"evaluation count '0' is not an integer in \[1, 2\*\*63\)"),
        ("-1,-2,1,2.0", r"run '-1' is not an integer in \[0, 2\*\*63\)"),
        ("0,-2,1,2.0", r"event '-2' is not an integer in \[0, 2\*\*63\)"),
        ("0,0,1_0,2.0", r"evaluation count '1_0' is not an integer in \[1, 2\*\*63\)"),
        ("0,0, 1,2.0", r"evaluation count ' 1' is not an integer in \[1, 2\*\*63\)"),
        ("+0,0,1,2.0", r"run '\+0' is not an integer in \[0, 2\*\*63\)"),
        ("0,0,1,2_5", "y reading '2_5' is not a number or NA"),
        ("0,0,1, 2.5", "y reading ' 2.5' is not a number or NA"),
        ('0,0,1,"2.5"', "y reading '\"2.5\"' is not a number or NA"),
        ('0,0,1,"2.5\n0,1,2,3.0', "y reading '\"2.5' is not a number or NA"),
        ("\u0661,0,1,2.5", "run '\u0661' is not an integer in \\[0, 2\\*\\*63\\)"),
        ("0,0,1,\u0661", "y reading '\u0661' is not a number or NA"),
        ("0,0,1,\u0131nf", "y reading '\u0131nf' is not a number or NA"),
        ("0,0,1,-\u0130nf", "y reading '-\u0130nf' is not a number or NA"),
        ("0,0,1,\u0131nf\u0131n\u0131ty",
         "y reading '\u0131nf\u0131n\u0131ty' is not a number or NA"),
        (f"0,0,{2**63},2.5", rf"evaluation count '{2**63}' is not an integer in \[1, 2\*\*63\)"),
        pytest.param("0,0," + "1" * 5000 + ",2.5",
                     rf"evaluation count '{'1' * 5000}' is not an integer in \[1, 2\*\*63\)$",
                     id="5000-digit count"),
    ])
    def test_bad_rows_name_path_and_line(self, tmp_path, row, problem):
        path = tmp_path / "x.csv"
        path.write_text(f"run,event,evaluations,y\n0,0,1,2.5\n0,1,2,NA\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"x.csv:4: {problem}"):
            read_flat_file(path)

    @pytest.mark.parametrize("names, problem", [
        ("y,y", r"duplicate property name\(s\): \['y'\]"),
        ("a,y,a,b,y", r"duplicate property name\(s\): \['a', 'y'\]"),
        ("y,", "property name must be non-empty"),
        ("evaluations", "property name 'evaluations' is reserved for the evaluation count"),
        ('"y"', "property name '\"y\"' contains a comma, quote or line break"),
    ])
    def test_a_header_whose_property_names_a_store_could_not_have_is_named(
            self, tmp_path, names, problem):
        path = tmp_path / "x.csv"
        cells = ",".join("2.5" for _ in names.split(","))
        path.write_text(f"run,event,evaluations,{names}\n0,0,1,{cells}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"x.csv:1: {problem}$"):
            read_flat_file(path)

    def test_a_header_of_100000_distinct_property_names_is_read_in_linear_time(self, tmp_path):
        names = [f"p{i}" for i in range(100_000)]
        path = tmp_path / "x.csv"
        path.write_text(",".join(["run", "event", "evaluations", *names]) + "\n",
                        encoding="utf-8")
        start = time.perf_counter()
        assert read_flat_file(path) == (names, [])
        assert time.perf_counter() - start < 10  # a quadratic check takes minutes

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
        with pytest.raises(ValueError,
                           match=r"x.csv:3: event 'x' is not an integer in \[0, 2\*\*63\)"):
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
                store.call(batch_of(LogInfo(evaluations=count)))
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


class Scripted(Property):
    """Reads, for each batch, the readings a test set on it beforehand."""

    readings = ()

    def __call__(self, batch):
        return self.readings


class ScriptedTrigger(Trigger):
    """Fires, for each batch, on the rows a test chose beforehand."""

    fired = ()

    def __call__(self, batch, meta):
        return self.fired


def scripted_loggers(names, cells, directory=None) -> list:
    """A store, and with ``directory`` a :class:`FlatFile` writing there, fed through one
    :class:`Combine`, per cell, runs of batches of ``(fired, *readings)`` rows, one reading
    per name; a reset ends each run and the flat-file logger is closed at the end."""
    trigger, properties = ScriptedTrigger(), [Scripted(name) for name in names]
    loggers = [Store([trigger], properties)]
    if directory is not None:
        loggers.append(FlatFile(directory, [trigger], properties))
    fan = Combine(loggers)
    for meta, runs in zip((META, MetaData("fake", 4, 2, 5, MIN)), cells):
        fan.attach(meta)
        count = 0
        for batches in runs:
            for rows in batches:
                trigger.fired, *columns = (list(column) for column in zip(*rows))
                for prop, column in zip(properties, columns):
                    prop.readings = tuple(column)
                counts = range(count + 1, count + len(rows) + 1)
                fan.call(batch_of(*(LogInfo(evaluations=e) for e in counts)))
                count += len(rows)
            fan.reset()
    for flat in loggers[1:]:
        flat.close()
    return loggers


def scripted_store(names, cells):
    return scripted_loggers(names, cells)[0]


def assert_the_per_row_bytes(names, cells, directory, block):
    """The flat files of a script, written from its store by :func:`write_flat_files` and
    by a :class:`FlatFile` as it is fed, each :data:`fileio._FLAT_BLOCK` set to ``block``,
    are the bytes the per-row writer gives, and the logger leaves no other file."""
    with mock.patch.object(fileio, "_FLAT_BLOCK", block):
        store, flat = scripted_loggers(names, cells, directory / "streamed")
        paths = write_flat_files(store, directory / "columns")
    expected = write_flat_files_per_row(store, directory / "rows")
    for written in (paths, flat.paths):
        assert [path.name for path in written] == [path.name for path in expected]
        for path, reference in zip(written, expected):
            assert path.read_bytes() == reference.read_bytes()
    streamed = directory / "streamed"
    assert sorted(streamed.iterdir() if streamed.exists() else ()) == flat.paths


@pytest.mark.parametrize("column", [
    [1.0, 1.0, 1.0, 2.0, 2.0],
    [0.0, -0.0, -0.0, 0.0],
    [math.nan, None, None, math.nan],
    [1.0, None, None, 1.0],
    [-0.0, None, 0.0, math.nan, -math.nan],
    [math.inf, -math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e16, None],
])
@pytest.mark.parametrize("block", [1, 2, 4096])
def test_flat_files_are_the_bytes_the_per_row_writer_gives(tmp_path, column, block):
    rows = [(True, value, 3.0) for value in column]
    cells = [[[rows[:2], rows[2:]], [[(False, 0.0, 0.0)]], [rows]]]
    assert_the_per_row_bytes(["y", "z"], cells, tmp_path, block)


#: Pairs of readings that a writer comparing values, or ignoring presence, would merge,
#: and other edges of float rendering.
reading_pairs = st.sampled_from([(0.0, -0.0), (math.nan, None), (1.0, None),
                                 (math.inf, -math.inf), (5e-324, 1e16)])
edge_readings = st.sampled_from([0.0, -0.0, math.nan, None, math.inf, -math.inf,
                                 5e-324, 1e16, 2.5])


@settings(max_examples=300, deadline=None)
@given(names=st.lists(property_names, max_size=3, unique=True),
       block=st.sampled_from([1, 2, 3, 4096]), data=st.data())
def test_columns_render_as_the_per_row_writer_renders_each_row(tmp_path_factory, names, block,
                                                                data):
    # A pool of two or three readings makes runs of equal readings, and each pair of its
    # readings side by side, common.
    pool = st.sampled_from(data.draw(reading_pairs) + (data.draw(edge_readings),))
    rows = st.tuples(st.booleans(), *[pool] * len(names))
    runs = st.lists(st.lists(st.lists(rows, min_size=1, max_size=5), max_size=4), max_size=3)
    cells = data.draw(st.lists(runs, min_size=1, max_size=2))
    assert_the_per_row_bytes(names, cells, tmp_path_factory.mktemp("flat"), block)


class Junk(float):
    """A float whose ``repr`` is not its value's text."""

    def __repr__(self):
        return "junk"


def float_of_bits(bits: int) -> float:
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


#: Pairs of reading objects that sit side by side: equal floats that are distinct objects,
#: readings a writer keyed by value would merge, and floats whose ``repr`` is not the
#: text of their value.
object_pairs = [
    (2.5, float("2.5")), (float("2.5"), float("2.5")), (0.0, -0.0), (math.nan, None),
    (Junk(1.5), 1.5), (Junk(1.5), Junk(1.5)), (np.float64(4.0), 4.0),
    (np.float64(-0.0), np.float64(-0.0)),
]
#: Other edges of float rendering: NaNs of other payloads and signs, subnormals, infinities
#: and the neighbours of 1e16 and 1e-4, where repr switches between its two forms.
edge_objects = [
    float_of_bits(0x7FF8000000000001), float_of_bits(0xFFF8000000000000),
    float_of_bits(0x7FF0000000000001), 5e-324, -5e-324, 2.2250738585072009e-308,
    math.inf, -math.inf, 9999999999999998.0, 1e16, 1.0000000000000002e16,
    9.999999999999999e-05, 1e-4, 1.0000000000000002e-04, None,
]


@pytest.mark.parametrize("block", [1, 2, 4096])
def test_every_reading_object_renders_as_the_per_row_writer_renders_it(tmp_path, block):
    a, b = object_pairs[1]
    assert a == b and a is not b
    # Each object beside its pair, then again in a run of its own, then apart.
    objects = [reading for pair in object_pairs for reading in pair] + edge_objects
    column = objects + [reading for reading in objects for _ in range(3)] + objects[::-1]
    rows = [(True, reading, other) for reading, other in zip(column, column[::-1])]
    assert_the_per_row_bytes(["y", "z"], [[[rows[:5], rows[5:]], [rows]]], tmp_path, block)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(property_names, min_size=1, max_size=3, unique=True),
       block=st.sampled_from([1, 2, 4096]), data=st.data())
def test_runs_of_one_object_render_as_the_per_row_writer_renders_each_row(
        tmp_path_factory, names, block, data):
    # Readings drawn from a pool of one pair and one or two other objects recur, in runs
    # and apart, and the pair's two objects sit side by side.
    extra = st.sampled_from(edge_objects + [reading for pair in object_pairs for reading in pair])
    pool = data.draw(st.sampled_from(object_pairs))
    pool += tuple(data.draw(st.lists(extra, min_size=1, max_size=2)))
    rows = st.tuples(st.booleans(), *[st.sampled_from(pool)] * len(names))
    runs = st.lists(st.lists(st.lists(rows, min_size=1, max_size=8), max_size=4), max_size=3)
    cells = data.draw(st.lists(runs, min_size=1, max_size=2))
    assert_the_per_row_bytes(names, cells, tmp_path_factory.mktemp("flat"), block)


def assert_named_and_not_written(store, directory, run, event, name, reading):
    path = directory / f"{cell_stem(META)}.csv"
    message = (f"{path}: run {run}, event {event}: property {name!r} reading {reading!r} "
               "is not a float or None")
    with mock.patch.object(fileio, "_FLAT_BLOCK", 4096):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_flat_files(store, directory)
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize("reading", [1, True], ids=["int", "bool"])
def test_a_reading_equal_to_the_float_before_it_is_named_at_its_own_event(tmp_path, reading):
    store = scripted_store(["y"], [[[[(True, 1.0), (True, reading), (True, 1.0)]]]])
    assert_named_and_not_written(store, tmp_path, 0, 1, "y", reading)


def test_a_bad_reading_of_a_later_property_is_named_when_the_earlier_ones_are_clean(
        tmp_path):
    rows = [(True, 2.0, 2.0), (True, 2.0, 2.0), (True, None, "2.0"), (True, 3.0, 3.0)]
    store = scripted_store(["y", "z"], [[[rows]]])
    assert_named_and_not_written(store, tmp_path, 0, 2, "z", "2.0")


def test_the_first_bad_reading_in_property_order_is_named_before_an_earlier_event(tmp_path):
    rows = [(True, 2.0, 7), (True, 2.0, 2.0), (True, 8, 2.0)]
    store = scripted_store(["y", "z"], [[[rows]]])
    assert_named_and_not_written(store, tmp_path, 0, 2, "y", 8)


def test_writing_a_run_random_continuous_sized_store_peaks_under_70_kb(tmp_path, traced_peak):
    # The table-based renderer peaked at 72 KB on this store, the one-pass renderer at 65 KB.
    store = Store([Always()], [TransformedY(), TransformedYBest()])
    for run in range(2):
        feed(store, np.random.default_rng(run).random(1000).tolist())
    write_flat_files(store, tmp_path)  # so that first-call set-up is not counted
    assert traced_peak(write_flat_files, store, tmp_path) < 70_000
    (path,) = tmp_path.iterdir()
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 2 * 1000


def test_the_flat_file_logger_writes_what_the_store_writer_writes_of_a_problem(tmp_path):
    extra = External("extra")
    properties = [TransformedY(), extra]
    store = Store([Each(2)], properties)
    flat = FlatFile(tmp_path / "streamed", [Each(2)], properties)
    rng = np.random.default_rng(5)
    for problem_id, instance, runs in ((1, 1, 3), (2, 1, 1), (1, 2, 1)):
        problem = Sphere(problem_id, instance, 3, suite_name="s")
        problem.attach_logger(store)
        problem.attach_logger(flat)
        for run in range(runs):
            if (problem_id, run) == (2, 0) or run == 1:
                problem(rng.random(3))  # evaluation 1 alone: no event in this run or cell
            else:
                extra.rebind(lambda: -0.0)
                problem.evaluate(rng.random((20, 3)))  # logged as rows 1-19, then row 20
                extra.rebind(lambda: math.nan)
                problem.evaluate(rng.random((600, 3)))  # past one block of _FLAT_BLOCK rows
                extra.detach()
                problem.evaluate(rng.random((2, 3)))
            problem.reset()
    flat.close()
    paths = write_flat_files(store, tmp_path / "stored")
    expected = write_flat_files_per_row(store, tmp_path / "rows")
    assert [path.name for path in paths] == ["s_f1_d3_i1.csv", "s_f1_d3_i2.csv"]
    assert sorted((tmp_path / "streamed").iterdir()) == flat.paths
    for streamed, stored, reference in zip(flat.paths, paths, expected, strict=True):
        assert streamed.read_bytes() == stored.read_bytes() == reference.read_bytes()
    lines = flat.paths[0].read_text(encoding="utf-8").splitlines()
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"-0.0", "nan", "NA"}


def test_a_bad_reading_past_the_first_block_is_named_at_its_event_and_no_file_is_left(
        tmp_path):
    rows = [(True, 1.0)] * 300 + [(True, 1)] + [(True, 2.0)] * 10
    directory = tmp_path / "flat"
    path = directory / f"{cell_stem(META)}.csv"
    message = f"{path}: run 1, event 300: property 'y' reading 1 is not a float or None"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scripted_loggers(["y"], [[[rows[:3]], [rows[:5], rows[5:]]]], directory)
    assert list(directory.iterdir()) == []


def test_an_empty_store_creates_the_directory_and_writes_no_file(tmp_path):
    directory = tmp_path / "a" / "b"
    assert write_flat_files(Store([Always()], [TransformedY()]), directory) == []
    assert list(directory.iterdir()) == []


def test_a_bad_reading_in_a_later_cell_leaves_the_earlier_cells_file_as_a_clean_write(
        tmp_path):
    clean, bad = [[[(True, 1.0), (True, 2.5)]]], [[[(True, 3.0), (True, "x")]]]
    (reference,) = write_flat_files(scripted_store(["y"], [clean]), tmp_path / "clean")
    directory = tmp_path / "flat"
    path = directory / f"{cell_stem(MetaData('fake', 4, 2, 5, MIN))}.csv"
    message = f"{path}: run 0, event 1: property 'y' reading 'x' is not a float or None"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_flat_files(scripted_store(["y"], [clean, bad]), directory)
    assert list(directory.iterdir()) == [directory / reference.name]
    assert (directory / reference.name).read_bytes() == reference.read_bytes()


def test_a_cell_whose_flat_file_was_written_is_not_written_again(tmp_path):
    flat = FlatFile(tmp_path, [Always()], [TransformedY()])
    other = MetaData("fake", 4, 2, 5, MIN)
    feed(flat, [4.0, 3.5])
    feed(flat, [5.0], meta=other)  # its attach commits META's file
    path = tmp_path / f"{cell_stem(META)}.csv"
    written = path.read_bytes()
    flat.attach(META)  # a visit with no event is no write
    flat.attach(other)
    message = (f"{path}: the flat file of {cell_key(META)} is closed, and a FlatFile writes "
               "each cell's file once")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        feed(flat, [1.0], meta=META)
    flat.close()
    assert path.read_bytes() == written
    assert sorted(tmp_path.iterdir()) == sorted(flat.paths) == [
        path, tmp_path / f"{cell_stem(other)}.csv"]


def test_an_aborted_flat_file_leaves_the_earlier_file(tmp_path):
    path = tmp_path / f"{cell_stem(META)}.csv"
    path.write_text("earlier\n", encoding="utf-8")
    flat = FlatFile(tmp_path, [Always()], [TransformedY()])
    feed(flat, [4.0, 3.5])
    flat.abort()
    flat.close()
    assert flat.paths == []
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "earlier\n"


def test_two_writers_open_on_one_path_each_write_a_whole_file_of_their_own(tmp_path):
    path = tmp_path / "out.csv"
    with fileio._atomic_writer(path, "file") as first:
        first.write("first\n" * 1000)
        with fileio._atomic_writer(path, "file") as second:
            second.write("second\n")
        assert path.read_text(encoding="utf-8") == "second\n"
        first.write("first\n")
    assert path.read_text(encoding="utf-8") == "first\n" * 1001
    assert list(tmp_path.iterdir()) == [path]
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (path, tmp_path / "plain")}
    assert len(modes) == 1


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

    def test_same_time_improvements_collapse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,9\n0,1,7\n0,2,8\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        assert traj.points == [AttainmentPoint(1, 7.0)]

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
        ("0,0,-3", r"evaluation count '0' is not an integer in \[1, 2\*\*63\)"),
        ("0,-2,4", r"evaluation count '-2' is not an integer in \[1, 2\*\*63\)"),
        ("-1,3,1.0", r"run '-1' is not an integer in \[0, 2\*\*63\)"),
        ("0,5,nan", "quality 'nan' is not a finite number"),
        ("0,5,inf", "quality 'inf' is not a finite number"),
        ("0,5,-inf", "quality '-inf' is not a finite number"),
        ("", "blank line"),
        ("# comment", "expected 3 cells, got 1"),
        ("0,5", "expected 3 cells, got 2"),
        ("0,5,1,2", "expected 3 cells, got 4"),
        ("0,5,x", "quality 'x' is not a finite number"),
        ("0,5,\u0131nf", "quality '\u0131nf' is not a finite number"),
        ("0,5,+\u0130nf", r"quality '\+\u0130nf' is not a finite number"),
        ("0,5,\u0131nf\u0131n\u0131ty",
         "quality '\u0131nf\u0131n\u0131ty' is not a finite number"),
        ("0, 5,1.0", r"evaluation count ' 5' is not an integer in \[1, 2\*\*63\)"),
        ("0,5,1.0\t", r"quality '1\.0\\t' is not a finite number"),
        ("0\u00a0,5,1.0", r"run '0\\xa0' is not an integer in \[0, 2\*\*63\)"),
        ("+0,5,1.0", r"run '\+0' is not an integer in \[0, 2\*\*63\)"),
        ("0,+5,1.0", r"evaluation count '\+5' is not an integer in \[1, 2\*\*63\)"),
        ("+0,+1,2.5", r"run '\+0' is not an integer in \[0, 2\*\*63\)"),
    ])
    def test_bad_rows_are_rejected_with_their_line(self, tmp_path, row, problem):
        path = tmp_path / "t.csv"
        path.write_text(f"run,evaluations,quality\n0,1,9\n0,2,8\n{row}\n0,4,3\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"t.csv:4: {problem}"):
            read_trajectories(path)

    def test_a_long_run_of_leading_zeros_reads_on_both_paths(self, tmp_path):
        # Past Python's 4,300-digit limit for int(); loadtxt reads such a cell as well.
        path = tmp_path / "t.csv"
        padded = "0" * 5000
        path.write_text(f"run,evaluations,quality\n{padded}0,{padded}1,9\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        assert (traj.run, traj.points) == (0, [AttainmentPoint(1, 9.0)])
        path.write_text(f"run,evaluations,quality\n{padded}0,{padded}1,9\n0,x,8\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"t.csv:3: evaluation count 'x' is not an integer"):
            read_trajectories(path)

    @pytest.mark.parametrize("quality", ["1" * 50_000 + "x", "1." + "1" * 50_000 + "x"])
    def test_a_long_cell_is_rejected_in_linear_time(self, tmp_path, quality):
        # A backtracking number pattern takes over a minute on these; the rule takes ms.
        path = tmp_path / "t.csv"
        path.write_text(f"run,evaluations,quality\n0,1,{quality}\n", encoding="utf-8")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="t.csv:2: quality '1.* is not a finite number"):
            read_trajectories(path)
        assert time.perf_counter() - start < 5

    def test_an_exponent_sign_in_a_quality_is_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,1e+20\n0,2,2.5e+19\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        assert traj.points == [AttainmentPoint(1, 1e20), AttainmentPoint(2, 2.5e19)]

    @pytest.mark.parametrize("line", [2, 3, 3000])
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, line):
        lines = ["run,evaluations,quality"] + [f"0,{i + 1},{3000 - i}" for i in range(3000)]
        lines[line - 1] += "\udcff"
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ValueError, match=f"{path.name}:{line}: not UTF-8 text$"):
            read_trajectories(path)

    @pytest.mark.parametrize("body, problem", [
        ("0,x,2.0\n0,2,1.0\n\n", r":2: evaluation count 'x' is not an integer in \[1, 2\*\*63\)"),
        ("0,1,2.0\n\n0,x,1.0\n", ":3: blank line"),
        ("0,x,2.0\n0, 2,1.0\n", r":2: evaluation count 'x' is not an integer in \[1, 2\*\*63\)"),
        ("0,1,2.0\n0,2 ,1.0\n0,x,1.0\n",
         r":3: evaluation count '2 ' is not an integer in \[1, 2\*\*63\)"),
        ("0,0,1.0\n0,x,2.0\n", r":2: evaluation count '0' is not an integer in \[1, 2\*\*63\)"),
    ])
    def test_the_first_bad_line_is_named(self, tmp_path, body, problem):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"t.csv{problem}"):
            read_trajectories(path)

    @pytest.mark.parametrize("bad, problem, calls", [
        (["0,51,nan"], "quality 'nan' is not a finite number", 1),
        (["0,0,2.5", "-1,52,2.5"], r"evaluation count '0' is not an integer in \[1, 2\*\*63\)", 1),
        (["-1,51,2.5\r"], r"run '-1' is not an integer in \[0, 2\*\*63\)", 1),
        (["0,51, 2.5", "0,52,nan"], r"quality ' 2\.5' is not a finite number", 51),
        (["", "0,52,nan"], "blank line", 51),
    ], ids=["value", "first of two", "crlf", "padded cell", "blank line"])
    def test_when_only_the_values_are_at_fault_the_rule_starts_at_the_first_flagged_row(
            self, tmp_path, monkeypatch, bad, problem, calls):
        fields = []

        def counted(line, columns):
            fields.append(line)
            return _fields(line, columns)

        path = tmp_path / "t.csv"
        lines = [f"0,{i + 1},{100 - i}" for i in range(50)] + bad
        path.write_text("run,evaluations,quality\n" + "\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(fileio, "_fields", counted)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:52: {problem}$"):
            read_trajectories(path)
        assert len(fields) == calls

    def test_an_error_that_names_no_row_falls_back_to_the_path(self, tmp_path, monkeypatch):
        def loadtxt(*args, **kwargs):
            raise ValueError("numpy changed its wording")

        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,9\n0,2,8\n", encoding="utf-8")
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(ValueError) as exc:
            read_trajectories(path)
        assert str(exc.value) == f"{path}: numpy changed its wording"

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


def trajectory_fault(line: bytes):
    """What the line rule finds wrong with one trajectory line, or None."""
    try:
        _fields(line, _TRAJECTORY)
    except ValueError as exc:
        return str(exc)
    return None


# Cells next to the edges of what numpy and the line rule read: a leading zero, ``-0``, a
# leading ``+``, padding, an Arabic-Indic digit, ``_``, 2**63, an overflowing quality, NA.
run_cells = ["0", "3", "-0", "007", str(2**63 - 1)]
count_cells = ["1", "4", "007", str(2**63 - 1)]
quality_cells = ["2.5", "-0", "-3", "1e+20", ".5", "+.5", "1e-400"]
bad_cells = ["0", "-1", "+1", " 1", "1 ", "\u0661", "1_0", str(2**63), "x", "", "1.0",
             "1e500", "NA", "nan", "-inf", "2\t", "1\u00a0"]
good_lines = st.tuples(*(st.sampled_from(cells) for cells in (run_cells, count_cells,
                                                              quality_cells))).map(",".join)
any_lines = st.one_of(
    st.lists(st.sampled_from(run_cells + count_cells + quality_cells + bad_cells),
             min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t", "\u00a0", "0,1,\udcff"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(good_lines | any_lines, min_size=1, max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=6, max_size=6),
       last_end=st.booleans())
def test_a_body_is_read_exactly_when_the_line_rule_flags_no_line(tmp_path_factory, lines,
                                                                 ends, last_end):
    raw = [line.encode("utf-8", "surrogateescape") for line in lines]
    body = b"".join(line + end.encode() for line, end in zip(raw, ends))
    if not last_end and raw[-1]:
        body = body.removesuffix(ends[len(raw) - 1].encode())
    path = tmp_path_factory.mktemp("rule") / "t.csv"
    path.write_bytes(b"run,evaluations,quality\n" + body)
    flagged = [(n, problem) for n, problem in enumerate(map(trajectory_fault, raw), start=2)
               if problem is not None]
    if not flagged:
        read_trajectories(path)
        return
    number, problem = flagged[0]
    with pytest.raises(ValueError) as exc:
        read_trajectories(path)
    assert str(exc.value) == f"{path}:{number}: {problem}"


#: Block sizes, in bytes, that cut a trajectory file inside lines and between them.
SMALL_BLOCKS = [1, 2, 7, 64]


class TestTrajectoryFilesInSmallBlocks(TestTrajectoryFiles):
    """Every case above, with the file read in blocks of a few bytes: the same
    trajectories and the same messages."""

    @pytest.fixture(autouse=True, params=SMALL_BLOCKS)
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(fileio, "_READ_BLOCK", request.param)

    # Only the message is compared: how many lines the rule reads depends on where
    # the block that holds the flagged row starts.
    @pytest.mark.parametrize("bad, problem", [
        (["0,51,nan"], "quality 'nan' is not a finite number"),
        (["0,0,2.5", "-1,52,2.5"], r"evaluation count '0' is not an integer in \[1, 2\*\*63\)"),
        (["-1,51,2.5\r"], r"run '-1' is not an integer in \[0, 2\*\*63\)"),
        (["0,51, 2.5", "0,52,nan"], r"quality ' 2\.5' is not a finite number"),
        (["", "0,52,nan"], "blank line"),
    ], ids=["value", "first of two", "crlf", "padded cell", "blank line"])
    def test_when_only_the_values_are_at_fault_the_rule_starts_at_the_first_flagged_row(
            self, tmp_path, bad, problem):
        path = tmp_path / "t.csv"
        lines = [f"0,{i + 1},{100 - i}" for i in range(50)] + bad
        path.write_text("run,evaluations,quality\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:52: {problem}$"):
            read_trajectories(path)


#: The well-formed files of TestTrajectoryFiles.
WELL_FORMED = [
    "run,evaluations,quality\n0,1,9.0\n0,4,3.0\n1,2,7.0\n",
    "run,evaluations,quality\n0,1,9\n0,2,7\n0,3,7\n0,4,3\n",
    "run,evaluations,quality\n0,4,3\n0,1,9\n0,2,7\n",
    "run,evaluations,quality\n0,1,9\n0,1,7\n0,2,8\n",
    "run,evaluations,quality\n0,1,1\n0,2,4\n0,3,2\n",
    f"run,evaluations,quality\n{'0' * 5000}0,{'0' * 5000}1,9\n",
    "run,evaluations,quality\n0,1,1e+20\n0,2,2.5e+19\n",
    "run,evaluations,quality\r\n0,1,9\r\n0,2,8\r\n",
]


def raw_log(seed: int) -> str:
    """A raw trajectory file: four runs in stretches that straddle small blocks, rows out
    of time order, ties in time and in quality, ``-0`` beside ``0``, and LF and CRLF
    line endings mixed."""
    rng = np.random.default_rng(seed)
    qualities, ends = ["7", "3", "2.5", "1e-3", "0", "-0", "-1.25"], ["\n", "\r\n"]
    lines = ["run,evaluations,quality\n"]
    for _ in range(12):
        run = rng.integers(4)
        lines += [f"{run},{rng.integers(1, 20)},{rng.choice(qualities)}{rng.choice(ends)}"
                  for _ in range(rng.integers(1, 15))]
    return "".join(lines)


#: Rows that meet only across a block boundary at every size of SMALL_BLOCKS, 72 bytes
#: of another run's rows apart: a later block's earlier time that beats a kept row, and
#: rows at one (run, time) split across blocks, of two qualities and of 0 and -0.
PADDING = "1,1,9\n" * 12
ACROSS_BLOCKS = [
    f"run,evaluations,quality\n0,5,3\n0,6,2\n{PADDING}0,2,1\n0,7,0.5\n",
    f"run,evaluations,quality\n0,3,5\n0,4,0\n{PADDING}0,3,4\n0,4,-0\n0,4,-1\n2,1,0\n"
    f"{PADDING}2,1,-0\n",
]


def read_back(path, direction) -> list:
    """Each trajectory of ``path`` as its run and (time, quality bits) points."""
    return [(traj.run, [(p.time, p.quality.hex()) for p in traj.points])
            for traj in read_trajectories(path, direction)]


@pytest.mark.parametrize("direction", [MIN, Direction.MAXIMIZATION])
@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_small_blocks_read_what_one_block_reads(tmp_path, monkeypatch, block, direction):
    texts = WELL_FORMED + ACROSS_BLOCKS + [raw_log(seed) for seed in range(3)]
    paths = [tmp_path / f"t{n}.csv" for n in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode())
    whole = [read_back(path, direction) for path in paths]
    monkeypatch.setattr(fileio, "_READ_BLOCK", block)
    assert [read_back(path, direction) for path in paths] == whole


@pytest.mark.parametrize("head, problem", [
    ("run,evaluations,quality\n0,x,9\n", r"t.csv:2: evaluation count 'x' is not an integer"),
    ("run,quality\n0,9\n", r"t.csv: not a trajectory file \(header 'run,quality'\)"),
], ids=["bad row", "bad header"])
def test_a_fault_in_an_earlier_block_is_named_before_a_lone_cr_in_a_later_one(
        tmp_path, monkeypatch, head, problem):
    path = tmp_path / "t.csv"
    rows = "".join(f"0,{i},1\n" for i in range(1, 101))
    path.write_bytes((head + rows + "0,101\r,1\n").encode())
    # In one block the lone CR is found first, as it was when the whole file was scanned.
    with pytest.raises(ValueError, match="t.csv:103: carriage return without a line feed"):
        read_trajectories(path)
    monkeypatch.setattr(fileio, "_READ_BLOCK", 64)
    with pytest.raises(ValueError, match=problem):
        read_trajectories(path)


def test_a_block_cuts_again_only_the_kept_runs_its_rows_reach(tmp_path, monkeypatch):
    # 40 improvement-only runs of 50 rows, written run by run, in blocks of about 30 rows:
    # a block reaches at most the one kept run that an earlier block began. Cutting every
    # kept row again would hand the last blocks' cuts nearly all 2,000 rows.
    runs, per_run = 40, 50
    lines = [f"{run},{count},{1000 - count}\n"
             for run in range(runs) for count in range(1, per_run + 1)]
    path = tmp_path / "staircases.csv"
    path.write_text("run,evaluations,quality\n" + "".join(lines), encoding="utf-8")
    monkeypatch.setattr(fileio, "_READ_BLOCK", 256)
    sizes, improving = [], fileio._improving

    def counted(runs, times, minimized):
        sizes.append(len(runs))
        return improving(runs, times, minimized)

    monkeypatch.setattr(fileio, "_improving", counted)
    trajectories = read_trajectories(path)
    assert sum(len(traj.points) for traj in trajectories) == runs * per_run
    block_rows = fileio._READ_BLOCK // min(map(len, lines)) + 1
    assert len(sizes) > runs
    assert max(sizes) <= per_run + block_rows


def test_a_cell_of_five_million_bytes_is_quoted_cut_with_its_length(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"run,evaluations,quality\n0,1,{'x' * 5_000_001}\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        read_trajectories(path)
    quoted = "'" + "x" * 9_999 + "... (5000003 characters in all)"
    assert str(error.value) == f"{path}:2: quality {quoted} is not a finite number"


def test_reading_a_raw_log_needs_memory_for_a_block_and_the_kept_rows(tmp_path, traced_peak):
    # 51 runs of 2,000 evaluations, about 2.7 MB: 11 blocks, of whose rows under 1% are kept.
    qualities = np.random.default_rng(11).normal(size=(51, 2000)).tolist()
    path = tmp_path / "raw.csv"
    path.write_text("run,evaluations,quality\n" + "".join(
        f"{run},{count},{quality!r}\n" for run, column in enumerate(qualities)
        for count, quality in enumerate(column, start=1)), encoding="utf-8")
    trajectories = read_trajectories(path)  # also loads what a first call loads
    assert traced_peak(read_trajectories, path) < 2_000_000
    assert [traj.run for traj in trajectories] == list(range(51))
    for traj, column in zip(trajectories, qualities):
        assert traj.points == improvement_staircase_rowwise(enumerate(column, start=1), MIN)


def test_reading_a_one_block_staircase_file_needs_under_4_times_its_size(tmp_path, traced_peak):
    # 101 improvement-only runs of 40-60 points, about 130 KB, as `bench run --log eaf`
    # writes them: every row is kept, so one cut is as large as the block's rows.
    rng = np.random.default_rng(17)
    lines = ["run,evaluations,quality\n"]
    for run in range(101):
        n = int(rng.integers(40, 61))
        times = np.sort(rng.choice(5000, size=n, replace=False)) + 1
        qualities = 100.0 * np.exp(-np.cumsum(rng.exponential(0.05, n)))
        lines += [f"{run},{t},{q!r}\n" for t, q in zip(times.tolist(), qualities.tolist())]
    path = tmp_path / "staircases.csv"
    path.write_text("".join(lines), encoding="utf-8")
    assert path.stat().st_size < fileio._READ_BLOCK
    trajectories = read_trajectories(path)  # also loads what a first call loads
    assert traced_peak(read_trajectories, path) < 4 * path.stat().st_size
    assert sum(len(traj.points) for traj in trajectories) == len(lines) - 1


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

    @pytest.mark.parametrize("points, problem", [
        ([(1, math.nan)], "not a strict staircase"),
        ([(0, 1.0)], "not a strict staircase"),
        ([(3, 1.0), (2, 0.5)], "not a strict staircase"),
        ([(1, 1.0), (2, 2.0)], "not a strict staircase"),
        ([], "run 1 has an empty trajectory"),
    ])
    def test_trajectories_the_reader_would_not_read_back_are_not_written(
            self, tmp_path, points, problem):
        path = tmp_path / "out"
        path.write_text("earlier\n", encoding="utf-8")
        trajs = as_trajectories([[(1, 10.0)], points], MIN)
        with pytest.raises(ValueError, match=problem):
            write_trajectories(path, trajs)
        assert path.read_text(encoding="utf-8") == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("runs, problem", [
        ((0, 0), "write_trajectories: run 0 appears more than once"),
        ((0, -1), re.escape("write_trajectories: run -1 is not an integer in [0, 2**63)")),
    ], ids=["duplicate", "negative"])
    def test_run_ids_the_reader_would_not_read_back_are_not_written(
            self, tmp_path, runs, problem):
        trajs = as_trajectories([[(1, 10.0)], [(2, 8.0)]], MIN)
        for traj, run in zip(trajs, runs):
            traj.run = run
        with pytest.raises(ValueError, match=problem):
            write_trajectories(tmp_path / "t.csv", trajs)
        assert list(tmp_path.iterdir()) == []

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
        sets = eaf_levels(trajs) + [LevelSet(3, [AttainmentPoint(5, 1e-300)], MIN),
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

    @pytest.mark.parametrize("points", [[(5, math.inf)], [(6, math.nan)], [(2, 3.0), (1, 2.0)]])
    def test_a_level_set_that_is_not_a_staircase_is_not_written(self, tmp_path, points):
        path = tmp_path / "levels.json"
        path.write_text("earlier\n", encoding="utf-8")
        level_set = LevelSet(1, [AttainmentPoint(*p) for p in points], MIN)
        with pytest.raises(ValueError, match="^level set is not a strict staircase"):
            write_level_sets(path, [level_set], (9, 10.0))
        assert path.read_text(encoding="utf-8") == "earlier\n"

    @pytest.mark.parametrize("nadir", [(math.nan, 4.0), (3, math.inf), (3, -math.inf),
                                       (True, 4.0), (3, "4.0"), (3,), (3, 4.0, 5.0),
                                       (np.bool_(True), 4.0), (3, np.float64(math.nan))],
                             ids=repr)
    def test_a_nadir_that_is_not_two_finite_reals_is_rejected_naming_it(self, tmp_path, nadir):
        path = tmp_path / "levels.json"
        path.write_text("earlier\n", encoding="utf-8")
        sets = [LevelSet(1, [AttainmentPoint(2, 3.0)], MIN)]
        with pytest.raises(ValueError, match=f"^nadir {re.escape(repr(nadir))} is not two finite"):
            write_level_sets(path, sets, nadir)
        assert path.read_text(encoding="utf-8") == "earlier\n"

    @pytest.mark.parametrize("nadir, written", [
        ((np.int64(3), 4.0), "[\n    3,\n    4.0\n  ]"),
        ((3, np.float64(4.0)), "[\n    3,\n    4.0\n  ]"),
        ((np.int64(3), np.float32(0.5)), "[\n    3,\n    0.5\n  ]"),
        ((4, 10.0), "[\n    4,\n    10.0\n  ]"),
    ])
    def test_a_numpy_nadir_is_written_as_the_python_numbers_it_equals(
            self, tmp_path, nadir, written):
        path = tmp_path / "levels.json"
        write_level_sets(path, [LevelSet(1, [AttainmentPoint(2, 3.0)], MIN)], nadir)
        assert f'"nadir": {written},' in path.read_text(encoding="utf-8")

    def test_level_sets_of_mixed_directions_are_not_written(self, tmp_path):
        sets = [LevelSet(1, [AttainmentPoint(2, 3.0)], MIN),
                LevelSet(2, [AttainmentPoint(2, 3.0)], Direction.MAXIMIZATION)]
        message = "level sets mix optimization directions: ['max', 'min']"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_level_sets(tmp_path / "levels.json", sets, (9, 10.0))
        assert list(tmp_path.iterdir()) == []

    def test_times_are_written_as_integers(self, tmp_path):
        path = tmp_path / "levels.json"
        write_level_sets(path, [LevelSet(1, [AttainmentPoint(2.0, 3.0)], MIN)], (9, 10.0))
        assert json.loads(path.read_text(encoding="utf-8"))["levels"][0]["points"] == [[2, 3.0]]
        assert "[\n          2,\n" in path.read_text(encoding="utf-8")

    def test_writing_staircase_sized_level_sets_peaks_under_1_3_mb(self, tmp_path, traced_peak):
        # All 101 levels of 101 runs of 40-60 improvements at times in [1, 5000], as
        # `bench eaf` writes them: about 265 points a level, 26,723 in all. The writer
        # that filled one template per level peaked at 1.39 MB here, this one at 1.13 MB.
        rng = np.random.default_rng(0)
        pool = 100.0 * np.exp(-np.cumsum(rng.exponential(0.002, 5000)))
        sets = []
        for level in range(1, 102):
            n = int(rng.integers(240, 290))
            times = np.sort(rng.choice(5000, n, replace=False)) + 1
            qualities = np.sort(rng.choice(pool, n, replace=False))[::-1]
            sets.append(LevelSet(level, list(zip(times.tolist(), qualities.tolist()))))
        path = tmp_path / "levels.json"
        write_level_sets(path, sets, (5001, 101.0))  # checks each level once
        assert traced_peak(write_level_sets, path, sets, (5001, 101.0)) < 1_300_000
        levels = json.loads(path.read_text(encoding="utf-8"))["levels"]
        assert sum(len(level["points"]) for level in levels) == 26_723


#: Two axes of two buckets each, for histograms built by hand.
GRID_2X2 = Discretization(Axis(2, 1.0, 1.0), Axis(2, 0.0, 1.0))


class TestHistogramExport:
    @pytest.mark.parametrize("counts, runs, message", [
        ([[0, 0.7], [1, 1]], 2, "histogram counts are float64 of shape (2, 2), not integers"),
        ([[True, False], [True, True]], 2, "histogram counts are bool of shape (2, 2)"),
        (np.zeros((3, 3), np.int64), 2, "of shape (3, 3), not integers of shape (2, 2)"),
        ([[0, 1], [-3, 1]], 2, "histogram count -3 at (t_bucket, q_bucket) = (1, 0) is not in"),
        ([[0, 9], [-3, 1]], 2, "histogram count 9 at (t_bucket, q_bucket) = (0, 1) is not in"),
        (np.ones((2, 2), np.uint8), 0, "histogram count 1 at (t_bucket, q_bucket) = (0, 0)"),
        (np.ones((2, 2), np.int64), True, "histogram runs True is not an integer in [0, 2**63)"),
        (np.ones((2, 2), np.int64), 2.5, "histogram runs 2.5 is not an integer"),
        (np.zeros((2, 2), np.int64), -1, "histogram runs -1 is not an integer"),
    ])
    def test_a_histogram_built_wrong_is_not_written(self, tmp_path, counts, runs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_histogram(tmp_path / "h.csv", Histogram(GRID_2X2, np.array(counts), runs))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("runs", [2, 2.0, np.int64(2), np.uint8(2)], ids=repr)
    def test_runs_are_written_as_the_integer_they_equal(self, tmp_path, runs):
        counts = np.array([[0, 1], [2, 2]], np.uint8)
        write_histogram(tmp_path / "h.csv", Histogram(GRID_2X2, counts, runs))
        lines = (tmp_path / "h.csv").read_text(encoding="utf-8").splitlines()
        assert lines[3] == "# runs,2" and lines[5:] == ["0,0,0", "0,1,1", "1,0,2", "1,1,2"]

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

    def test_writing_needs_memory_for_a_row_not_the_grid(self, tmp_path, traced_peak):
        grid = Discretization(Axis(1000, 1.0, 999.0), Axis(200, 0.0, 1.0))
        counts = np.arange(200_000, dtype=np.intp).reshape(1000, 200) % 7  # 1.6 MB
        path = tmp_path / "h.csv"
        assert traced_peak(write_histogram, path, Histogram(grid, counts, 7)) < 1_000_000
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[5:7] == ["0,0,0", "0,1,1"] and lines[-1] == f"999,199,{199_999 % 7}"
        assert len(lines) == 5 + 200_000

    def test_writing_1000_quality_buckets_needs_memory_for_a_block_of_cells(self, tmp_path,
                                                                             traced_peak):
        grid = Discretization(Axis(200, 1.0, 199.0), Axis(1000, 0.0, 1.0))
        counts = np.arange(200_000, dtype=np.intp).reshape(200, 1000) % 7  # 1.6 MB
        path = tmp_path / "h.csv"
        assert traced_peak(write_histogram, path, Histogram(grid, counts, 7)) < 400_000
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[5:7] == ["0,0,0", "0,1,1"] and lines[-1] == f"199,999,{199_999 % 7}"
        assert len(lines) == 5 + 200_000

    def test_writing_leaves_no_tuple_on_the_20_item_free_list(self, tmp_path, new_free_20_tuples):
        # At 10 quality buckets a row of (bucket, count) pairs would free a 20-item tuple,
        # which CPython 3.11 keeps on a free list that it never takes back from.
        setup = ("import numpy as np\n"
                 "from attainbench.fileio import write_histogram\n"
                 "from attainbench.histogram import Axis, Discretization, Histogram\n"
                 "grid = Discretization(Axis(1000, 1.0, 999.0), Axis(10, 0.0, 1.0))\n"
                 "counts = np.arange(10_000, dtype=np.intp).reshape(1000, 10) % 7\n"
                 "histogram = Histogram(grid, counts, 7)")
        write = f"write_histogram({str(tmp_path / 'h.csv')!r}, histogram)"
        assert new_free_20_tuples(setup, write) <= 0
        lines = (tmp_path / "h.csv").read_text(encoding="utf-8").splitlines()
        assert lines[5:7] == ["0,0,0", "0,1,1"] and lines[-1] == f"999,9,{9_999 % 7}"
