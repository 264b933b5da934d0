"""Logger lifecycle, watcher gating, fan-out, and the in-memory store."""

import re

import numpy as np
import pytest

from attainbench.attainment import TrajectoryLogger
from attainbench.fileio import FlatFile
from attainbench.loggers import CellKey, Combine, Cursor, LogInfo, Logger, Store, cell_key
from attainbench.problems import Direction, MetaData, Sphere
from attainbench.properties import External, Property, TransformedY
from attainbench.triggers import Always, Each, OnImprovement, Trigger

from oracles import StoreFrozen, TrajectoryLoggerFrozen, batch_of

META = MetaData("fake", 1, 1, 5, Direction.MINIMIZATION)
META_OTHER = MetaData("fake", 2, 1, 5, Direction.MINIMIZATION)


class Probe(Logger):
    """Records every notification it receives, in order, into a shared list."""

    def __init__(self, name, events):
        super().__init__()
        self.name = name
        self.events = events

    def _on_attach(self, meta):
        self.events.append((self.name, "attach", cell_key(meta), self.current_run))

    def _on_call(self, batch):
        self.events.append((self.name, "call", batch.evaluations, self.current_run))

    def _on_reset(self):
        self.events.append((self.name, "reset", self.current_run))


def points(trajectory):
    return [(p.time, p.quality) for p in trajectory.points]


def drive(logger, values, meta=META):
    """Feed a minimization run: values arrive as evaluations 1..n with running bests."""
    best = meta.direction.worst
    for e, v in enumerate(values, start=1):
        if meta.direction.better(v, best):
            best = v
        logger.call(batch_of(LogInfo(evaluations=e, transformed_y=v,
                                     transformed_y_best=best)))


def test_call_before_attach_is_an_error():
    store = Store([Always()])
    with pytest.raises(RuntimeError):
        store.call(batch_of(LogInfo(evaluations=1)))


def test_current_run_is_zero_before_any_attach():
    assert Logger().current_run == 0


def test_always_watcher_records_every_event():
    store = Store([Always()], [TransformedY()])
    store.attach(META)
    drive(store, [3.0, 1.0, 2.0])
    events = store.events(cell_key(META), 0)
    assert [r[0] for r in events] == [1, 2, 3]
    assert [r[1] for r in events] == [3.0, 1.0, 2.0]


def test_improvement_watcher_records_strict_improvements_only():
    store = Store([OnImprovement()], [TransformedY()])
    store.attach(META)
    drive(store, [9999.0, 100.0, 100.0, 10.0, 10.0, 99.0, 11.0, 9.0])
    events = store.events(cell_key(META), 0)
    assert [r[0] for r in events] == [1, 2, 4, 8]
    assert [r[1] for r in events] == [9999.0, 100.0, 10.0, 9.0]


@pytest.mark.parametrize("improvement_first", [True, False])
def test_watcher_records_the_union_of_its_triggers(improvement_first):
    triggers = [OnImprovement(), Each(2)]
    store = Store(triggers if improvement_first else triggers[::-1])
    store.attach(META)
    # Evaluations 2 and 4 also fire Each(2); had OnImprovement missed them, 4.0 at
    # evaluation 3 and 2.0 at evaluation 5 would count as improvements.
    drive(store, [5.0, 3.0, 4.0, 1.0, 2.0, 2.0])
    assert [r[0] for r in store.events(cell_key(META), 0)] == [1, 2, 4, 6]


def test_watcher_without_properties_still_keeps_evaluations():
    store = Store([Always()])
    store.attach(META)
    drive(store, [5.0])
    (record,) = store.events(cell_key(META), 0)
    assert record == (1,)


def test_duplicate_property_names_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Store([Always()], [TransformedY(), TransformedY()])


class OneReading(Property):
    """A faulty property: one reading, whatever the batch's length."""

    def __call__(self, batch):
        return (1.0,)


class OneAnswer(Trigger):
    """A faulty trigger: one answer, whatever the batch's length."""

    def __call__(self, batch, meta):
        return [True]


#: A faulty property or trigger, and the message that rejects a 3-row batch it answers.
SHORT_ANSWERS = pytest.mark.parametrize("triggers, properties, match", [
    ([Always()], [TransformedY(), OneReading("y")],
     r"property 'y' gave 1 reading\(s\) for 3 row\(s\) from evaluation 4$"),
    ([Always(), OneAnswer()], [TransformedY()],
     r"trigger OneAnswer gave 1 answer\(s\) for 3 row\(s\) from evaluation 4$"),
], ids=["property", "trigger"])


@SHORT_ANSWERS
def test_a_batch_answered_short_is_rejected_and_records_nothing(triggers, properties, match):
    store = Store(triggers, properties)
    store.attach(META)
    drive(store, [5.0, 4.0, 3.0])
    before = tuple(map(tuple, store.recorded(cell_key(META), 0)))
    rows = [LogInfo(evaluations=e, transformed_y=2.0, transformed_y_best=2.0) for e in (4, 5, 6)]
    with pytest.raises(ValueError, match=match):
        store.call(batch_of(*rows))
    assert tuple(map(tuple, store.recorded(cell_key(META), 0))) == before


@SHORT_ANSWERS
def test_a_batch_answered_short_is_rejected_by_the_flat_file_logger_and_writes_nothing(
        tmp_path, triggers, properties, match):
    flat = FlatFile(tmp_path, triggers, properties)
    flat.attach(META)
    drive(flat, [5.0, 4.0, 3.0])
    rows = [LogInfo(evaluations=e, transformed_y=2.0, transformed_y_best=2.0) for e in (4, 5, 6)]
    with pytest.raises(ValueError, match=match):
        flat.call(batch_of(*rows))
    flat.close()
    (path,) = tmp_path.iterdir()
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [["0", "0", "1", "5.0"],
                                                       ["0", "1", "2", "4.0"],
                                                       ["0", "2", "3", "3.0"]]


def test_trigger_state_clears_at_run_boundaries():
    store = Store([OnImprovement()], [TransformedY()])
    store.attach(META)
    drive(store, [5.0, 7.0])
    store.reset()
    drive(store, [7.0])
    assert [r[0] for r in store.events(cell_key(META), 1)] == [1]


def test_run_indices_advance_per_cell():
    store = Store([Always()])
    store.attach(META)
    drive(store, [1.0])
    store.reset()
    drive(store, [2.0])
    store.attach(META_OTHER)
    drive(store, [3.0])
    assert store.runs(cell_key(META)) == [0, 1]
    assert store.runs(cell_key(META_OTHER)) == [0]
    assert store.cells() == [cell_key(META), cell_key(META_OTHER)]


def test_reattach_after_reset_continues_with_next_run():
    store = Store([Always()])
    store.attach(META)
    drive(store, [1.0])
    store.reset()
    store.attach(META)
    assert store.current_run == 1


def test_a_cell_attached_again_keeps_its_runs_and_hands_out_its_latest_metadata():
    meta_again = MetaData("fake", 1, 1, 5, Direction.MINIMIZATION)  # META's cell, a new object
    trajectory_logger, store = TrajectoryLogger(), Store([Always()], [TransformedY()])
    both = Combine([trajectory_logger, store])
    for meta, values in ((META, [3.0, 1.0]), (META_OTHER, [2.0]), (meta_again, [4.0, 0.5])):
        both.attach(meta)
        drive(both, values, meta)
        both.reset()
    a, b = cell_key(META), cell_key(META_OTHER)
    assert [(t.meta, t.run, points(t)) for t in trajectory_logger.trajectories(a)] == [
        (meta_again, 0, [(1, 3.0), (2, 1.0)]), (meta_again, 1, [(1, 4.0), (2, 0.5)])]
    assert all(t.meta is meta_again for t in trajectory_logger.trajectories(a))
    (other,) = trajectory_logger.trajectories(b)
    assert other.meta is META_OTHER and points(other) == [(1, 2.0)]
    assert store.cells() == [a, b] and store.runs(a) == [0, 1] and store.runs(b) == [0]
    assert [store.at(Cursor(*a, run=1, event_index=i), "transformed_y") for i in (0, 1)] == [4.0, 0.5]
    assert store.at(Cursor(*b, event_index=0), "transformed_y") == 2.0
    assert store.at(Cursor(*a, run=0, event_index=1), "evaluations") == 2.0


class TestCombine:
    def test_notifications_fan_out_in_order(self):
        events = []
        a, b = Probe("a", events), Probe("b", events)
        combined = Combine([a, b])
        combined.attach(META)
        combined.call(batch_of(LogInfo(evaluations=1)))
        combined.reset()
        kinds = [(name, kind) for name, kind, *_ in events]
        assert kinds == [("a", "attach"), ("b", "attach"),
                         ("a", "call"), ("b", "call"),
                         ("a", "reset"), ("b", "reset")]

    def test_same_child_twice_sees_every_event_twice(self):
        events = []
        a = Probe("a", events)
        combined = Combine([a, a])
        combined.attach(META)
        combined.call(batch_of(LogInfo(evaluations=1)))
        assert len([e for e in events if e[1] == "call"]) == 2

    def test_empty_combine_is_a_no_op(self):
        combined = Combine()
        combined.attach(META)
        combined.call(batch_of(LogInfo(evaluations=1)))
        combined.reset()


class TestStoreCursor:
    def setup_method(self):
        self.holder = {"x": 10.0}
        self.external = External("extra", lambda: self.holder["x"])
        self.store = Store([Always()], [TransformedY(), self.external])
        self.store.attach(META)
        self.store.call(batch_of(LogInfo(evaluations=1, transformed_y=4.0,
                                         transformed_y_best=4.0)))
        self.holder["x"] = 20.0
        self.external.detach()
        self.store.call(batch_of(LogInfo(evaluations=2, transformed_y=3.0,
                                         transformed_y_best=3.0)))

    def cursor(self, **kw):
        return Cursor("fake", 1, 5, 1, **kw)

    def test_resolves_recorded_values(self):
        assert self.store.at(self.cursor(event_index=0), "transformed_y") == 4.0
        assert self.store.at(self.cursor(event_index=0), TransformedY()) == 4.0
        assert self.store.at(self.cursor(event_index=0), "extra") == 10.0

    def test_evaluations_always_resolvable(self):
        assert self.store.at(self.cursor(event_index=1), "evaluations") == 2.0

    def test_detached_reading_is_absent(self):
        assert self.store.at(self.cursor(event_index=1), "extra") is None

    def test_out_of_range_cursors_are_absent(self):
        assert self.store.at(self.cursor(event_index=2), "transformed_y") is None
        assert self.store.at(self.cursor(run=1), "transformed_y") is None
        assert self.store.at(Cursor("fake", 9, 5, 1), "transformed_y") is None

    def test_unwatched_property_is_absent(self):
        assert self.store.at(self.cursor(), "raw_y") is None

    @pytest.mark.parametrize("field, value", [
        ("event_index", -1), ("event_index", 0.5), ("event_index", True), ("run", -1),
        ("problem_id", 0), ("dimension", 2.5), ("instance", "1")])
    def test_a_cursor_field_off_the_integer_rule_is_rejected_naming_it(self, field, value):
        address = dict(suite_name="fake", problem_id=1, dimension=5, instance=1)
        message = f"^{field} {re.escape(repr(value))} is not an integer"
        with pytest.raises(ValueError, match=message):
            Cursor(**{**address, field: value})

    def test_an_integral_cursor_field_reads_as_an_int(self):
        cursor = Cursor("fake", np.int64(1), 5.0, 1, run=0, event_index=np.int64(1))
        assert type(cursor.event_index) is int and type(cursor.dimension) is int
        assert self.store.at(cursor, "transformed_y") == 3.0


def test_cell_key_fields():
    assert cell_key(META) == CellKey(suite_name="fake", problem_id=1, dimension=5, instance=1)


def test_events_readings_and_trajectories_are_those_the_per_event_store_keeps():
    holder = {}

    def watching():
        return [OnImprovement(), Each(3)], [TransformedY(), External("x", lambda: holder["x"])]

    store, reference = Store(*watching()), StoreFrozen(*watching())
    trajectories, frozen = TrajectoryLogger(), TrajectoryLoggerFrozen()
    count, best = 0, None

    def call(*values, x=None):
        nonlocal count, best
        holder["x"] = x
        rows = []
        for count, value in enumerate(values, start=count + 1):
            best = value if best is None else min(best, value)
            rows.append(LogInfo(count, transformed_y=value, transformed_y_best=best))
        for logger in (store, reference, trajectories):
            logger.call(batch_of(*rows))
        for row in rows:
            frozen.call(row)

    def notify(kind, *args):
        nonlocal count, best
        count, best = 0, None
        for logger in (store, reference, trajectories, frozen):
            getattr(logger, kind)(*args)

    notify("attach", META)
    call(5.0, 7.0, 4.0, 4.0, x=1.5)  # mixed: improvements, Each(3) and rows neither fires on
    call(6.0, x=2.5)
    notify("reset")
    notify("reset")  # a run with no events
    call(9.0, 3.0, x=3.5)
    notify("attach", META_OTHER)
    call(1.0, 2.0, 3.0, x=4.5)
    for watcher in (store, reference):
        watcher.properties[1].detach()
    notify("attach", META)  # the first cell again: its events join its run 2
    call(8.0, 2.0, x=5.5)
    notify("reset")
    call(4.0)

    assert store.cells() == reference.cells() == [cell_key(META), cell_key(META_OTHER)]
    for cell in store.cells():
        assert store.runs(cell) == reference.runs(cell)
        for run in range(4):
            assert store.events(cell, run) == reference.events(cell, run)
            for index in range(6):  # a negative index is no cursor: Cursor rejects it
                cursor = Cursor(*cell, run=run, event_index=index)
                for name in ("evaluations", "transformed_y", "x", "raw_y"):
                    assert store.at(cursor, name) == reference.at(cursor, name)
        assert ([(t.meta, t.run, t.points) for t in trajectories.trajectories(cell)]
                == [(t.meta, t.run, t.points) for t in frozen.trajectories(cell)])
    assert store.runs(cell_key(META)) == [0, 2, 3]
    assert store.events(cell_key(META), 2) == [(1, 9.0, 3.5), (2, 3.0, 3.5),
                                               (1, 8.0, None), (2, 2.0, None)]
    assert store.events(cell_key(META), 3)[-1] == (1, 4.0, None)


class Kept(Property):
    """Hands out a list that it keeps and a caller may change later."""

    def __call__(self, batch):
        self.last = list(batch.transformed_y)
        return self.last


def test_changing_what_the_store_handed_out_or_was_handed_changes_nothing_it_holds():
    problem, kept = Sphere(1, 1, 3), Kept("kept")
    store = Store([Always()], [TransformedY(), kept])
    problem.attach_logger(store)
    X = np.random.default_rng(0).uniform(-5.0, 5.0, size=(4, 3))
    values = problem.evaluate(X)
    cell = cell_key(problem.meta)
    before = store.events(cell, 0)
    values.reverse()
    X[:] = 0.0
    kept.last.clear()
    events = store.events(cell, 0)
    events.reverse()
    events.append((0, 0.0, 0.0))
    assert store.events(cell, 0) == before
    assert tuple(map(tuple, store.recorded(cell, 0))) == tuple(zip(*before))
    assert [store.at(Cursor(*cell, event_index=i), "kept") for i in range(4)] == values[::-1]


def test_listing_a_20_event_run_leaves_no_tuple_on_the_20_item_free_list(new_free_20_tuples):
    setup = ("from attainbench.loggers import Store, cell_key\n"
             "from attainbench.problems import Sphere\n"
             "from attainbench.properties import TransformedY, TransformedYBest\n"
             "from attainbench.triggers import Always\n"
             "pb = Sphere(1, 1, 1)\n"
             "store = Store([Always()], [TransformedY(), TransformedYBest()])\n"
             "pb.attach_logger(store)\n"
             "for x in range(20, 0, -1):\n"
             "    pb((float(x),))\n"
             "cell = cell_key(pb.meta)\n"
             "assert len(store.events(cell, 0)) == 20")
    listing = ("for _ in range(100):\n"
               "    store.events(cell, 0)")
    assert new_free_20_tuples(setup, listing) <= 0
