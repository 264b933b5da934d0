"""Logger lifecycle, watcher gating, fan-out, and the in-memory store."""

import pytest

from attainbench.loggers import CellKey, Combine, Cursor, LogInfo, Logger, Store, cell_key
from attainbench.problems import Direction, MetaData
from attainbench.properties import ABSENT, Evaluations, External, LoggedValue, TransformedY
from attainbench.triggers import Always, Each, OnImprovement

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

    def _on_call(self, info):
        self.events.append((self.name, "call", info.evaluations, self.current_run))

    def _on_reset(self):
        self.events.append((self.name, "reset", self.current_run))


def drive(logger, values, meta=META):
    """Feed a minimization run: values arrive as evaluations 1..n with running bests."""
    best = meta.direction.worst
    for e, v in enumerate(values, start=1):
        if meta.direction.better(v, best):
            best = v
        logger.call(LogInfo(evaluations=e, transformed_y=v, transformed_y_best=best))


def test_call_before_attach_is_an_error():
    store = Store([Always()])
    with pytest.raises(RuntimeError):
        store.call(LogInfo(evaluations=1))


def test_always_watcher_records_every_event():
    store = Store([Always()], [TransformedY()])
    store.attach(META)
    drive(store, [3.0, 1.0, 2.0])
    events = store.events(cell_key(META), 0)
    assert [r.evaluations for r in events] == [1, 2, 3]
    assert [r.values["transformed_y"].value for r in events] == [3.0, 1.0, 2.0]


def test_improvement_watcher_records_strict_improvements_only():
    store = Store([OnImprovement()], [TransformedY()])
    store.attach(META)
    drive(store, [9999.0, 100.0, 100.0, 10.0, 10.0, 99.0, 11.0, 9.0])
    events = store.events(cell_key(META), 0)
    assert [r.evaluations for r in events] == [1, 2, 4, 8]
    assert [r.values["transformed_y"].value for r in events] == [9999.0, 100.0, 10.0, 9.0]


@pytest.mark.parametrize("improvement_first", [True, False])
def test_watcher_records_the_union_of_its_triggers(improvement_first):
    triggers = [OnImprovement(), Each(2)]
    store = Store(triggers if improvement_first else triggers[::-1])
    store.attach(META)
    # Evaluations 2 and 4 also fire Each(2); had OnImprovement missed them, 4.0 at
    # evaluation 3 and 2.0 at evaluation 5 would count as improvements.
    drive(store, [5.0, 3.0, 4.0, 1.0, 2.0, 2.0])
    assert [r.evaluations for r in store.events(cell_key(META), 0)] == [1, 2, 4, 6]


def test_watcher_without_properties_still_keeps_evaluations():
    store = Store([Always()])
    store.attach(META)
    drive(store, [5.0])
    (record,) = store.events(cell_key(META), 0)
    assert record.evaluations == 1 and record.values == {}


def test_duplicate_property_names_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Store([Always()], [TransformedY(), TransformedY()])


def test_trigger_state_clears_at_run_boundaries():
    store = Store([OnImprovement()], [TransformedY()])
    store.attach(META)
    drive(store, [5.0, 7.0])
    store.reset()
    drive(store, [7.0])
    assert [r.evaluations for r in store.events(cell_key(META), 1)] == [1]


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


class TestCombine:
    def test_notifications_fan_out_in_order(self):
        events = []
        a, b = Probe("a", events), Probe("b", events)
        combined = Combine([a, b])
        combined.attach(META)
        combined.call(LogInfo(evaluations=1))
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
        combined.call(LogInfo(evaluations=1))
        assert len([e for e in events if e[1] == "call"]) == 2

    def test_empty_combine_is_a_no_op(self):
        combined = Combine()
        combined.attach(META)
        combined.call(LogInfo(evaluations=1))
        combined.reset()


class TestStoreCursor:
    def setup_method(self):
        self.holder = {"x": 10.0}
        self.external = External("extra", lambda: self.holder["x"])
        self.store = Store([Always()], [TransformedY(), self.external])
        self.store.attach(META)
        self.store.call(LogInfo(evaluations=1, transformed_y=4.0, transformed_y_best=4.0))
        self.holder["x"] = 20.0
        self.external.detach()
        self.store.call(LogInfo(evaluations=2, transformed_y=3.0, transformed_y_best=3.0))

    def cursor(self, **kw):
        return Cursor("fake", 1, 5, 1, **kw)

    def test_resolves_recorded_values(self):
        assert self.store.at(self.cursor(event_index=0), "transformed_y") == LoggedValue.of(4.0)
        assert self.store.at(self.cursor(event_index=0), TransformedY()) == LoggedValue.of(4.0)
        assert self.store.at(self.cursor(event_index=0), "extra") == LoggedValue.of(10.0)

    def test_evaluations_always_resolvable(self):
        assert self.store.at(self.cursor(event_index=1), "evaluations") == LoggedValue.of(2.0)
        assert self.store.at(self.cursor(event_index=1), Evaluations()) == LoggedValue.of(2.0)

    def test_detached_reading_is_absent(self):
        assert self.store.at(self.cursor(event_index=1), "extra") == ABSENT

    def test_out_of_range_cursors_are_absent(self):
        assert self.store.at(self.cursor(event_index=2), "transformed_y") == ABSENT
        assert self.store.at(self.cursor(run=1), "transformed_y") == ABSENT
        assert self.store.at(Cursor("fake", 9, 5, 1), "transformed_y") == ABSENT

    def test_unwatched_property_is_absent(self):
        assert self.store.at(self.cursor(), "raw_y") == ABSENT


def test_cell_key_fields():
    assert cell_key(META) == CellKey(suite_name="fake", problem_id=1, dimension=5, instance=1)
