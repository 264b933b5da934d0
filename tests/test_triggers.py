"""Trigger semantics: firing rules, combinators, reset behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attainbench import triggers as tg
from attainbench.loggers import LogInfo
from attainbench.problems import Direction, MetaData

from oracles import batch_of, improvement_count

META_MIN = MetaData("fake", 1, 1, 2, Direction.MINIMIZATION)
META_MAX = MetaData("fake", 1, 1, 2, Direction.MAXIMIZATION)


def info(value=0.0, evaluations=1):
    """A batch of one evaluation."""
    return batch_of(LogInfo(evaluations=evaluations, transformed_y=value))


def fire(trigger, batch, meta=META_MIN):
    """Whether ``trigger`` fires on a batch of one."""
    (fired,) = trigger(batch, meta)
    return fired


def fire_sequence(trigger, values, meta=META_MIN):
    return [fire(trigger, info(v, i + 1), meta) for i, v in enumerate(values)]


class TestOnImprovement:
    def test_strict_improvement_sequence(self):
        t = tg.OnImprovement()
        got = fire_sequence(t, [9999.0, 100.0, 100.0, 10.0, 10.0, 99.0, 11.0, 9.0])
        assert got == [True, True, False, True, False, False, False, True]

    def test_reset_forgets_the_best(self):
        t = tg.OnImprovement()
        fire_sequence(t, [9999.0, 100.0, 10.0])
        t.reset()
        assert fire(t, info(99.0)) is True

    def test_first_value_fires_under_maximization(self):
        t = tg.OnImprovement()
        assert fire(t, info(-5.0), META_MAX) is True

    def test_equal_value_never_fires(self):
        t = tg.OnImprovement()
        assert fire_sequence(t, [7.0, 7.0]) == [True, False]
        t2 = tg.OnImprovement()
        assert fire_sequence(t2, [7.0, 7.0], META_MAX) == [True, False]

    @pytest.mark.parametrize("meta", [META_MIN, META_MAX])
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32)))
    def test_fire_count_matches_running_best_oracle(self, meta, values):
        t = tg.OnImprovement()
        fired = fire_sequence(t, values, meta)
        assert sum(fired) == improvement_count(values, meta.direction)


class TestSchedules:
    def test_at_fires_only_on_listed_evaluations(self):
        t = tg.At([1, 5])
        assert [fire(t, info(0.0, e)) for e in range(1, 7)] == [
            True, False, False, False, True, False]

    def test_each_fires_on_multiples(self):
        t = tg.Each(3)
        assert [fire(t, info(0.0, e)) for e in range(1, 8)] == [
            False, False, True, False, False, True, False]

    def test_each_with_start_offset(self):
        t = tg.Each(2, start=5)
        assert [fire(t, info(0.0, e)) for e in range(1, 10)] == [
            False, False, False, False, True, False, True, False, True]

    def test_each_interval_one_equals_always(self):
        each, always = tg.Each(1), tg.Always()
        for e in range(1, 101):
            i = info(0.0, e)
            assert fire(each, i) is fire(always, i) is True

    def test_during_fires_inside_closed_ranges(self):
        t = tg.During([(2, 4), (10, 10)])
        got = {e: fire(t, info(0.0, e)) for e in (1, 2, 3, 4, 5, 9, 10, 11)}
        assert got == {1: False, 2: True, 3: True, 4: True,
                       5: False, 9: False, 10: True, 11: False}

    @pytest.mark.parametrize("bad", [lambda: tg.Each(0),
                                     lambda: tg.Each(1, start=-1),
                                     lambda: tg.At([0]),
                                     lambda: tg.During([(0, 3)]),
                                     lambda: tg.During([(5, 4)])])
    def test_invalid_schedules_are_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestCombinators:
    def test_any_fires_when_one_child_fires(self):
        t = tg.Any([tg.At([3]), tg.At([5])])
        assert [fire(t, info(0.0, e)) for e in range(1, 6)] == [
            False, False, True, False, True]

    def test_all_requires_every_child(self):
        t = tg.All([tg.Each(2), tg.During([(4, 8)])])
        assert [fire(t, info(0.0, e)) for e in range(1, 9)] == [
            False, False, False, True, False, True, False, True]

    def test_empty_any_never_fires_empty_all_always_fires(self):
        assert fire(tg.Any([]), info()) is False
        assert fire(tg.All([]), info()) is True

    def test_always_and_improvement_equals_improvement(self):
        combo = tg.All([tg.Always(), tg.OnImprovement()])
        solo = tg.OnImprovement()
        values = [9999.0, 100.0, 100.0, 10.0, 10.0, 99.0, 11.0, 9.0]
        for e, v in enumerate(values, start=1):
            i = info(v, e)
            assert fire(combo, i) is fire(solo, i)

    def test_any_does_not_short_circuit_stateful_children(self):
        inner = tg.OnImprovement()
        gate = tg.Any([tg.Always(), inner])
        assert fire(gate, info(5.0, 1)) is True
        # inner must have seen 5.0 even though Always already decided the outcome
        assert fire(inner, info(9.0, 2)) is False

    def test_all_does_not_short_circuit_stateful_children(self):
        inner = tg.OnImprovement()
        gate = tg.All([tg.At([999]), inner])
        assert fire(gate, info(5.0, 1)) is False
        assert fire(inner, info(9.0, 2)) is False

    def test_reset_cascades_to_children(self):
        inner = tg.OnImprovement()
        gate = tg.Any([inner])
        fire(gate, info(10.0, 1))
        gate.reset()
        assert fire(inner, info(99.0, 1)) is True
