"""Objective functions, per-run state, instance transformations, suites."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attainbench.attainment import TrajectoryLogger
from attainbench.loggers import Logger, Store, cell_key
from attainbench.problems import (
    SUITES,
    ContinuousSuite,
    Direction,
    LeadingOnes,
    MetaData,
    OneMax,
    Problem,
    PseudoBooleanSuite,
    Rastrigin,
    Sphere,
)
from attainbench.properties import External, RawY, RawYBest, TransformedY, TransformedYBest
from attainbench.triggers import Always

from oracles import leading_ones_bruteforce, one_max_bruteforce


class Recorder(Logger):
    def __init__(self):
        super().__init__()
        self.attaches = []
        self.batches = []
        self.resets = 0

    def _on_attach(self, meta):
        self.attaches.append(meta)

    def _on_call(self, batch):
        self.batches.append(batch)

    def _on_reset(self):
        self.resets += 1


class TestObjectives:
    def test_sphere(self):
        assert Sphere(1, 1, 5)(np.zeros(5)) == 0.0
        assert Sphere(1, 1, 2)((1.0, 1.0)) == 2.0
        assert Sphere(1, 1, 3)((0.5, -2.0, 1.0)) == pytest.approx(5.25)

    def test_rastrigin(self):
        assert Rastrigin(2, 1, 4)(np.zeros(4)) == pytest.approx(0.0)
        # each unit coordinate contributes 1 - 10*cos(2*pi) = -9 on top of the 10/dim term
        assert Rastrigin(2, 1, 3)(np.ones(3)) == pytest.approx(3.0)

    def test_onemax(self):
        assert OneMax(1, 1, 4)((1, 0, 1, 1)) == 3.0
        assert OneMax(1, 1, 4)(np.ones(4, dtype=int)) == 4.0

    def test_leadingones(self):
        assert LeadingOnes(2, 1, 4)((1, 1, 0, 1)) == 2.0
        assert LeadingOnes(2, 1, 4)((0, 1, 1, 1)) == 0.0
        assert LeadingOnes(2, 1, 4)((1, 1, 1, 1)) == 4.0

    def test_directions(self):
        assert Sphere(1).meta.direction is Direction.MINIMIZATION
        assert OneMax(1).meta.direction is Direction.MAXIMIZATION

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="length 3"):
            Sphere(1, 1, 3)((1.0, 2.0))

    def test_non_bit_values_are_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            OneMax(1, 1, 3)((0, 2, 1))

    @pytest.mark.parametrize("solution", [(0.5, 1, 1), (1.9, 0, 0), (2, 0, 1), ("1", "0", "1"),
                                          ("0", "1", "2"), (np.nan, 1, 1), (-1, 1, 1),
                                          (1.0, -1.0, 0.0)])
    @pytest.mark.parametrize("problem", [OneMax, LeadingOnes])
    def test_non_bits_are_rejected_before_any_cast(self, problem, solution):
        with pytest.raises(ValueError, match="0/1"):
            problem(1, 1, 3)(solution)

    @pytest.mark.parametrize("problem", [OneMax, LeadingOnes])
    def test_bool_and_whole_float_bits_evaluate_as_ints(self, problem):
        expected = problem(1, 1, 4)((1, 1, 0, 1))
        assert problem(1, 1, 4)(np.array([True, True, False, True])) == expected
        assert problem(1, 1, 4)((1.0, 1.0, 0.0, 1.0)) == expected
        assert problem(1, 1, 4)((True, 1.0, -0.0, 1)) == expected
        assert problem(1, 1, 4)((True, 1, False, 1)) == expected
        assert problem(1, 1, 4)(np.array([1, 1, 0, 1], dtype=np.uint8)) == expected

    def test_a_bool_batch_is_evaluated_uncopied(self):
        X = np.ones((5, 4), dtype=bool)
        assert OneMax(1, 1, 4)._coerce(X) is X

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_checking_bits_allocates_no_copy_of_the_batch(self, dtype, traced_peak):
        pb = OneMax(1, 1, 64)
        X = np.random.default_rng(0).integers(0, 2, (32, 64)).astype(dtype)  # 16 KB
        assert np.shares_memory(pb._coerce(X), X)
        assert traced_peak(pb._coerce, X) < X.nbytes / 2


@st.composite
def bit_batches(draw):
    """An (n, d) batch of bool, int64 or float64 0/1 rows, some all ones or all zeros."""
    d = draw(st.integers(1, 70))
    bits = st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=d, max_size=d)
    rows = draw(st.lists(st.one_of(st.just([1.0] * d), st.just([0.0] * d), bits), max_size=8))
    dtype = draw(st.sampled_from([bool, np.int64, np.float64]))
    return np.array(rows, dtype=float).reshape(len(rows), d).astype(dtype)


@settings(max_examples=200, deadline=None)
@given(X=bit_batches())
@example(X=np.zeros((0, 1), dtype=bool))
@example(X=np.zeros((0, 3), dtype=np.float64))
@example(X=np.array([[1], [0]], dtype=bool))
@example(X=np.array([[1], [0]], dtype=np.int64))
@example(X=np.array([[1.0], [-0.0]]))
def test_the_bit_kernels_agree_with_a_bruteforce_count(X):
    d = X.shape[1]
    assert OneMax(1, 1, d).evaluate(X) == [one_max_bruteforce(x) for x in X.tolist()]
    assert LeadingOnes(2, 1, d).evaluate(X) == [leading_ones_bruteforce(x) for x in X.tolist()]


class TestStateTracking:
    def test_evaluations_count_from_one(self):
        pb = Sphere(1, 1, 2)
        rec = Recorder()
        pb.attach_logger(rec)
        pb((1.0, 1.0))
        assert pb.state.evaluations == 1
        assert rec.batches[0].evaluations == (1,)

    def test_best_values_update_on_strict_improvement_only(self):
        pb = Sphere(1, 1, 1)
        for x, expected_best in [(2.0, 4.0), (1.0, 1.0), (3.0, 1.0), (1.0, 1.0)]:
            pb((x,))
            assert pb.state.transformed_y_best == expected_best

    def test_best_tracking_under_maximization(self):
        pb = OneMax(1, 1, 4)
        pb((1, 0, 0, 0))
        pb((1, 1, 1, 0))
        pb((1, 0, 0, 0))
        assert pb.state.raw_y_best == 3.0
        assert pb.state.raw_y == 1.0

    def test_log_info_carries_updated_bests(self):
        pb = Sphere(1, 1, 2)
        rec = Recorder()
        pb.attach_logger(rec)
        pb((1.0, 2.0))
        batch = rec.batches[-1]
        assert batch.raw_y == batch.raw_y_best == (5.0,)
        assert batch.transformed_y_best == (5.0,)

    def test_reset_clears_state_and_advances_runs(self):
        pb = Sphere(1, 1, 2)
        rec = Recorder()
        pb.attach_logger(rec)
        pb((1.0, 1.0))
        pb.reset()
        assert rec.resets == 1
        assert rec.current_run == 1
        assert pb.state.evaluations == 0
        assert pb.state.transformed_y_best == math.inf
        assert math.isnan(pb.state.raw_y)

    def test_teardown_blocks_further_evaluation(self):
        pb = Sphere(1, 1, 2)
        pb.teardown()
        with pytest.raises(RuntimeError, match="teardown"):
            pb((0.0, 0.0))


class TestBatches:
    def test_evaluate_returns_the_row_values_in_order(self):
        pb = Sphere(1, 1, 2)
        assert pb.evaluate([[1.0, 1.0], [0.0, 2.0], [0.5, 0.5]]) == [2.0, 4.0, 0.5]
        assert pb.state == (3, 0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("problem", [Sphere, Rastrigin])
    def test_values_do_not_depend_on_the_memory_layout(self, problem):
        X = np.random.default_rng(1).uniform(-5.0, 5.0, (50, 20))
        by_rows = problem(1, 2, 20).evaluate(X)
        assert problem(1, 2, 20).evaluate(np.asfortranarray(X)) == by_rows
        assert problem(1, 2, 20).evaluate(np.repeat(X, 2, axis=1)[:, ::2]) == by_rows

    @staticmethod
    def watched(problem):
        """The problem after one evaluation, with a recorder and a store attached."""
        rec, store = Recorder(), Store([Always()], [TransformedY()])
        problem.attach_logger(rec)
        problem.attach_logger(store)
        problem(np.ones(problem.meta.dimension))
        return rec, store

    @pytest.mark.parametrize("problem, rows, match", [
        (Sphere, [[0.0, 0.0], [1.0]], None),
        (Sphere, np.zeros((3, 3)), "length 2"),
        (OneMax, [[1, 0], [0.5, 1], [1, 1]], "0/1"),
    ], ids=["ragged", "wrong length", "half a bit"])
    def test_a_batch_with_one_bad_row_raises_and_logs_nothing(self, problem, rows, match):
        pb = problem(1, 1, 2)
        rec, store = self.watched(pb)
        before = pb.state
        with pytest.raises(ValueError, match=match):
            pb.evaluate(rows)
        assert pb.state == before
        assert len(rec.batches) == 1
        assert store.events(cell_key(pb.meta), 0) == [(1, before.transformed_y)]

    def test_a_batch_after_teardown_raises_and_logs_nothing(self):
        pb = Sphere(1, 1, 2)
        rec, store = self.watched(pb)
        pb.teardown()
        with pytest.raises(RuntimeError, match="teardown"):
            pb.evaluate(np.zeros((2, 2)))
        assert pb.state.evaluations == 1
        assert len(rec.batches) == 1
        assert len(store.events(cell_key(pb.meta), 0)) == 1

    def test_an_empty_batch_counts_and_logs_nothing(self):
        pb = Sphere(1, 1, 2)
        rec, _ = self.watched(pb)
        assert pb.evaluate(np.zeros((0, 2))) == []
        assert pb.state.evaluations == 1 and len(rec.batches) == 1

    @pytest.mark.parametrize("instance", [1, 2])
    def test_a_logger_or_the_caller_cannot_change_what_the_next_logger_reads(self, instance):
        class Scribbler(Logger):
            def _on_call(self, batch):
                for column in batch:
                    with pytest.raises(TypeError):
                        column[0] = 0.0

        pb = Sphere(1, instance, 1)
        pb.attach_logger(Scribbler())
        rec, store = self.watched(pb)
        values = pb.evaluate([[3.0], [2.0]])
        logged = [list(column) for column in rec.batches[-1]]
        values.sort()
        values[0] = -1.0
        assert [list(column) for column in rec.batches[-1]] == logged
        assert [v for _, v in store.events(cell_key(pb.meta), 0)][1:] == logged[3]
        assert logged[0] == [2, 3]


class TestUntil:
    """``evaluate(X, until=u)`` against ``evaluate`` of the rows it keeps."""

    @staticmethod
    def watched(problem, instance):
        """A problem after one evaluation, with a store and a trajectory logger attached."""
        pb = problem(1, instance, 2)
        store = Store([Always()], [RawY(), TransformedY(), TransformedYBest()])
        trajectories = TrajectoryLogger()
        pb.attach_logger(store)
        pb.attach_logger(trajectories)
        pb(np.ones(2))
        return pb, store, trajectories

    @staticmethod
    def seen(pb, store, trajectories):
        cell = cell_key(pb.meta)
        return repr((pb.state, store.events(cell, 0),
                     [t.points for t in trajectories.trajectories(cell)]))

    @pytest.mark.parametrize("problem, instance, rows, until, kept", [
        (Sphere, 1, [[3.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 0.0]], 4.5, 3),
        (Sphere, 1, [[1.0, 1.0], [0.0, 0.0]], 5.0, 1),
        (Sphere, 1, [[3.0, 0.0], [2.0, 1.0]], 5.0, 2),
        (Sphere, 1, [[math.nan, 0.0], [3.0, 0.0], [1.0, 0.0]], 4.0, 3),
        (Sphere, 1, [[math.nan, 0.0], [3.0, 0.0]], 4.0, 2),
        (Sphere, 1, [[1.0, 1.0], [0.0, 0.0]], math.nan, 2),
        # transformed 109.5, 108.2, 102.5, 106.3 from raw 5, 2, 0, 9
        (Sphere, 2, [[2.0, 1.0], [1.0, 1.0], [0.0, 0.0], [3.0, 0.0]], 105.0, 3),
        (OneMax, 1, [[0, 0], [1, 0], [1, 1], [0, 1]], 1.0, 3),
        (OneMax, 1, [[0, 0], [1, 0]], 1.0, 2),
        (LeadingOnes, 1, [[0, 1], [1, 1], [1, 0]], 1.0, 2),
    ], ids=["min", "first row", "a tie is not better", "after a NaN row", "only NaN and worse",
            "until NaN", "instance 2", "max", "max, none better", "leading ones"])
    def test_only_the_rows_up_to_the_first_better_one_are_counted_logged_and_returned(
            self, problem, instance, rows, until, kept):
        cut, prefix = self.watched(problem, instance), self.watched(problem, instance)
        values = cut[0].evaluate(np.array(rows), until=until)
        assert len(values) == kept
        assert repr(values) == repr(prefix[0].evaluate(np.array(rows[:kept])))
        assert self.seen(*cut) == self.seen(*prefix)

    def test_an_empty_batch_counts_and_logs_nothing(self):
        pb, store, trajectories = self.watched(Sphere, 1)
        before = self.seen(pb, store, trajectories)
        assert pb.evaluate(np.zeros((0, 2)), until=1.0) == []
        assert self.seen(pb, store, trajectories) == before

    def test_a_bad_row_after_the_stop_rejects_the_whole_batch(self):
        pb, store, trajectories = self.watched(OneMax, 1)
        before = self.seen(pb, store, trajectories)
        with pytest.raises(ValueError, match="0/1"):
            pb.evaluate([[1, 1], [0.5, 1]], until=0.0)
        assert self.seen(pb, store, trajectories) == before


class TestTwentyRows:
    """A 20-row batch reaches the loggers as rows 1-19, then row 20: never as 20-item tuples."""

    @staticmethod
    def watched(problem):
        """The problem after one evaluation, with a recorder and a store of every field."""
        rec = Recorder()
        store = Store([Always()], [RawY(), RawYBest(), TransformedY(), TransformedYBest()])
        problem.attach_logger(rec)
        problem.attach_logger(store)
        problem(np.ones(problem.meta.dimension))
        return rec, store

    @staticmethod
    def rows(problem):
        """24 rows of which row 20 is the first strictly better than ``until``."""
        rng, d = np.random.default_rng(6), problem.meta.dimension
        if problem.domain == "boolean":
            X = rng.integers(0, 2, (24, d))
            X[:19, 0], X[19] = 0, 1
            return X, d - 1.0
        X = rng.uniform(problem.lower, problem.upper, (24, d))
        values = type(problem)(1, problem.meta.instance, d).evaluate(X[:20])
        best = int(np.argmin(values))
        X[[best, 19]] = X[[19, best]]
        return X, min(values[:best] + values[best + 1:])

    @pytest.mark.parametrize("problem, instance", [(Sphere, 2), (OneMax, 1)])
    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "until"])
    def test_a_20_row_batch_logs_what_20_single_calls_log(self, problem, instance, cut):
        batched, looped = problem(1, instance, 3), problem(1, instance, 3)
        (rec, store), (_, reference) = self.watched(batched), self.watched(looped)
        X, until = self.rows(batched)
        values = batched.evaluate(X if cut else X[:20], until=until if cut else None)
        assert values == [looped(x) for x in X[:20]]
        assert [batch.evaluations for batch in rec.batches[1:]] == [tuple(range(2, 21)), (21,)]
        cell = cell_key(batched.meta)
        assert batched.state == looped.state
        assert store.events(cell, 0) == reference.events(cell, 0)
        assert store.columns(cell, 0) == reference.columns(cell, 0)
        assert len(store.events(cell, 0)) == 21
        if instance != 1:
            assert store.columns(cell, 0)[1] != store.columns(cell, 0)[3]

    @pytest.mark.parametrize("rows, reads", [(19, 1), (20, 2), (21, 1)])
    def test_an_external_getter_is_read_once_per_logged_batch(self, rows, reads):
        calls = []
        pb = Sphere(1, 1, 2)
        pb.attach_logger(Store([Always()], [External("x", lambda: calls.append(1) or 7.0)]))
        pb.evaluate(np.zeros((rows, 2)))
        assert len(calls) == reads

    def test_a_callers_20_row_batches_leave_no_tuple_on_the_20_item_free_list(
            self, new_free_20_tuples):
        setup = ("import numpy as np\n"
                 "from attainbench.attainment import TrajectoryLogger\n"
                 "from attainbench.problems import Sphere\n"
                 "pb = Sphere(1, 2, 3)\n"
                 "pb.attach_logger(TrajectoryLogger())\n"
                 "X = np.random.default_rng(0).uniform(-5.0, 5.0, (20, 3))")
        evaluate = ("for _ in range(500):\n"
                    "    pb.evaluate(X)")
        assert new_free_20_tuples(setup, evaluate) <= 0


class TestLoggerWiring:
    def test_attach_notifies_immediately(self):
        pb = Sphere(7, 1, 3, suite_name="adhoc")
        rec = Recorder()
        pb.attach_logger(rec)
        assert rec.attaches == [pb.meta]

    def test_double_attach_warns_and_keeps_one_registration(self, caplog):
        pb = Sphere(1, 1, 2)
        rec = Recorder()
        pb.attach_logger(rec)
        with caplog.at_level("WARNING"):
            pb.attach_logger(rec)
        assert "already attached" in caplog.text
        pb((0.0, 0.0))
        assert len(rec.batches) == 1

    def test_detached_logger_sees_nothing_further(self):
        pb = Sphere(1, 1, 2)
        rec = Recorder()
        pb.attach_logger(rec)
        pb((0.0, 0.0))
        pb.detach_logger(rec)
        pb((1.0, 1.0))
        pb.reset()
        assert len(rec.batches) == 1 and rec.resets == 0

    def test_loggers_hear_each_notification_in_attach_order(self):
        heard = []

        class Tagged(Logger):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def _on_attach(self, meta):
                heard.append((self.tag, "attach"))

            def _on_call(self, batch):
                (evaluations,) = batch.evaluations
                heard.append((self.tag, "call", evaluations))

            def _on_reset(self):
                heard.append((self.tag, "reset"))

        pb = Sphere(1, 1, 2)
        first, second = Tagged("a"), Tagged("b")
        pb.attach_logger(first)
        pb.attach_logger(second)
        pb((0.0, 0.0))
        pb.reset()
        pb.detach_logger(first)
        pb((1.0, 1.0))
        pb.reset()
        pb.detach_logger(second)
        pb((2.0, 2.0))
        pb.reset()
        assert heard == [("a", "attach"), ("b", "attach"), ("a", "call", 1), ("b", "call", 1),
                         ("a", "reset"), ("b", "reset"), ("b", "call", 1), ("b", "reset")]


class TestInstances:
    def test_instance_one_is_the_identity(self):
        pb = Sphere(1, 1, 3)
        x = (0.5, -1.5, 2.0)
        assert pb(x) == pb.state.raw_y

    def test_higher_instances_shift_and_offset(self):
        pb = Sphere(1, 2, 3)
        x = np.array([0.5, -1.5, 2.0])
        assert pb(x) != pb.state.raw_y
        # optimum moves to the shift; the value there is exactly the offset
        assert pb(pb._shift) == pytest.approx(pb._offset)

    def test_instances_are_reproducible(self):
        a, b = Rastrigin(2, 3, 4), Rastrigin(2, 3, 4)
        x = (0.1, 0.2, 0.3, 0.4)
        assert a(x) == b(x)

    def test_distinct_instances_differ(self):
        x = np.full(3, 0.25)
        values = {Sphere(1, inst, 3)(x) for inst in (1, 2, 3, 4)}
        assert len(values) == 4

    def test_offset_does_not_depend_on_dimension(self):
        assert Sphere(1, 2, 3)._offset == Sphere(1, 2, 7)._offset

    def test_boolean_instances_are_identity(self):
        pb = OneMax(1, 5, 4)
        assert pb((1, 1, 0, 1)) == 3.0 == pb.state.raw_y


class TestSuites:
    def test_iteration_order_is_problem_dimension_instance(self):
        suite = ContinuousSuite([2, 1], [2, 1], [10, 3])
        seen = [(p.meta.problem_id, p.meta.dimension, p.meta.instance) for p in suite]
        assert seen == [(1, 3, 1), (1, 3, 2), (1, 10, 1), (1, 10, 2),
                        (2, 3, 1), (2, 3, 2), (2, 10, 1), (2, 10, 2)]
        assert len(suite) == 8

    def test_suite_loggers_attach_to_every_problem(self):
        suite = PseudoBooleanSuite([1, 2], [1], [4])
        rec = Recorder()
        suite.attach_logger(rec)
        for problem in suite:
            problem(np.ones(4, dtype=int))
        assert [m.problem_id for m in rec.attaches] == [1, 2]
        assert len(rec.batches) == 2

    def test_moving_on_tears_down_the_previous_problem(self):
        suite = ContinuousSuite([1], [1, 2], [2])
        it = iter(suite)
        first = next(it)
        first((0.0, 0.0))
        next(it)
        with pytest.raises(RuntimeError):
            first((0.0, 0.0))

    def test_teardown_at_exhaustion(self):
        suite = ContinuousSuite([1], [1], [2])
        (problem,) = list(suite)
        with pytest.raises(RuntimeError):
            problem((0.0, 0.0))

    def test_unknown_problem_ids_are_rejected(self):
        with pytest.raises(ValueError, match=r"unknown problem id\(s\) \[3\]"):
            ContinuousSuite([1, 3], [1], [2])

    def test_empty_axes_are_rejected(self):
        with pytest.raises(ValueError):
            ContinuousSuite([1], [], [2])

    @pytest.mark.parametrize("instances, dimensions, problem", [
        ([0, 1], [2], r"instance 0 is not an integer in \[1, 2\*\*63\)"),
        ([1], [2, -3], r"dimension -3 is not an integer in \[1, 2\*\*63\)"),
    ])
    def test_axis_values_below_1_are_rejected(self, instances, dimensions, problem):
        with pytest.raises(ValueError, match=problem):
            ContinuousSuite([1], instances, dimensions)

    def test_attaching_a_logger_twice_warns_and_attaches_once(self, caplog):
        suite = ContinuousSuite([1], [1], [2])
        rec = Recorder()
        suite.attach_logger(rec)
        with caplog.at_level("WARNING"):
            suite.attach_logger(rec)
        assert "already attached to suite continuous" in caplog.text
        for problem in suite:
            problem((0.0, 0.0))
        assert len(rec.attaches) == 1 and len(rec.batches) == 1

    def test_registry_names(self):
        assert set(SUITES) == {"continuous", "pseudo-boolean"}
        assert SUITES["continuous"] is ContinuousSuite


def test_metadata_validation():
    with pytest.raises(ValueError):
        MetaData("s", 0, 1, 1, Direction.MINIMIZATION)
    with pytest.raises(ValueError):
        MetaData("s", 1, 0, 1, Direction.MINIMIZATION)
    with pytest.raises(ValueError):
        MetaData("s", 1, 1, 0, Direction.MINIMIZATION)


@pytest.mark.parametrize("name", ["", "../esc/x", "a/b", "a\0b", os.sep + "x"]
                         + ([f"a{os.altsep}b"] if os.altsep else []))
def test_a_suite_name_that_could_name_a_directory_is_rejected(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        MetaData(name, 1, 1, 1, Direction.MINIMIZATION)


def test_every_suite_names_its_problems_with_a_valid_suite_name():
    for make in SUITES.values():
        assert [problem.meta.suite_name for problem in make((1,), (1,), (2,))] == [make.name]


def test_base_problem_requires_an_objective():
    with pytest.raises(NotImplementedError):
        Problem(1, 1, 2)((0.0, 0.0))
