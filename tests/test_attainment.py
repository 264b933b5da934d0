"""Attainment analysis: trajectory capture, level sets, surfaces, volumes."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench import attainment
from attainbench.attainment import (
    AttainmentPoint,
    LevelSelector,
    LevelSet,
    Trajectory,
    TrajectoryLogger,
    default_nadir,
    eaf_levels,
    surface,
    volume,
)
from attainbench.fileio import read_trajectories, write_level_sets, write_trajectories
from attainbench.histogram import eah, fit_discretization
from attainbench.loggers import Batch, CellKey, LogInfo
from attainbench.problems import Direction, MetaData, Problem

import oracles
from oracles import as_trajectories, batch_of, eaf_levels_bruteforce, random_staircases, weakly_dominates
from test_equivalence import staircase_groups

MIN = Direction.MINIMIZATION
MAX = Direction.MAXIMIZATION

# Two-run reference data used throughout: run A improves at evaluations 1 and
# 3, run B at 2 and 4, and their level sets are known in closed form.
RUN_A = [(1, 10.0), (3, 5.0)]
RUN_B = [(2, 8.0), (4, 2.0)]
LEVEL_1 = [(1, 10.0), (2, 8.0), (3, 5.0), (4, 2.0)]
LEVEL_2 = [(2, 10.0), (3, 8.0), (4, 5.0)]


def trajectories_ab(direction=MIN):
    sign = 1.0 if direction is MIN else -1.0
    runs = [[(t, sign * q) for t, q in RUN_A], [(t, sign * q) for t, q in RUN_B]]
    return as_trajectories(runs, direction)


def points(level_set):
    return [(p.time, p.quality) for p in level_set.points]


class TestTrajectoryLogger:
    META = MetaData("fake", 1, 1, 4, MIN)

    def capture(self, runs_values, meta=None):
        meta = meta or self.META
        logger = TrajectoryLogger()
        logger.attach(meta)
        for values in runs_values:
            best = meta.direction.worst
            for e, v in enumerate(values, start=1):
                if meta.direction.better(v, best):
                    best = v
                logger.call(batch_of(LogInfo(evaluations=e, transformed_y=v,
                                             transformed_y_best=best)))
            logger.reset()
        return logger

    def test_records_improvement_staircase(self):
        logger = self.capture([[9.0, 7.0, 7.0, 3.0]])
        (traj,) = logger.trajectories(CellKey("fake", 1, 4, 1))
        assert traj.points == [AttainmentPoint(1, 9.0), AttainmentPoint(2, 7.0),
                               AttainmentPoint(4, 3.0)]
        assert traj.run == 0

    def test_runs_are_separated_by_reset(self):
        logger = self.capture([[5.0, 4.0], [6.0]])
        trajs = logger.trajectories(CellKey("fake", 1, 4, 1))
        assert [t.run for t in trajs] == [0, 1]
        assert trajs[1].points == [AttainmentPoint(1, 6.0)]

    def test_listing_a_20_point_staircase_leaves_no_tuple_on_the_20_item_free_list(
            self, new_free_20_tuples):
        setup = ("from attainbench.attainment import TrajectoryLogger\n"
                 "from attainbench.problems import Sphere\n"
                 "pb = Sphere(1, 1, 1)\n"
                 "logger = TrajectoryLogger()\n"
                 "pb.attach_logger(logger)\n"
                 "for x in range(20, 0, -1):\n"
                 "    pb((float(x),))\n"
                 "assert len(logger.trajectories()[0].points) == 20")
        listing = ("for _ in range(100):\n"
                   "    logger.trajectories()")
        assert new_free_20_tuples(setup, listing) <= 0

    @pytest.mark.parametrize("record, point", [
        ("-inf best", "(1, -inf)"),
        (Batch((3, 2), (5.0, 4.0), (5.0, 4.0), (5.0, 4.0), (5.0, 4.0)), "(2, 4.0)"),
        (Batch((True,), (5.0,), (5.0,), (5.0,), (5.0,)), "(True, 5.0)"),
        (Batch((1,), (4.0,), (4.0,), (4.0,), ("4.0",)), "(1, '4.0')"),
    ], ids=["-inf best", "counts (3, 2)", "True count", "'4.0' best"])
    def test_what_the_logger_recorded_is_checked_naming_the_point(self, record, point):
        # The kernels check the recorded points themselves. Handed over as unchecked
        # numpy columns, True would read as 1 and "4.0" as 4.0.
        logger = TrajectoryLogger()
        if isinstance(record, Batch):
            logger.attach(self.META)
            logger.call(record)
        else:
            class Pit(Problem):
                def _raw(self, X):
                    return np.full(len(X), -np.inf)

            pit = Pit(1, 1, 2)
            pit.attach_logger(logger)
            pit(np.zeros(2))
        with pytest.raises(ValueError,
                           match=f"^run 0 is not a strict staircase .* at point {re.escape(point)}$"):
            eaf_levels(logger.trajectories())

    def test_all_cells_listing_is_cell_major(self):
        logger = TrajectoryLogger()
        for pid in (2, 1):
            meta = MetaData("fake", pid, 1, 4, MIN)
            logger.attach(meta)
            logger.call(batch_of(LogInfo(evaluations=1, transformed_y=1.0,
                                         transformed_y_best=1.0)))
            logger.reset()
        assert [c.problem_id for c in logger.cells()] == [1, 2]
        assert [t.meta.problem_id for t in logger.trajectories()] == [1, 2]


class TestLevelSets:
    def test_two_run_reference_levels(self):
        sets = eaf_levels(trajectories_ab())
        assert [ls.level for ls in sets] == [1, 2]
        assert points(sets[0]) == LEVEL_1
        assert points(sets[1]) == LEVEL_2

    def test_level_subset_selection(self):
        (only,) = eaf_levels(trajectories_ab(), levels=[2])
        assert only.level == 2 and points(only) == LEVEL_2

    def test_maximization_mirror(self):
        sets = eaf_levels(trajectories_ab(MAX))
        assert points(sets[0]) == [(t, -q) for t, q in LEVEL_1]
        assert points(sets[1]) == [(t, -q) for t, q in LEVEL_2]

    def test_out_of_range_level_names_the_run_count(self):
        with pytest.raises(ValueError, match=r"\[3\] outside \[1, 2\]"):
            eaf_levels(trajectories_ab(), levels=[3])
        with pytest.raises(ValueError, match="outside"):
            eaf_levels(trajectories_ab(), levels=[0])

    def test_empty_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="empty trajectory list"):
            eaf_levels([])
        broken = trajectories_ab()
        broken[1].points = []
        with pytest.raises(ValueError, match="run 1 has an empty trajectory"):
            eaf_levels(broken)

    def test_non_staircase_trajectories_are_rejected(self):
        bad = as_trajectories([[(1, 5.0), (2, 5.0)]], MIN)
        with pytest.raises(ValueError, match="strict staircase"):
            eaf_levels(bad)
        for run, point in [([(math.nan, 5.0)], r"\(nan, 5\.0\)"),
                           ([(1, 5.0), (math.inf, 3.0)], r"\(inf, 3\.0\)"),
                           ([(2.5, 5.0)], r"\(2\.5, 5\.0\)"),
                           ([(0, 5.0)], r"\(0, 5\.0\)"),
                           ([(2 ** 63, 5.0)], r"\(9223372036854775808, 5\.0\)")]:
            bad = [Trajectory(MetaData("fake", 1, 1, 4, MIN), 3, [AttainmentPoint(*p) for p in run])]
            with pytest.raises(ValueError, match=f"^run 3 is not a strict staircase .* {point}$"):
                eaf_levels(bad)

    @pytest.mark.parametrize("points, shown", [
        ([(1, 2.0, 9), (2, 1.0)], "(1, 2.0, 9)"),
        ([(1, 2.0, 9), (2, 1.0, 8)], "(1, 2.0, 9)"),
        ([(1, 5.0), (2,)], "(2,)"),
        ([(1, 5.0), 7], "7"),
    ], ids=["one triple", "all triples", "a single", "a number"])
    def test_a_point_that_is_not_a_pair_is_rejected_naming_it(self, points, shown):
        bad = [Trajectory(MetaData("fake", 1, 1, 4, MIN), 3, points)]
        with pytest.raises(ValueError,
                           match=f"^run 3 is not a strict staircase .* {re.escape(shown)}$"):
            eaf_levels(bad)

    def test_checking_a_20_point_list_leaves_no_tuple_on_the_20_item_free_list(
            self, new_free_20_tuples):
        setup = ("from attainbench.attainment import _check\n"
                 "from attainbench.problems import Direction\n"
                 "points = [(t, 100.0 - t) for t in range(1, 21)]")
        check = ("for _ in range(100):\n"
                 "    _check(points, Direction.MINIMIZATION, 'run 0')")
        assert new_free_20_tuples(setup, check) <= 0

    def test_a_20_point_trajectory_leaves_no_tuple_on_the_20_item_free_list(
            self, new_free_20_tuples):
        setup = ("from attainbench.attainment import TrajectoryLogger, eaf_levels\n"
                 "from attainbench.problems import Sphere\n"
                 "pb = Sphere(1, 1, 1)\n"
                 "logger = TrajectoryLogger()\n"
                 "pb.attach_logger(logger)\n"
                 "for x in range(20, 0, -1):\n"
                 "    pb((float(x),))\n"
                 "assert len(logger.trajectories()[0].points) == 20")
        levels = ("for _ in range(100):\n"
                  "    eaf_levels(logger.trajectories(), [1])")
        assert new_free_20_tuples(setup, levels) <= 0

    @pytest.mark.parametrize("quality", [-math.inf, math.nan])
    def test_non_finite_qualities_are_rejected(self, quality):
        bad = as_trajectories([[(1, 5.0), (2, quality)]], MIN)
        with pytest.raises(ValueError, match="finite qualities"):
            eaf_levels(bad)

    @pytest.mark.parametrize("quality", ["2.0", "not a number", b"2.0"])
    def test_text_qualities_are_rejected_naming_the_point(self, quality):
        bad = [Trajectory(MetaData("fake", 1, 1, 4, MIN), 3,
                          [AttainmentPoint(1, 5.0), AttainmentPoint(2, quality)])]
        point = re.escape(repr((2, quality)))
        with pytest.raises(ValueError, match=f"^run 3 is not a strict staircase .* {point}$"):
            eaf_levels(bad)

    def test_mixed_directions_are_rejected(self):
        mixed = trajectories_ab() + [Trajectory(MetaData("fake", 1, 1, 4, MAX), 9,
                                                [AttainmentPoint(1, 0.0)])]
        with pytest.raises(ValueError, match="mix"):
            eaf_levels(mixed)

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_matches_bruteforce_oracle_on_random_instances(self, direction):
        rng = np.random.default_rng(17)
        for _ in range(40):
            runs = random_staircases(rng, direction=direction)
            sets = eaf_levels(as_trajectories(runs, direction))
            for ls in sets:
                assert points(ls) == eaf_levels_bruteforce(runs, ls.level, direction)

    def test_invariant_under_monotone_quality_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            runs = random_staircases(rng)
            cubed = [[(t, q ** 3) for t, q in run] for run in runs]
            base = eaf_levels(as_trajectories(runs, MIN))
            mapped = eaf_levels(as_trajectories(cubed, MIN))
            for ls, ms in zip(base, mapped):
                assert [(t, q ** 3) for t, q in points(ls)] == points(ms)

    @settings(max_examples=100, deadline=None)
    @given(group=staircase_groups(max_runs=7, max_time=20))
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_carry_the_bests_across_their_boundaries(self, block, group):
        direction, runs = group
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attainment, "_BLOCK", block)
            sets = eaf_levels(as_trajectories(runs, direction))
        for ls in sets:
            assert [tuple(p) for p in ls.points] == eaf_levels_bruteforce(runs, ls.level, direction)

    def test_points_view_is_a_list_of_attainment_points(self):
        rng = np.random.default_rng(37)
        for direction in (MIN, MAX):
            runs = random_staircases(rng, m=5, direction=direction)
            for ls in eaf_levels(as_trajectories(runs, direction)):
                expected = [AttainmentPoint(t, q)
                            for t, q in eaf_levels_bruteforce(runs, ls.level, direction)]
                assert ls.points == expected and ls.points is ls.points
                assert all(type(p) is AttainmentPoint and type(p.time) is int
                           and type(p.quality) is float for p in ls.points)

    @settings(max_examples=100, deadline=None)
    @given(group=staircase_groups(max_points=5, qualities=st.integers(-2, 2).map(float)),
           data=st.data())
    def test_every_zero_in_a_level_set_is_positive(self, tmp_path_factory, group, data):
        direction, runs = group
        signed = [[(t, data.draw(st.sampled_from([q, -q])) if q == 0 else q) for t, q in run]
                  for run in runs]
        sets = eaf_levels(as_trajectories(signed, direction))
        path = tmp_path_factory.mktemp("levels") / "levels.json"
        write_level_sets(path, sets, (99, 0.0))
        written = json.loads(path.read_text(encoding="utf-8"))["levels"]
        for ls, level in zip(sets, written):
            assert [tuple(p) for p in ls.points] == eaf_levels_bruteforce(runs, ls.level, direction)
            qualities = [p.quality for p in ls.points] + [q for _, q in level["points"]]
            assert all(math.copysign(1.0, q) == 1.0 for q in qualities if q == 0)

    def test_levels_are_nested(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            runs = random_staircases(rng, m=4)
            sets = eaf_levels(as_trajectories(runs, MIN))
            for lower, higher in zip(sets, sets[1:]):
                for p in higher.points:
                    assert any(weakly_dominates(q, p) for q in lower.points)


class TestLevelSelector:
    def build_logger(self, runs_per_cell=3):
        logger = TrajectoryLogger()
        for pid in (1, 2):
            meta = MetaData("fake", pid, 1, 4, MIN)
            logger.attach(meta)
            for run in range(runs_per_cell):
                logger.call(batch_of(LogInfo(evaluations=1, transformed_y=float(10 - run),
                                             transformed_y_best=float(10 - run))))
                logger.reset()
        return logger

    def test_indices_map_to_levels_per_cell(self):
        selector = LevelSelector({0, 2})
        out = selector(self.build_logger())
        assert sorted(c.problem_id for c in out) == [1, 2]
        for sets in out.values():
            assert [ls.level for ls in sets] == [1, 3]

    def test_out_of_range_index_names_the_run_count(self):
        selector = LevelSelector([5])
        with pytest.raises(ValueError, match=r"\[5\] out of range.*3 run"):
            selector(self.build_logger())

    def test_invalid_indices_are_rejected(self):
        with pytest.raises(ValueError):
            LevelSelector([])
        with pytest.raises(ValueError):
            LevelSelector([-1])


class TestNadir:
    def test_componentwise_worst_corner(self):
        assert default_nadir(trajectories_ab()) == AttainmentPoint(4, 10.0)
        assert default_nadir(trajectories_ab(MAX)) == AttainmentPoint(4, -10.0)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            default_nadir([])

    def test_integer_times_stay_exact(self):
        meta = MetaData("fake", 1, 1, 4, MIN)
        for time in (2 ** 53 + 1, 2 ** 62 + 1):
            nadir = default_nadir([Trajectory(meta, 0, [AttainmentPoint(time, 5.0)])])
            assert nadir == (time, 5.0) and type(nadir.time) is int


class TestSurface:
    def level(self, pts, level=1, direction=MIN):
        return LevelSet(level, [AttainmentPoint(t, q) for t, q in pts], direction)

    def test_reference_level_one_area(self):
        assert surface(self.level(LEVEL_1), (5, 12.0)) == 23.0

    def test_reference_level_two_area(self):
        assert surface(self.level(LEVEL_2, level=2), (5, 12.0)) == 13.0

    def test_single_point_rectangle(self):
        assert surface(self.level([(2, 3.0)]), (5, 9.0)) == 18.0

    def test_point_at_the_nadir_has_zero_area(self):
        assert surface(self.level([(2, 3.0)]), (2, 3.0)) == 0.0

    def test_maximization_mirror(self):
        mirrored = self.level([(t, -q) for t, q in LEVEL_1], direction=MAX)
        assert surface(mirrored, (5, -12.0)) == 23.0

    def test_nadir_violations_name_the_point(self):
        with pytest.raises(ValueError, match=r"\(4, 2\.0\)"):
            surface(self.level(LEVEL_1), (3, 12.0))
        with pytest.raises(ValueError, match="not weakly dominated"):
            surface(self.level(LEVEL_1), (5, 1.0))

    def test_non_staircase_input_is_rejected(self):
        for pts in ([(1, 5.0), (2, 5.0)], [(math.nan, 5.0)], [(1, 5.0), (math.inf, 3.0)],
                    [(2.5, 5.0)], [(0, 5.0)]):
            with pytest.raises(ValueError, match="strict staircase"):
                surface(self.level(pts), (5, 9.0))
        with pytest.raises(ValueError):
            surface(self.level([]), (5, 9.0))


class TestVolume:
    def sets(self):
        return eaf_levels(trajectories_ab())

    def test_sums_level_surfaces(self):
        assert volume(self.sets(), (5, 12.0)) == 36.0

    def test_repeated_sets_add_up(self):
        one = self.sets()[0]
        assert volume([one, one], (5, 12.0)) == 46.0

    def test_normalized_reference_value(self):
        # ideal corner (1, 2), box area 4 * 10, two levels: 36 / 80
        assert volume(self.sets(), (5, 12.0), normalized=True) == pytest.approx(0.45)

    def test_normalized_full_box_scores_one(self):
        ls = LevelSet(1, [AttainmentPoint(2, 3.0)], MIN)
        assert volume([ls], (5, 9.0), normalized=True) == 1.0

    @pytest.mark.parametrize("time", [2**62, 2**63 - 1, 2**63, 2**64, 10**30])
    def test_normalized_full_box_scores_one_at_a_nadir_time_past_int64(self, time):
        ls = LevelSet(1, [AttainmentPoint(1, 1.0)], MIN)
        assert volume([ls], (time, 3.0), normalized=True) == 1.0

    def test_degenerate_box_is_rejected(self):
        ls = LevelSet(1, [AttainmentPoint(2, 3.0)], MIN)
        with pytest.raises(ValueError, match="degenerate"):
            volume([ls], (2, 3.0), normalized=True)

    def test_empty_collection_is_rejected(self):
        with pytest.raises(ValueError):
            volume([], (5, 12.0))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_mixed_directions_are_rejected_in_either_order(self, normalized):
        low = LevelSet(1, [AttainmentPoint(1, 1.0)], MIN)
        high = LevelSet(1, [AttainmentPoint(1, 10.0)], MAX)
        for sets in ([low, high], [high, low]):
            with pytest.raises(ValueError, match=r"^level sets mix optimization directions: "
                                                 r"\['max', 'min'\]$"):
                volume(sets, (2, 5.0), normalized=normalized)

    def test_monte_carlo_agreement_on_reference_data(self):
        rng = np.random.default_rng(31)
        level_one = self.sets()[0]
        estimate = oracles.surface_monte_carlo(points(level_one), (5, 12.0), MIN, 200_000, rng)
        assert estimate == pytest.approx(23.0, rel=0.01)


class TestCheckedOnce:
    def test_each_object_is_checked_at_most_once(self, monkeypatch, tmp_path):
        checked = Counter()
        check = attainment._check

        def counting(points, direction, label):
            checked[id(points)] += 1
            return check(points, direction, label)

        monkeypatch.setattr(attainment, "_check", counting)
        trajs = as_trajectories(random_staircases(np.random.default_rng(53), m=5), MIN)
        hand_made = LevelSet(1, list(trajs[0].points), MIN)

        def every_kernel(trajectories, extra_sets=()):
            sets = eaf_levels(trajectories) + list(extra_sets)
            nadir = default_nadir(trajectories)
            eah(trajectories, fit_discretization(trajectories))
            for ls in sets:
                surface(ls, nadir)
            volume(sets, nadir, normalized=True)
            return sets

        for _ in range(2):
            every_kernel(trajs, [hand_made])
        assert sorted(checked.values()) == [1] * (len(trajs) + 1)

        path = tmp_path / "t.csv"
        write_trajectories(path, trajs)
        checked.clear()
        sets = every_kernel(read_trajectories(path))
        write_level_sets(tmp_path / "levels.json", sets, (99, 99.0))
        assert not checked


class TestEditsAfterAKernel:
    """A kernel's check drops the ``points`` list and reading ``points`` drops the
    columns, so an edit of the list a kernel has read is what the next kernel reads."""

    def test_a_point_appended_to_a_trajectory_reaches_the_next_kernel(self):
        a, b = trajectories_ab()
        assert points(eaf_levels([a, b], [1])[0]) == LEVEL_1
        a.points.append(AttainmentPoint(5, 1.0))
        assert points(eaf_levels([a, b], [1])[0]) == LEVEL_1 + [(5, 1.0)]
        assert default_nadir([a, b]) == (5, 10.0)

    def test_a_point_replaced_in_a_trajectory_is_checked_by_the_next_kernel(self):
        a, b = trajectories_ab()
        eaf_levels([a, b])
        a.points[0] = AttainmentPoint(1, -100.0)
        for kernel in (eaf_levels, default_nadir):
            with pytest.raises(ValueError, match="^run 0 is not a strict staircase"):
                kernel([a, b])

    def test_a_point_appended_to_a_level_set_reaches_the_next_kernel(self):
        (ls,) = eaf_levels(trajectories_ab(), [1])
        assert surface(ls, (6, 12.0)) == 33.0
        ls.points.append(AttainmentPoint(5, 1.0))
        assert ls.points is ls.points
        assert surface(ls, (6, 12.0)) == 34.0
        assert points(ls) == LEVEL_1 + [(5, 1.0)]

    def test_a_point_replaced_in_a_level_set_is_checked_by_the_next_kernel(self):
        (ls,) = eaf_levels(trajectories_ab(), [1])
        assert surface(ls, (6, 12.0)) == 33.0
        ls.points[0] = AttainmentPoint(1, -100.0)
        with pytest.raises(ValueError, match="^level set is not a strict staircase"):
            surface(ls, (6, 12.0))


class TestDirectionReadAtTheBoundary:
    """A direction given as its text is read as its member where it enters: by
    MetaData, LevelSet and read_trajectories. Text that names no direction is rejected."""

    @pytest.mark.parametrize("make", [lambda d: MetaData("s", 1, 1, 1, d).direction,
                                      lambda d: LevelSet(1, [], d).direction],
                             ids=["MetaData", "LevelSet"])
    def test_text_reads_as_its_member(self, make):
        assert make("min") is MIN and make("max") is MAX and make(MAX) is MAX
        with pytest.raises(ValueError, match="'up'"):
            make("up")

    @pytest.mark.parametrize("direction, kept", [("min", [(1, 5.0), (2, 3.0)]),
                                                 ("max", [(1, 5.0)])])
    def test_read_trajectories_filters_by_the_direction_named(self, tmp_path, direction, kept):
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,5.0\n0,2,3.0\n0,3,4.0\n", encoding="utf-8")
        (traj,) = read_trajectories(path, direction)
        assert traj.points == kept and traj.meta.direction is Direction(direction)
        with pytest.raises(ValueError, match="'up'"):
            read_trajectories(path, "up")
