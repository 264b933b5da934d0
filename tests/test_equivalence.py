"""The array kernels and the trajectory logger against brute force and frozen
copies of the code they replaced.

Groups are drawn from small coordinate ranges so that times are shared
across runs and qualities tie across runs; raw trajectory rows repeat
evaluation counts within a run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench.attainment import (LevelSet, TrajectoryLogger, eaf_levels,
                                    improvement_staircase, surface, volume)
from attainbench.fileio import read_trajectories
from attainbench.loggers import LogInfo
from attainbench.problems import Direction, MetaData

from oracles import (TrajectoryLoggerFrozen, as_trajectories, eaf_levels_bruteforce,
                     improvement_staircase_rowwise, surface_sequential)

MIN = Direction.MINIMIZATION
MAX = Direction.MAXIMIZATION

directions = st.sampled_from([MIN, MAX])
# Quarter steps keep ties likely and exercise non-integer renderings.
small_qualities = st.integers(-12, 12).map(lambda q: q / 4)


@st.composite
def staircase_groups(draw, max_runs=6, max_points=6, max_time=12, qualities=small_qualities):
    """(direction, runs), each run a strict staircase of (time, quality) pairs."""
    direction = draw(directions)
    runs = []
    for _ in range(draw(st.integers(1, max_runs))):
        times = sorted(draw(st.sets(st.integers(1, max_time), min_size=1, max_size=max_points)))
        quals = sorted(draw(st.sets(qualities, min_size=len(times), max_size=len(times))),
                       reverse=direction is MIN)
        runs.append(list(zip(times, quals)))
    return direction, runs


raw_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8), small_qualities),
                    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(group=staircase_groups(), data=st.data())
def test_eaf_levels_equal_the_bruteforce_levels(group, data):
    direction, runs = group
    m = len(runs)
    levels = data.draw(st.sets(st.integers(1, m), min_size=1) | st.none())
    sets = eaf_levels(as_trajectories(runs, direction), levels)
    assert [ls.level for ls in sets] == sorted(levels or range(1, m + 1))
    for ls in sets:
        assert [tuple(p) for p in ls.points] == eaf_levels_bruteforce(runs, ls.level, direction)


@settings(max_examples=200, deadline=None)
@given(rows=raw_rows, direction=directions)
def test_read_trajectories_equals_the_rowwise_filter(tmp_path_factory, rows, direction):
    path = tmp_path_factory.mktemp("raw") / "t.csv"
    path.write_text("run,evaluations,quality\n"
                    + "".join(f"{r},{e},{q!r}\n" for r, e, q in rows), encoding="utf-8")
    trajectories = read_trajectories(path, direction)
    assert [t.run for t in trajectories] == sorted({r for r, _, _ in rows})
    for traj in trajectories:
        pairs = [(e, q) for r, e, q in rows if r == traj.run]
        assert traj.points == improvement_staircase_rowwise(pairs, direction)


@settings(max_examples=200, deadline=None)
@given(rows=raw_rows, direction=directions)
def test_improvement_staircase_equals_the_rowwise_filter(rows, direction):
    pairs = [(e, q) for _, e, q in rows]
    expected = improvement_staircase_rowwise(pairs, direction)
    assert improvement_staircase(pairs, direction) == expected


any_qualities = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


# More than 8 points per run: numpy's pairwise np.sum departs from a
# left-to-right sum from there on.
@settings(max_examples=200, deadline=None)
@given(group=staircase_groups(max_points=40, max_time=10_000, qualities=any_qualities),
       slack=st.tuples(st.integers(0, 50) | st.floats(0, 50), st.floats(0, 1e3)))
def test_surface_and_volume_keep_the_sequential_bits(group, slack):
    direction, runs = group
    sign = 1.0 if direction is MIN else -1.0
    tn = max(t for run in runs for t, _ in run) + slack[0]
    qn = sign * (max(sign * q for run in runs for _, q in run) + slack[1])
    sets = [LevelSet(1, as_trajectories([run], direction)[0].points, direction) for run in runs]
    areas = [surface_sequential(run, (tn, qn), direction) for run in runs]
    assert [surface(ls, (tn, qn)) for ls in sets] == areas
    total = 0
    for area in areas:
        total += area
    assert volume(sets, (tn, qn)) == total


# A NaN value never improves, so a run can have calls but no recorded point.
logger_steps = st.one_of(
    st.tuples(st.just("attach"), st.integers(0, 2)),
    st.tuples(st.just("call"), small_qualities | st.just(math.nan), small_qualities),
    st.tuples(st.just("reset")),
)


@settings(max_examples=300, deadline=None)
@given(cell_directions=st.lists(directions, min_size=2, max_size=3),
       first=st.integers(0, 2), steps=st.lists(logger_steps, max_size=60))
def test_trajectory_logger_equals_the_frozen_logger(cell_directions, first, steps):
    metas = [MetaData("script", p, 1, 2, d) for p, d in enumerate(cell_directions, start=1)]
    new, old = TrajectoryLogger(), TrajectoryLoggerFrozen()
    steps = [("attach", first)] + steps
    for evaluations, step in enumerate(steps, start=1):
        for logger in (new, old):
            if step[0] == "attach":
                logger.attach(metas[step[1] % len(metas)])
            elif step[0] == "call":
                logger.call(LogInfo(evaluations=evaluations, transformed_y=step[1],
                                    transformed_y_best=step[2]))
            else:
                logger.reset()
    assert new.cells() == old.cells()
    for cell in old.cells():
        assert new.trajectories(cell) == old.trajectories(cell)
