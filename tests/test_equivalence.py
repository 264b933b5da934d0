"""The array kernels, the trajectory logger and the histogram and level-set writers
against brute force and frozen copies of the code they replaced, and batched
evaluation against a loop of scalar calls.

Groups are drawn from small coordinate ranges so that times are shared
across runs and qualities tie across runs; raw trajectory rows repeat
evaluation counts within a run.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench import fileio
from attainbench import triggers as tg
from attainbench.attainment import (LevelSet, TrajectoryLogger, default_nadir, eaf_levels,
                                    surface, volume)
from attainbench.fileio import read_trajectories, write_histogram, write_level_sets
from attainbench.histogram import Axis, Discretization, Histogram, fit_discretization
from attainbench.loggers import LogInfo, Store
from attainbench.problems import Direction, LeadingOnes, MetaData, OneMax, Rastrigin, Sphere
from attainbench.properties import External, RawY, RawYBest, TransformedY, TransformedYBest

from oracles import (TrajectoryLoggerFrozen, as_trajectories, batch_of,
                     eaf_levels_bruteforce, improvement_staircase_rowwise, surface_sequential,
                     write_histogram_templated, write_level_sets_templated)

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
@given(rows=raw_rows, direction=directions, block=st.sampled_from([1, 2, 7, 64]))
def test_read_trajectories_in_small_blocks_equals_the_rowwise_filter(tmp_path_factory, rows,
                                                                     direction, block):
    path = tmp_path_factory.mktemp("raw") / "t.csv"
    path.write_text("run,evaluations,quality\n"
                    + "".join(f"{r},{e},{q!r}\n" for r, e, q in rows), encoding="utf-8")
    with mock.patch.object(fileio, "_READ_BLOCK", block):
        trajectories = read_trajectories(path, direction)
    assert [t.run for t in trajectories] == sorted({r for r, _, _ in rows})
    for traj in trajectories:
        pairs = [(e, q) for r, e, q in rows if r == traj.run]
        assert traj.points == improvement_staircase_rowwise(pairs, direction)


any_qualities = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(group=staircase_groups(qualities=any_qualities))
def test_nadir_and_fitted_axes_bound_all_points(group):
    direction, runs = group
    trajectories = as_trajectories(runs, direction)
    times = [t for run in runs for t, _ in run]
    qualities = [q for run in runs for _, q in run]
    nadir = default_nadir(trajectories)
    assert nadir == (max(times), max(qualities) if direction is MIN else min(qualities))
    assert type(nadir.time) is int
    disc = fit_discretization(trajectories)
    for axis, values in ((disc.time, times), (disc.quality, qualities)):
        assert (axis.origin, axis.extent) == (min(values), (max(values) - min(values)) or 1.0)


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
        if step[0] == "call":
            info = LogInfo(evaluations=evaluations, transformed_y=step[1],
                           transformed_y_best=step[2])
            new.call(batch_of(info))
            old.call(info)
        for logger in (new, old):
            if step[0] == "attach":
                logger.attach(metas[step[1] % len(metas)])
            elif step[0] == "reset":
                logger.reset()
    assert new.cells() == old.cells()
    for cell in old.cells():
        assert new.trajectories(cell) == old.trajectories(cell)


def leading_ones_rowwise(x):
    zeros = np.flatnonzero(x == 0)
    return float(zeros[0] if zeros.size else x.size)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 9, 10, 16, 17, 31, 33, 64, 100, 127, 299])
def test_the_batch_kernels_keep_the_bits_of_the_row_kernels(d):
    rng = np.random.default_rng(d)
    X = rng.uniform(-5.0, 5.0, (9, d))
    sphere = [float(np.dot(x, x)) for x in X]
    assert Sphere(1, 1, d).evaluate(X) == sphere
    assert list(map(Sphere(1, 1, d), X)) == sphere
    rastrigin = [float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x))) for x in X]
    assert Rastrigin(2, 1, d).evaluate(X) == rastrigin
    assert list(map(Rastrigin(2, 1, d), X)) == rastrigin
    bits = rng.integers(0, 2, (9, d))
    bits[0] = 1
    assert OneMax(1, 1, d).evaluate(bits) == [float(np.sum(x)) for x in bits]
    assert LeadingOnes(2, 1, d).evaluate(bits) == [leading_ones_rowwise(x) for x in bits]


class Peak(Sphere):
    """Sphere under maximization, so that NaN values and ties meet both directions."""

    direction = MAX


LEAVES = {"always": tg.Always, "improvement": tg.OnImprovement, "at": tg.At,
          "each": tg.Each, "during": tg.During, "any": tg.Any, "all": tg.All}

trigger_specs = st.recursive(
    st.one_of(st.tuples(st.just("always")),
              st.tuples(st.just("improvement")),
              st.tuples(st.just("at"), st.sets(st.integers(1, 12), max_size=4)),
              st.tuples(st.just("each"), st.integers(1, 4), st.integers(0, 5)),
              st.tuples(st.just("during"), st.lists(
                  st.tuples(st.integers(1, 10), st.integers(0, 4)).map(
                      lambda span: (span[0], span[0] + span[1])), max_size=2))),
    lambda children: st.tuples(st.sampled_from(["any", "all"]), st.lists(children, max_size=3)),
    max_leaves=6)


def build(spec):
    """A fresh trigger from its spec, so that two loggers never share trigger state."""
    kind, *args = spec
    if kind in ("any", "all"):
        return LEAVES[kind]([build(child) for child in args[0]])
    return LEAVES[kind](*args)


# Rows of a 2-d problem: quarter steps tie often, and a NaN coordinate gives a NaN value.
rows = st.lists(st.integers(-8, 8).map(lambda v: v / 4) | st.just(math.nan),
                min_size=2, max_size=2)
# Per batch: the rows, what the external property is bound to (None: detached), and
# where the batch may stop: None, or ``until`` at the value of a row nudged by a step.
batches = st.tuples(st.lists(rows, max_size=4), st.none() | small_qualities,
                    st.none() | st.tuples(st.integers(0, 3), st.sampled_from([-0.25, 0.0, 0.25])))


@settings(max_examples=200, deadline=None)
@given(problem=st.sampled_from([Sphere, Peak]), instance=st.integers(1, 2),
       specs=st.lists(trigger_specs, max_size=3),
       runs=st.lists(st.lists(batches, max_size=5), min_size=1, max_size=3))
def test_a_batch_equals_a_loop_of_scalar_calls(problem, instance, specs, runs):
    external = External("extra")
    properties = [RawY(), RawYBest(), TransformedY(), TransformedYBest(), external]
    sides = []
    for _ in range(2):
        pb = problem(1, instance, 2)
        store, trajectories = Store([build(s) for s in specs], properties), TrajectoryLogger()
        pb.attach_logger(store)
        pb.attach_logger(trajectories)
        sides.append((pb, store, trajectories))
    (batched, *_), (scalar, *_) = sides
    for run in runs:
        for batch, binding, stop in run:
            if binding is None:
                external.detach()
            else:
                external.rebind(lambda binding=binding: binding)
            until = None
            if stop is not None and batch:
                until = problem(1, instance, 2)(batch[stop[0] % len(batch)]) + stop[1]
            got = batched.evaluate(np.array(batch, dtype=float).reshape(-1, 2), until=until)
            expected = []
            for row in batch:
                expected.append(scalar(row))
                if until is not None and scalar.direction.better(expected[-1], until):
                    break
            assert repr(got) == repr(expected)
            assert repr(batched.state) == repr(scalar.state)
        batched.reset()
        scalar.reset()
        assert repr(batched.state) == repr(scalar.state)
    (_, store_b, traj_b), (_, store_s, traj_s) = sides
    assert store_b.cells() == store_s.cells()
    for cell in store_s.cells():
        assert store_b.runs(cell) == store_s.runs(cell)
        for run in store_s.runs(cell):
            assert repr(store_b.events(cell, run)) == repr(store_s.events(cell, run))
    assert traj_b.trajectories() == traj_s.trajectories()


def _same_bytes(tmp_path_factory, write, frozen, *args) -> None:
    """``write`` and its ``frozen`` copy write the same bytes for ``args``."""
    directory = tmp_path_factory.mktemp("written")
    write(directory / "new", *args)
    frozen(directory / "frozen", *args)
    assert (directory / "new").read_bytes() == (directory / "frozen").read_bytes()


#: Each count dtype with the counts it can hold, drawn as Python integers.
count_dtypes = st.sampled_from([(bool, 1), (np.uint8, 255), (np.int32, 2**31 - 1),
                                (np.intp, 2**63 - 1), (np.int64, 2**63 - 1),
                                (np.float64, 2**53)])
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(dtype=count_dtypes, rows=st.integers(1, 40), cols=st.integers(1, 12),
       block=st.integers(1, 40) | st.just(fileio._HIST_CELLS),
       origins=st.tuples(finite, finite),
       extents=st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
       runs=st.integers(0, 2**63 - 1), data=st.data())
def test_write_histogram_equals_the_templated_writer(tmp_path_factory, dtype, rows, cols, block,
                                                    origins, extents, runs, data):
    kind, top = dtype
    # Few distinct values keep repeats likely, as in a real grid.
    values = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    cells = data.draw(st.lists(st.sampled_from(values), min_size=rows * cols,
                               max_size=rows * cols))
    counts = np.array(cells, dtype=object).astype(kind).reshape(rows, cols)
    grid = Discretization(Axis(rows, origins[0], extents[0], "linear"),
                          Axis(cols, origins[1], extents[1], "log"))
    # Blocks of a few cells split the grid into one-row, many-row and partial blocks.
    with mock.patch.object(fileio, "_HIST_CELLS", block):
        _same_bytes(tmp_path_factory, write_histogram, write_histogram_templated,
                    Histogram(grid, counts, runs))


#: Qualities at the edges of their rendering: subnormals, the neighbours of 1e16 and
#: 1e-4, where repr switches between positional and exponent form, and zeros.
edge_qualities = st.sampled_from([
    5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
    9.999999999999999e-05, 1e-4, 1.0000000000000002e-04,
    9999999999999998.0, 1e16, 1.0000000000000002e16, 0.0, -0.0, 1.0, 0.1,
]).flatmap(lambda q: st.sampled_from([q, -q])) | finite
#: Times over the whole range a level may hold, with small ones shared across levels.
edge_times = st.integers(1, 12) | st.integers(1, 2**63 - 1)


@st.composite
def level_set_lists(draw):
    """(level sets, nadir): up to 4 levels of one direction, each a strict staircase
    with up to 12 points, possibly none."""
    direction = draw(directions)
    sets = []
    for level in sorted(draw(st.sets(st.integers(1, 2**63 - 1), max_size=4))):
        times = sorted(draw(st.sets(edge_times, max_size=12)))
        quals = sorted(draw(st.sets(edge_qualities, min_size=len(times), max_size=len(times))),
                       reverse=direction is MIN)
        sets.append(LevelSet(level, list(zip(times, quals)), direction))
    return sets, (draw(edge_times), draw(finite))


@settings(max_examples=300, deadline=None)
@given(sets_and_nadir=level_set_lists(), group=st.none() | st.just({"runs": 3}))
def test_write_level_sets_equals_the_templated_writer(tmp_path_factory, sets_and_nadir, group):
    sets, nadir = sets_and_nadir
    _same_bytes(tmp_path_factory, write_level_sets, write_level_sets_templated, sets, nadir,
                group)


@pytest.mark.parametrize("direction", [MIN, MAX])
def test_a_zero_quality_is_written_as_in_the_templated_writer(tmp_path_factory, direction):
    sets = [LevelSet(1, [], direction), LevelSet(2, [(1, -0.0)], direction),
            LevelSet(3, [(2**63 - 1, 0.0)], direction)]
    _same_bytes(tmp_path_factory, write_level_sets, write_level_sets_templated, sets,
                (2**63 - 1, 1.0))
