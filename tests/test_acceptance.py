"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a checklist. The
randomized criteria use fixed seeds; expected values come from the
independent oracles in :mod:`oracles`, never from the code under test.
"""

import math
import time

import numpy as np
import pytest

from attainbench import cli
from attainbench.attainment import (
    LevelSelector,
    TrajectoryLogger,
    default_nadir,
    eaf_levels,
    surface,
)
from attainbench.fileio import NA, read_flat_file, write_flat_files
from attainbench.histogram import Axis, eah, fit_discretization
from attainbench.loggers import Cursor, LogInfo, Store, cell_key
from attainbench.problems import ContinuousSuite, Direction, MetaData, Sphere
from attainbench.properties import External, TransformedYBest
from attainbench.solvers import random_search
from attainbench.triggers import Always, OnImprovement

import oracles
from oracles import (
    as_trajectories,
    batch_of,
    attain_counts_grid,
    eah_bruteforce,
    minimal_from_grid,
    random_staircases,
    surface_monte_carlo,
)

MIN = Direction.MINIMIZATION


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


@pytest.fixture(scope="module")
def randomized_instances():
    rng = np.random.default_rng(20260821)
    return [random_staircases(rng) for _ in range(200)]


def test_criterion_01_improvement_trigger_sequence():
    meta = MetaData("listing", 1, 1, 2, MIN)
    values = [9999.0, 100.0, 100.0, 10.0, 10.0, 99.0, 11.0, 9.0]
    trigger = OnImprovement()
    start = time.perf_counter()
    fired = [trigger(batch_of(LogInfo(evaluations=e, transformed_y=v)), meta)[0]
             for e, v in enumerate(values, start=1)]
    trigger.reset()
    (after_reset,) = trigger(batch_of(LogInfo(evaluations=1, transformed_y=99.0)), meta)
    elapsed = time.perf_counter() - start
    ok = (fired == [True, True, False, True, False, False, False, True]
          and after_reset is True and elapsed < 1e-3)
    report(1, ok, f"fire pattern TTFTFFFT then T after reset ({elapsed * 1e6:.0f} us)")


def test_criterion_02_level_sets_match_bruteforce_oracle(randomized_instances):
    start = time.perf_counter()
    mismatches = 0
    sets_checked = 0
    for runs in randomized_instances:
        level_sets = eaf_levels(as_trajectories(runs, MIN))
        times, best_first, counts = attain_counts_grid(runs, MIN)
        for ls in level_sets:
            expected = minimal_from_grid(times, best_first, counts, ls.level)
            if [(p.time, p.quality) for p in ls.points] != expected:
                mismatches += 1
            sets_checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(2, ok, f"{sets_checked} level sets across 200 instances, "
                  f"{mismatches} mismatches ({elapsed:.2f}s)")


def test_criterion_03_worked_level_set_example():
    trajs = as_trajectories([[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]], MIN)
    one, two = eaf_levels(trajs)
    got_1 = [(p.time, p.quality) for p in one.points]
    got_2 = [(p.time, p.quality) for p in two.points]
    ok = (got_1 == [(1, 10.0), (2, 8.0), (3, 5.0), (4, 2.0)]
          and got_2 == [(2, 10.0), (3, 8.0), (4, 5.0)])
    report(3, ok, f"level 1 = {got_1}, level 2 = {got_2}")


def test_criterion_04_surface_exact_and_monte_carlo():
    trajs = as_trajectories([[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]], MIN)
    level_one = eaf_levels(trajs, levels=[1])[0]
    reference = surface(level_one, (5, 12.0))

    rng = np.random.default_rng(4)
    worst_relative = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        times = np.sort(rng.choice(np.arange(1, 31), size=n, replace=False))
        quals = np.sort(rng.choice(np.arange(1, 31), size=n, replace=False))[::-1]
        points = [(int(t), float(q)) for t, q in zip(times, quals)]
        # nadir past the data; the quality margin keeps the dominated
        # fraction of the sampled box at >= 1/2, so 0.5% is a 5-sigma bound
        span = float(quals[0] - quals[-1])
        nadir = (int(times[-1] + rng.integers(1, 6)), float(quals[0]) + span + 1.0)
        level_set = eaf_levels(as_trajectories([points], MIN), levels=[1])[0]
        exact = surface(level_set, nadir)
        estimate = surface_monte_carlo(points, nadir, MIN, 1_000_000, rng)
        worst_relative = max(worst_relative, abs(estimate - exact) / exact)
    ok = reference == 23.0 and worst_relative <= 0.005
    report(4, ok, f"reference surface {reference}, worst Monte-Carlo deviation "
                  f"{worst_relative * 100:.3f}% over 50 sets")


def test_criterion_05_level_sets_are_nested(randomized_instances):
    surface_violations = 0
    domination_violations = 0
    for runs in randomized_instances:
        trajs = as_trajectories(runs, MIN)
        level_sets = eaf_levels(trajs)
        nadir = default_nadir(trajs)
        areas = [surface(ls, nadir) for ls in level_sets]
        if any(b > a for a, b in zip(areas, areas[1:])):
            surface_violations += 1
        for lower, higher in zip(level_sets, level_sets[1:]):
            for p in higher.points:
                if not any(q.time <= p.time and q.quality <= p.quality
                           for q in lower.points):
                    domination_violations += 1
    ok = surface_violations == 0 and domination_violations == 0
    report(5, ok, f"200 instances: {surface_violations} surface-order violations, "
                  f"{domination_violations} undominated higher-level points")


def test_criterion_06_discretization_idempotent():
    linear_axis = Axis(10, 0.0, 10.0)
    linear_example = linear_axis.discretize(3.7)
    log_axis = Axis(1, 0.0, math.e - 1.0, scale="log")
    log_example = log_axis.discretize(math.sqrt(math.e) - 1.0)

    rng = np.random.default_rng(6)
    failures = 0
    for scale in ("linear", "log"):
        for _ in range(10_000):
            buckets = int(rng.integers(1, 65))
            origin = float(rng.uniform(-50.0, 50.0))
            extent = float(rng.uniform(1e-3, 100.0))
            axis = Axis(buckets, origin, extent, scale=scale)
            y = origin + float(rng.uniform(0.0, 1.0)) * extent
            once = axis.discretize(y)
            if axis.discretize(once) != once:
                failures += 1
    ok = (failures == 0 and linear_example == 3.0
          and abs(log_example - (math.e - 1.0)) <= 1e-12)
    report(6, ok, f"h(h(y)) == h(y) on 2x10^4 random axes ({failures} failures); "
                  f"linear 3.7 -> {linear_example}, log sqrt(e)-1 -> {log_example:.15f}")


def test_criterion_07_histogram_matches_bruteforce_oracle(randomized_instances):
    start = time.perf_counter()
    mismatches = 0
    grids = 0
    for runs in randomized_instances:
        trajs = as_trajectories(runs, MIN)
        for scale in ("linear", "log"):
            for t_buckets in (1, 2, 7):
                for q_buckets in (1, 2, 7):
                    disc = fit_discretization(trajs, (t_buckets, q_buckets), (scale, scale))
                    got = eah(trajs, disc).counts.tolist()
                    if got != eah_bruteforce(runs, disc, MIN):
                        mismatches += 1
                    grids += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(7, ok, f"{grids} histogram grids across 200 instances, "
                  f"{mismatches} mismatches ({elapsed:.2f}s)")


def test_criterion_08_end_to_end_suite_run():
    start = time.perf_counter()
    suite = ContinuousSuite([1, 2], [1, 2], [10, 30])
    logger = TrajectoryLogger()
    suite.attach_logger(logger)
    for problem in suite:
        meta = problem.meta
        for run in range(10):
            seed = np.random.SeedSequence(
                [8, meta.problem_id, meta.dimension, meta.instance, run])
            random_search(problem, 10, np.random.default_rng(seed))
            problem.reset()
    selections = LevelSelector({0, 5, 9})(logger)
    elapsed = time.perf_counter() - start

    problems = []
    if len(logger.cells()) != 8:
        problems.append(f"{len(logger.cells())} cells")
    for cell in logger.cells():
        trajectories = logger.trajectories(cell)
        if len(trajectories) != 10:
            problems.append(f"{cell}: {len(trajectories)} runs")
        for traj in trajectories:
            if not traj.points:
                problems.append(f"{cell} run {traj.run}: empty")
            if any(b.time <= a.time or b.quality >= a.quality
                   for a, b in zip(traj.points, traj.points[1:])):
                problems.append(f"{cell} run {traj.run}: not a strict staircase")
        level_sets = selections[cell]
        if [ls.level for ls in level_sets] != [1, 6, 10]:
            problems.append(f"{cell}: levels {[ls.level for ls in level_sets]}")
        nadir = default_nadir(trajectories)
        areas = [surface(ls, nadir) for ls in level_sets]
        for ls in level_sets:
            if not ls.points:
                problems.append(f"{cell} level {ls.level}: empty")
            # mutual non-domination == strict staircase within the set
            if any(b.time <= a.time or b.quality >= a.quality
                   for a, b in zip(ls.points, ls.points[1:])):
                problems.append(f"{cell} level {ls.level}: dominated points")
        if any(b > a for a, b in zip(areas, areas[1:])):
            problems.append(f"{cell}: surfaces not nested {areas}")
        for lower, higher in zip(level_sets, level_sets[1:]):
            for p in higher.points:
                if not any(q.time <= p.time and q.quality <= p.quality
                           for q in lower.points):
                    problems.append(f"{cell}: level {higher.level} point {tuple(p)} undominated")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s")
    report(8, not problems,
           f"8 cells x 10 staircases, levels (1,6,10) nested ({elapsed:.2f}s)"
           + (f"; issues: {problems[:3]}" if problems else ""))


def test_criterion_09_flat_file_matches_store(tmp_path):
    counter = {"value": 0.0}
    external = External("extra", lambda: counter["value"])
    store = Store([Always()], [TransformedYBest(), external])
    problem = Sphere(1, 1, 2, suite_name="gate")
    problem.attach_logger(store)
    rng = np.random.default_rng(9)
    for run in range(2):
        for evaluation in range(1, 5):
            counter["value"] += 1.0
            problem(rng.uniform(-5.0, 5.0, 2))
            if run == 1 and evaluation == 2:
                external.detach()
        problem.reset()

    (path,) = write_flat_files(store, tmp_path)
    names, rows = read_flat_file(path)
    cell = cell_key(problem.meta)

    problems = []
    if names != ["transformed_y_best", "extra"]:
        problems.append(f"names {names}")
    expected_rows = sum(len(store.events(cell, run)) for run in store.runs(cell))
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, store has {expected_rows}")
    for row in rows:
        cursor = Cursor(*cell, run=row.run, event_index=row.event)
        if row.evaluations != store.at(cursor, "evaluations"):
            problems.append(f"evaluations mismatch at {cursor}")
        for name in names:
            if row.values[name] != store.at(cursor, name):
                problems.append(f"{name} mismatch at {cursor}")
    na_cells = path.read_text(encoding="utf-8").count(NA)
    if not any(row.values["extra"] is None for row in rows):
        problems.append("no detached reading reached the file")
    report(9, not problems,
           f"{len(rows)} events round-tripped, {na_cells} NA cell(s) for detached reads"
           + (f"; issues: {problems[:3]}" if problems else ""))


def test_criterion_10_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["run", "--suite", "continuous", "--problems", "1,2", "--instances", "1,2",
            "--dims", "5", "--runs", "3", "--budget", "8", "--solver", "hill",
            "--seed", "42", "--log", "eaf", "--log", "eah", "--log", "flatfile"]
    first, second = tmp_path / "first", tmp_path / "second"
    code_a = cli.main(argv + ["--out", str(first)])
    code_b = cli.main(argv + ["--out", str(second)])
    capsys.readouterr()  # swallow the run summaries; the criterion line follows
    names_a = sorted(p.name for p in first.iterdir())
    names_b = sorted(p.name for p in second.iterdir())
    identical = (names_a == names_b
                 and all((first / n).read_bytes() == (second / n).read_bytes()
                         for n in names_a))
    ok = code_a == code_b == 0 and names_a and identical
    report(10, ok, f"{len(names_a)} output files byte-identical across reruns")
