"""Reference solvers: budget accounting, determinism, improvement behaviour."""

import math

import numpy as np
import pytest

from attainbench import cli, solvers
from attainbench.loggers import Store, cell_key
from attainbench.problems import OneMax, Sphere
from attainbench.properties import TransformedY, TransformedYBest
from attainbench.solvers import SOLVERS, hill_climber, random_search
from attainbench.triggers import Always, OnImprovement

from oracles import hill_climber_per_step


def test_registry():
    assert SOLVERS == {"random": random_search, "hill": hill_climber}


def test_solvers_spend_exactly_the_budget():
    for name, solver in SOLVERS.items():
        pb = Sphere(1, 1, 3)
        solver(pb, 17, np.random.default_rng(0))
        assert pb.state.evaluations == 17, name


def test_a_zero_budget_evaluates_nothing():
    for name, solver in SOLVERS.items():
        pb = Sphere(1, 1, 3)
        solver(pb, 0, np.random.default_rng(0))
        assert pb.state.evaluations == 0, name


def test_a_zero_budget_random_search_logs_nothing_and_leaves_the_state_fresh():
    pb = Sphere(1, 1, 3)
    store = Store([Always()])
    pb.attach_logger(store)
    random_search(pb, 0, np.random.default_rng(0))
    assert store.cells() == []
    assert pb.state == Sphere(1, 1, 3).state
    assert pb.state.evaluations == 0 and pb.state.transformed_y_best == math.inf


def test_random_search_evaluates_the_rows_single_draws_would_give():
    batched, looped = Sphere(1, 2, 5), Sphere(1, 2, 5)
    random_search(batched, 30, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for _ in range(30):
        looped(rng.uniform(looped.lower, looped.upper, 5))
    assert batched.state == looped.state


@pytest.mark.parametrize("budget", [7, 8, 9, 1])
def test_random_search_logs_the_same_across_a_block_boundary(monkeypatch, budget):
    def logged(block):
        monkeypatch.setattr(solvers, "BLOCK", block)
        pb = Sphere(1, 2, 3)
        store = Store([Always(), OnImprovement()], [TransformedY(), TransformedYBest()])
        pb.attach_logger(store)
        random_search(pb, budget, np.random.default_rng(5))
        return pb.state, store.events(cell_key(pb.meta), 0)

    assert logged(4) == logged(3) == logged(budget) == logged(1024)


def test_seeded_runs_reproduce_the_same_best():
    values = []
    for _ in range(2):
        pb = Sphere(1, 1, 4)
        random_search(pb, 25, np.random.default_rng(11))
        values.append(pb.state.transformed_y_best)
    assert values[0] == values[1]


@pytest.mark.parametrize("problem", [OneMax, Sphere])
@pytest.mark.parametrize("budget", [1, solvers.BLOCK, solvers.BLOCK + 1, 2 * solvers.BLOCK + 1])
def test_hill_climber_takes_the_steps_per_step_draws_would_give(problem, budget):
    def logged(solver):
        pb = problem(1, 2, 7)
        store = Store([Always()], [TransformedY(), TransformedYBest()])
        pb.attach_logger(store)
        solver(pb, budget, np.random.default_rng(9))
        return pb.state, store.events(cell_key(pb.meta), 0)

    blocked, per_step = logged(hill_climber), logged(hill_climber_per_step)
    assert blocked == per_step
    assert len(blocked[1]) == budget


def test_a_hill_climb_of_the_continuous_suite_writes_the_files_per_step_draws_give(
        tmp_path, monkeypatch):
    def written(out):
        config = cli.RunConfig(suite="continuous", problems=(1, 2), instances=(1, 2),
                               dimensions=(3,), runs=2, budget=solvers.BLOCK + 40,
                               solver="hill", loggers=("eaf", "eah", "flatfile"), out_dir=out)
        files = cli.run_benchmark(config)["files"]
        return {path.name: path.read_bytes() for path in files}

    blocked = written(tmp_path / "blocked")
    monkeypatch.setitem(cli.SOLVERS, "hill", hill_climber_per_step)
    assert written(tmp_path / "per_step") == blocked
    assert len(blocked) == 3 * 4


def test_hill_climber_respects_the_boolean_domain():
    pb = OneMax(1, 1, 16)
    hill_climber(pb, 60, np.random.default_rng(5))
    # strictly-better acceptance on OneMax climbs monotonically toward all ones
    assert pb.state.raw_y_best >= 8.0


def test_hill_climber_improves_on_sphere():
    pb = Sphere(1, 1, 4)
    hill_climber(pb, 100, np.random.default_rng(3))
    first = Sphere(1, 1, 4)
    rng = np.random.default_rng(3)
    first_sample = rng.uniform(first.lower, first.upper, 4)
    assert pb.state.transformed_y_best <= first(first_sample)
