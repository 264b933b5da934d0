"""Reference solvers: budget accounting, determinism, improvement behaviour."""

import numpy as np

from attainbench.problems import OneMax, Sphere
from attainbench.solvers import SOLVERS, hill_climber, random_search


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


def test_seeded_runs_reproduce_the_same_best():
    values = []
    for _ in range(2):
        pb = Sphere(1, 1, 4)
        random_search(pb, 25, np.random.default_rng(11))
        values.append(pb.state.transformed_y_best)
    assert values[0] == values[1]


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
