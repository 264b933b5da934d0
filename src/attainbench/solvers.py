"""Reference solvers for exercising the logging pipeline.

Both are deliberately simple baselines: they spend exactly ``budget``
objective evaluations per run and take their randomness from a
caller-provided generator, so a seeded generator reproduces the run bit for
bit. The hill climber depends on each result, so it evaluates one solution
at a time; the steps it draws in blocks are the numbers of one draw per step.
"""

from __future__ import annotations

import numpy as np

from .problems import Problem

#: Rows per batch of :func:`random_search` and steps per draw of :func:`hill_climber`,
#: which bounds their memory whatever the budget.
BLOCK = 256


def _sample(problem: Problem, rng: np.random.Generator, *n: int) -> np.ndarray:
    """A uniform sample of the search space, or ``n`` of them as rows. The rows
    are the same draws, in order, as ``n`` single samples."""
    size = (*n, problem.meta.dimension)
    if problem.domain == "boolean":
        return rng.integers(0, 2, size=size)
    return rng.uniform(problem.lower, problem.upper, size=size)


def random_search(problem: Problem, budget: int, rng: np.random.Generator) -> None:
    """Independent uniform samples of the search space, in batches of at most
    :data:`BLOCK` rows; the draws do not depend on the batch size."""
    for done in range(0, budget, BLOCK):
        problem.evaluate(_sample(problem, rng, min(BLOCK, budget - done)))


def hill_climber(problem: Problem, budget: int, rng: np.random.Generator) -> None:
    """Greedy walk from a random start, keeping strictly better neighbours.

    Real vectors take Gaussian steps (sigma 0.3, clipped to the box); bit
    vectors flip one random position.
    """
    if budget < 1:
        return
    direction = problem.meta.direction
    best_x = _sample(problem, rng)
    best_y = problem(best_x)
    d = problem.meta.dimension
    for done in range(1, budget, BLOCK):
        n = min(BLOCK, budget - done)
        if problem.domain == "boolean":
            steps = rng.integers(0, d, size=n).tolist()
        else:
            steps = rng.normal(0.0, 0.3, size=(n, d))
        for step in steps:
            if problem.domain == "boolean":
                candidate = best_x.copy()
                candidate[step] ^= 1
            else:
                candidate = np.clip(best_x + step, problem.lower, problem.upper)
            y = problem(candidate)
            if direction.better(y, best_y):
                best_x, best_y = candidate, y


SOLVERS = {
    "random": random_search,
    "hill": hill_climber,
}
