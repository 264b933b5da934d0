"""Reference solvers for exercising the logging pipeline.

Both are deliberately simple baselines: they spend exactly ``budget``
objective evaluations per run and take their randomness from a
caller-provided generator, so a seeded generator reproduces the run bit for
bit. Both evaluate in batches, and neither batch size changes a number drawn
or a value logged: random search evaluates blocks of independent samples, and
the hill climber windows of neighbours of its current best, each ending at the
first strict improvement. Bit vectors are numpy ``bool`` arrays, drawn as the
integers 0 and 1 and cast, so a pseudo-Boolean problem takes them unchecked.
"""

from __future__ import annotations

import numpy as np

from .problems import Problem

#: Rows per batch of :func:`random_search` and steps per draw of :func:`hill_climber`,
#: which bounds their memory whatever the budget.
BLOCK = 256
#: Neighbours per :meth:`~attainbench.problems.Problem.evaluate` call of
#: :func:`hill_climber`. A strict-acceptance climb accepts few of its steps, so most
#: windows run whole. On 64-bit OneMax and LeadingOnes climbs, a window of 32 took
#: 19% less time than one of 19; windows of 48 and 64 were only 3-6% faster still, and
#: lifted the ``tracemalloc`` peak of those climbs from 50 KB to 68 and 87 KB.
WINDOW = 32


def _sample(problem: Problem, rng: np.random.Generator, *n: int) -> np.ndarray:
    """A uniform sample of the search space, or ``n`` of them as rows. The rows
    are the same draws, in order, as ``n`` single samples."""
    size = (*n, problem.meta.dimension)
    if problem.domain == "boolean":
        # Cast, not drawn as bool: ``integers(..., dtype=bool)`` draws another stream.
        return rng.integers(0, 2, size=size).astype(bool)
    return rng.uniform(problem.lower, problem.upper, size=size)


def random_search(problem: Problem, budget: int, rng: np.random.Generator) -> None:
    """Independent uniform samples of the search space, in batches of at most
    :data:`BLOCK` rows; the draws do not depend on the batch size."""
    for done in range(0, budget, BLOCK):
        problem.evaluate(_sample(problem, rng, min(BLOCK, budget - done)))


def hill_climber(problem: Problem, budget: int, rng: np.random.Generator) -> None:
    """Greedy walk from a random start, keeping strictly better neighbours.

    Real vectors take Gaussian steps (sigma 0.3, clipped to the box); bit
    vectors flip one random position. The steps are drawn :data:`BLOCK` at a
    time, and the neighbours they make of the current best are evaluated
    :data:`WINDOW` at a time. ``evaluate(..., until=best)`` ends a window at its
    first strictly better neighbour, which becomes the next window's parent, so
    each step is taken from the best of its time and counted only if evaluated.
    """
    if budget < 1:
        return
    better = problem.meta.direction.better
    best_x = _sample(problem, rng)
    best_y = problem(best_x)
    d = problem.meta.dimension
    boolean = problem.domain == "boolean"
    # Bit windows are written into one buffer: a fresh 2 KB window per call read about
    # 0.1 MB more peak RSS in 20 s benchmark runs of 64-bit climbs.
    buffer = np.empty((WINDOW, d), dtype=bool) if boolean else None
    for done in range(1, budget, BLOCK):
        n = min(BLOCK, budget - done)
        steps = rng.integers(0, d, size=n) if boolean else rng.normal(0.0, 0.3, size=(n, d))
        taken = 0
        while taken < n:
            step = steps[taken:taken + WINDOW]
            if boolean:
                window = buffer[:len(step)]
                window[...] = best_x
                # A flat index on a 1-d view: ``window[rows, step] ^= 1`` paged in
                # about 40-60 KB more of numpy's code.
                flat, at = window.reshape(-1), step + np.arange(0, window.size, d)
                flat[at] = ~flat[at]
            else:
                window = np.clip(best_x + step, problem.lower, problem.upper)
            values = problem.evaluate(window, until=best_y)
            taken += len(values)
            if better(values[-1], best_y):
                # A copy: the next bit window overwrites the buffer, and a row of a real
                # window would keep the whole window alive.
                best_x, best_y = window[len(values) - 1].copy(), values[-1]


SOLVERS = {
    "random": random_search,
    "hill": hill_climber,
}
