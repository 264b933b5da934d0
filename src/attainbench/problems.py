"""Synthetic benchmark problems and the suites that iterate them.

Two small families are provided: continuous minimization over real vectors
(Sphere, Rastrigin) and pseudo-Boolean maximization over bit vectors
(OneMax, LeadingOnes). A bit vector may hold ``bool``, integer or float 0/1
values; the reference solvers hand pseudo-Boolean problems numpy ``bool``
arrays, and a ``bool`` batch needs no 0/1 check, so it is evaluated uncopied.
Problems count evaluations from 1, track raw and transformed bests, and notify
attached loggers once per batch of evaluations (twice for 20 rows, see
``Problem.evaluate``); a single call is a batch of one.

Instances are deterministic variants of the base function. For continuous
problems, instance ``i > 1`` shifts the optimum and adds a constant offset,
both drawn from a PCG64 stream seeded by a fixed mixing of
``(INSTANCE_SEED, problem_id, instance)``; instance 1 is the identity, so
raw and transformed values coincide there. Pseudo-Boolean instances are all
the identity. Everything is pure arithmetic on the inputs, so results are
reproducible across processes and machines.
"""

from __future__ import annotations

import logging
import math
import operator
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .loggers import Batch, Combine, LogInfo
from .properties import _as_whole

log = logging.getLogger(__name__)

#: Fixed constant mixed with (problem_id, instance) to seed the instance
#: transformation stream. Published so independent implementations can
#: reproduce the same instances: the stream is numpy's PCG64 seeded with
#: SeedSequence([INSTANCE_SEED, problem_id, instance]); the first draw is
#: the objective offset, uniform on [-100, 100], and the next ``dimension``
#: draws are the optimum shift, uniform on [-4, 4] per coordinate.
INSTANCE_SEED = 987654321

#: The row ranges a 20-row batch is logged in. CPython 3.11 keeps every freed 20-item
#: tuple on a free list that it never takes back from, up to 2,000 of them (about
#: 0.4 MB), so no column, trigger answer or reading of a logged batch has 20 items.
_SPLIT_20 = ((0, 19), (19, 20))


def _running_best(values: list, best: float, better) -> list:
    """The best of ``best`` and ``values[:i + 1]`` for each ``i``; a value replaces the
    best only if it is strictly ``better``, so NaN never does."""
    bests = []
    for value in values:
        if better(value, best):
            best = value
        bests.append(best)
    return bests


class Direction(Enum):
    """Optimization sense; quality comparisons flip with it, time never does.

    ``worst`` is the quality every other one beats, and ``better(a, b)`` is
    True iff ``a`` is strictly better than ``b``, which NaN never is. Both are
    plain member attributes, read once per batch on the logging path.
    """

    MINIMIZATION = "min"
    MAXIMIZATION = "max"

    def __init__(self, value: str):
        minimizing = value == "min"
        self.worst = math.inf if minimizing else -math.inf
        self.better = operator.lt if minimizing else operator.gt


@dataclass(frozen=True)
class MetaData:
    """Identity of a benchmark context, carried on every attach notification."""

    suite_name: str
    problem_id: int
    instance: int
    dimension: int
    direction: Direction

    def __post_init__(self):
        # The suite name starts every per-cell file name, so it must name no directory.
        name = self.suite_name
        if not name or any(c and c in name for c in (os.sep, os.altsep, "\0")):
            raise ValueError(f"suite_name must be non-empty with no path separator or NUL, "
                             f"got {name!r}")
        for axis in ("problem_id", "instance", "dimension"):
            object.__setattr__(self, axis, _as_whole(axis, getattr(self, axis), 1))


class Problem:
    """Base objective function with evaluation counting and logging hooks.

    A batch is checked as a whole before any row is counted, then goes as one
    :class:`~attainbench.loggers.Batch` (two for 20 rows, see :meth:`evaluate`)
    to the attached loggers. A problem object is not thread-safe; distinct
    problem objects share no mutable state.
    """

    domain = "continuous"
    direction = Direction.MINIMIZATION
    lower = -5.0
    upper = 5.0

    def __init__(self, problem_id: int, instance: int = 1, dimension: int = 2,
                 suite_name: str = "adhoc"):
        self.meta = MetaData(suite_name, problem_id, instance, dimension, self.direction)
        self._loggers = Combine()
        self._torn_down = False
        self._offset, self._shift = self._instance_transform()
        self._last = self._fresh_state()

    def _raw(self, X: np.ndarray) -> np.ndarray:
        """Objective value of each row of ``X``, as float64."""
        raise NotImplementedError

    def _instance_transform(self):
        if self.meta.instance == 1 or self.domain != "continuous":
            return 0.0, None
        seed = np.random.SeedSequence([INSTANCE_SEED, self.meta.problem_id, self.meta.instance])
        rng = np.random.default_rng(seed)
        offset = float(rng.uniform(-100.0, 100.0))
        shift = rng.uniform(-4.0, 4.0, self.meta.dimension)
        return offset, shift

    def _fresh_state(self) -> tuple:
        return 0, math.nan, self.direction.worst, math.nan, self.direction.worst

    @property
    def state(self) -> LogInfo:
        """The last evaluation of the run, or a count of 0 with the worst bests."""
        return LogInfo._make(self._last)

    def _coerce(self, X) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.meta.dimension:
            raise ValueError(
                f"{type(self).__name__} f{self.meta.problem_id} expects rows of "
                f"length {self.meta.dimension}, got an array of shape {X.shape}"
            )
        if self.domain == "continuous":
            # Row sums and dot products take their bits from the memory layout.
            return np.ascontiguousarray(X, dtype=float)
        # A bool is a bit already. Other dtypes are compared in their own dtype, because
        # casting X would truncate 0.5 or parse "1", and the comparisons allocate only bool
        # temporaries. The kernels take any of these dtypes, so X is not cast.
        if X.dtype != bool and (X.dtype.kind not in "iuf" or np.count_nonzero((X != 0) & (X != 1))):
            raise ValueError(f"{type(self).__name__} expects a 0/1 vector")
        return X

    def evaluate(self, X, until: Optional[float] = None) -> list:
        """Evaluate the rows of an ``(n, d)`` array in order; return their
        transformed qualities as a list of floats.

        With ``until`` given, the batch ends at the first row whose transformed
        quality is strictly better than ``until`` in the problem's direction (NaN
        never is): only the rows up to and including it are counted, logged and
        returned. The whole array is checked and computed either way.

        The rows kept reach the loggers as one :class:`~attainbench.loggers.Batch`,
        except that 20 rows reach them as two, rows 1-19 and then row 20 (see
        ``_SPLIT_20``); the loggers of this package record the same either way.
        """
        if self._torn_down:
            raise RuntimeError(f"evaluation after suite teardown: {self.meta}")
        X = self._coerce(X)
        raw = self._raw(X)
        if self._shift is None:
            values = raw = raw.tolist()
        else:
            X = X - self._shift  # drops a caller's temporary batch before the second kernel
            values = (self._raw(X) + self._offset).tolist()
            raw = raw.tolist()
        better = self.direction.better
        if until is not None:
            for n, value in enumerate(values, 1):
                if better(value, until):
                    del values[n:], raw[n:]
                    break
        if not values:
            return values
        count, _, raw_best, _, best = self._last
        shared = raw is values
        bests = _running_best(values, best, better)
        raw_bests = bests if shared else _running_best(raw, raw_best, better)
        n = len(values)
        self._last = count + n, raw[-1], raw_bests[-1], values[-1], bests[-1]
        for lo, hi in _SPLIT_20 if n == 20 else ((0, n),):
            transformed, transformed_bests = tuple(values[lo:hi]), tuple(bests[lo:hi])
            self._loggers.call(Batch(tuple(range(count + 1 + lo, count + 1 + hi)),
                                     transformed if shared else tuple(raw[lo:hi]),
                                     transformed_bests if shared else tuple(raw_bests[lo:hi]),
                                     transformed, transformed_bests))
        return values

    def __call__(self, solution) -> float:
        """Evaluate one solution and return its transformed quality."""
        return self.evaluate(np.asarray(solution)[None])[0]

    def reset(self) -> None:
        """Start a new run: notify loggers of the run boundary, clear state.

        Safe to call repeatedly; each call advances attached loggers' run
        index even if nothing was evaluated in between.
        """
        self._loggers.reset()
        self._last = self._fresh_state()

    def attach_logger(self, logger) -> None:
        """Register a logger; it is notified of this context immediately."""
        if any(lg is logger for lg in self._loggers.loggers):
            log.warning("logger %r already attached to %s; ignoring", logger, self.meta)
            return
        self._loggers.loggers.append(logger)
        logger.attach(self.meta)

    def detach_logger(self, logger) -> None:
        """Remove a logger; it receives no further notifications."""
        self._loggers.loggers = [lg for lg in self._loggers.loggers if lg is not logger]

    def teardown(self) -> None:
        self._torn_down = True


class Sphere(Problem):
    """Sum of squares; optimum 0 at the origin (before the instance shift)."""

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # Stacked matmul gives each row the bits of np.dot(x, x); einsum and
        # (X * X).sum(1) differ in the last place on some shapes.
        return (X[:, None, :] @ X[:, :, None])[:, 0, 0]


class Rastrigin(Problem):
    """Separable multimodal sum with cosine ripples; optimum 0 at the origin."""

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # 10 d + sum(x * x - 10 cos(2 pi x)), in place to hold fewer batch-sized temporaries.
        ripple = X * (2.0 * math.pi)
        np.cos(ripple, out=ripple)
        ripple *= 10.0
        square = X * X
        square -= ripple
        # np.add.reduce is what np.sum calls, less about 1.3 us of wrapping per call.
        return 10.0 * X.shape[1] + np.add.reduce(square, 1)


def _floats(counts: np.ndarray) -> np.ndarray:
    """``counts.astype(float)``, by way of Python ints. numpy's own cast of more than one
    element pages in about 64 KB of its code that nothing else in a boolean run uses."""
    return np.array(counts.tolist(), dtype=float)


class OneMax(Problem):
    """Number of one-bits; optimum equals the dimension."""

    domain = "boolean"
    direction = Direction.MAXIMIZATION

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # Summed in numpy's integer dtype for bits (X's own dtype if it is not bool): a float
        # dtype in the reduction would cast through numpy's iterator buffers, which raised
        # peak RSS by about 0.1-0.2 MB.
        return _floats(np.add.reduce(X, 1))


class LeadingOnes(Problem):
    """Length of the leading all-ones prefix."""

    domain = "boolean"
    direction = Direction.MAXIMIZATION

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # The first 0 of each row, found by argmin in any dtype, or d where the row's least
        # bit is 1. X.all(1) would do for that test, but its loop pages in 64 KB more of numpy.
        return _floats(np.where(np.minimum.reduce(X, 1), X.shape[1], X.argmin(1)))


class Suite:
    """Ordered cross product of problems, dimensions and instances.

    Iteration yields one freshly constructed problem per (problem,
    dimension, instance) cell, in that lexicographic order. Loggers attached
    to the suite are attached to each problem as iteration reaches it, so
    they see the attach notification before the cell's first evaluation.
    Moving past a problem tears the previous one down; evaluating a
    torn-down problem raises.
    """

    name = "suite"
    roster: dict = {}

    def __init__(self, problem_ids: Sequence[int], instances: Sequence[int],
                 dimensions: Sequence[int]):
        self.problem_ids = self._ordered("problem id", problem_ids)
        self.instances = self._ordered("instance", instances)
        self.dimensions = self._ordered("dimension", dimensions)
        unknown = [p for p in self.problem_ids if p not in self.roster]
        if unknown:
            raise ValueError(
                f"unknown problem id(s) {unknown} for suite {self.name!r}; "
                f"known: {sorted(self.roster)}"
            )
        self._loggers: list = []

    @staticmethod
    def _ordered(label: str, values: Sequence[int]) -> tuple:
        out = tuple(sorted({_as_whole(label, v, 1) for v in values}))
        if not out:
            raise ValueError(f"suite needs at least one {label}")
        return out

    def attach_logger(self, logger) -> None:
        if any(lg is logger for lg in self._loggers):
            log.warning("logger %r already attached to suite %s; ignoring", logger, self.name)
            return
        self._loggers.append(logger)

    def __len__(self) -> int:
        return len(self.problem_ids) * len(self.dimensions) * len(self.instances)

    def __iter__(self) -> Iterator[Problem]:
        previous = None
        try:
            for pid in self.problem_ids:
                for dim in self.dimensions:
                    for inst in self.instances:
                        if previous is not None:
                            previous.teardown()
                        problem = self.roster[pid](pid, inst, dim, suite_name=self.name)
                        for lg in self._loggers:
                            problem.attach_logger(lg)
                        previous = problem
                        yield problem
        finally:
            if previous is not None:
                previous.teardown()


class ContinuousSuite(Suite):
    """Sphere (1) and Rastrigin (2): minimization over real vectors."""

    name = "continuous"
    roster = {1: Sphere, 2: Rastrigin}


class PseudoBooleanSuite(Suite):
    """OneMax (1) and LeadingOnes (2): maximization over bit vectors."""

    name = "pseudo-boolean"
    roster = {1: OneMax, 2: LeadingOnes}


SUITES = {
    ContinuousSuite.name: ContinuousSuite,
    PseudoBooleanSuite.name: PseudoBooleanSuite,
}
