"""Synthetic benchmark problems and the suites that iterate them.

Two small families are provided: continuous minimization over real vectors
(Sphere, Rastrigin) and pseudo-Boolean maximization over bit vectors
(OneMax, LeadingOnes). Problems count evaluations from 1, track raw and
transformed bests, and notify attached loggers on every call.

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
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .loggers import Combine, LogInfo

log = logging.getLogger(__name__)

#: Fixed constant mixed with (problem_id, instance) to seed the instance
#: transformation stream. Published so independent implementations can
#: reproduce the same instances: the stream is numpy's PCG64 seeded with
#: SeedSequence([INSTANCE_SEED, problem_id, instance]); the first draw is
#: the objective offset, uniform on [-100, 100], and the next ``dimension``
#: draws are the optimum shift, uniform on [-4, 4] per coordinate.
INSTANCE_SEED = 987654321


class Direction(Enum):
    """Optimization sense; quality comparisons flip with it, time never does."""

    MINIMIZATION = "min"
    MAXIMIZATION = "max"

    @property
    def worst(self) -> float:
        return math.inf if self is Direction.MINIMIZATION else -math.inf

    def better(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly better than ``b``."""
        return a < b if self is Direction.MINIMIZATION else a > b


@dataclass(frozen=True)
class MetaData:
    """Identity of a benchmark context, carried on every attach notification."""

    suite_name: str
    problem_id: int
    instance: int
    dimension: int
    direction: Direction

    def __post_init__(self):
        if self.problem_id < 1:
            raise ValueError(f"problem_id must be >= 1, got {self.problem_id}")
        if self.instance < 1:
            raise ValueError(f"instance must be >= 1, got {self.instance}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")


class Problem:
    """Base objective function with evaluation counting and logging hooks.

    Calling the problem with a solution vector evaluates it and returns the
    transformed quality. Each call builds the :class:`LogInfo` of that
    evaluation (counter incremented, bests already updated), keeps it as
    :attr:`state` and hands it to one :class:`Combine` of the attached loggers.

    A problem object is not thread-safe; concurrent use is supported across
    distinct problem objects, which share no mutable state.
    """

    domain = "continuous"
    direction = Direction.MINIMIZATION
    lower = -5.0
    upper = 5.0

    def __init__(self, problem_id: int, instance: int = 1, dimension: int = 2,
                 suite_name: str = "adhoc"):
        self.meta = MetaData(suite_name, problem_id, instance, dimension, self.direction)
        self.state = self._fresh_state()
        self._loggers = Combine()
        self._torn_down = False
        self._offset, self._shift = self._instance_transform()

    def _raw(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _instance_transform(self):
        if self.meta.instance == 1 or self.domain != "continuous":
            return 0.0, None
        seed = np.random.SeedSequence([INSTANCE_SEED, self.meta.problem_id, self.meta.instance])
        rng = np.random.default_rng(seed)
        offset = float(rng.uniform(-100.0, 100.0))
        shift = rng.uniform(-4.0, 4.0, self.meta.dimension)
        return offset, shift

    def _transformed(self, x: np.ndarray, raw: float) -> float:
        if self._shift is None:
            return raw
        return self._raw(x - self._shift) + self._offset

    def _fresh_state(self) -> LogInfo:
        worst = self.direction.worst
        return LogInfo(raw_y_best=worst, transformed_y_best=worst)

    def _coerce(self, solution) -> np.ndarray:
        x = np.asarray(solution)
        if x.ndim != 1 or x.size != self.meta.dimension:
            raise ValueError(
                f"{type(self).__name__} f{self.meta.problem_id} expects a vector of "
                f"length {self.meta.dimension}, got shape {x.shape}"
            )
        if self.domain == "continuous":
            return x.astype(float, copy=False)
        # Checked before the cast, which would truncate 0.5 or parse "1".
        if not ((x == 0) | (x == 1)).all():
            raise ValueError(f"{type(self).__name__} expects a 0/1 vector")
        return x.astype(int, copy=False)

    def __call__(self, solution) -> float:
        """Evaluate one solution and return its transformed quality."""
        if self._torn_down:
            raise RuntimeError(f"evaluation after suite teardown: {self.meta}")
        x = self._coerce(solution)
        raw = float(self._raw(x))
        transformed = float(self._transformed(x, raw))
        st = self.state
        better = self.direction.better
        raw_best = raw if better(raw, st.raw_y_best) else st.raw_y_best
        best = transformed if better(transformed, st.transformed_y_best) else st.transformed_y_best
        self.state = info = LogInfo(st.evaluations + 1, raw, raw_best, transformed, best)
        self._loggers.call(info)
        return transformed

    def reset(self) -> None:
        """Start a new run: notify loggers of the run boundary, clear state.

        Safe to call repeatedly; each call advances attached loggers' run
        index even if nothing was evaluated in between.
        """
        self._loggers.reset()
        self.state = self._fresh_state()

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

    def _raw(self, x: np.ndarray) -> float:
        return float(np.dot(x, x))


class Rastrigin(Problem):
    """Separable multimodal sum with cosine ripples; optimum 0 at the origin."""

    def _raw(self, x: np.ndarray) -> float:
        return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


class OneMax(Problem):
    """Number of one-bits; optimum equals the dimension."""

    domain = "boolean"
    direction = Direction.MAXIMIZATION

    def _raw(self, x: np.ndarray) -> float:
        return float(np.sum(x))


class LeadingOnes(Problem):
    """Length of the leading all-ones prefix."""

    domain = "boolean"
    direction = Direction.MAXIMIZATION

    def _raw(self, x: np.ndarray) -> float:
        zeros = np.flatnonzero(x == 0)
        return float(zeros[0] if zeros.size else x.size)


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
        out = sorted({int(v) for v in values})
        if not out:
            raise ValueError(f"suite needs at least one {label}")
        if out[0] < 1:
            raise ValueError(f"{label}s must be >= 1, got {out[0]}")
        return tuple(out)

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
