"""Predicates deciding when a logger records an event.

A trigger is a callable taking ``(batch, meta)``, a
:class:`~attainbench.loggers.Batch` of consecutive evaluations and the
problem's metadata, and returning one bool per row of the batch, in order.
Stateful triggers carry per-run state across batches and implement
:meth:`Trigger.reset`, which loggers invoke at run boundaries. Evaluation
indices are 1-based: the first objective call of a run reports
``evaluations == 1``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence


class Trigger:
    """Boolean predicate over the rows of a batch, given the problem metadata."""

    def __call__(self, batch, meta) -> list:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore freshly-constructed state; called at run boundaries."""


class Always(Trigger):
    """Fires on every objective call."""

    def __call__(self, batch, meta) -> list:
        return [True] * len(batch.evaluations)


class OnImprovement(Trigger):
    """Fires when the transformed value strictly improves on the best seen.

    The internal best starts at the direction's worst value, so the first
    evaluation of a run always fires; repeating the current best does not,
    and neither does NaN.
    """

    def __init__(self):
        self._best: Optional[float] = None

    def __call__(self, batch, meta) -> list:
        better = meta.direction.better
        best = meta.direction.worst if self._best is None else self._best
        fired = []
        for y in batch.transformed_y:
            if better(y, best):
                best = y
                fired.append(True)
            else:
                fired.append(False)
        self._best = best
        return fired

    def reset(self) -> None:
        self._best = None


class At(Trigger):
    """Fires at an explicit set of evaluation indices."""

    def __init__(self, indices: Iterable[int]):
        self.indices = frozenset(int(i) for i in indices)
        if any(i < 1 for i in self.indices):
            raise ValueError("evaluation indices are 1-based positive integers")

    def __call__(self, batch, meta) -> list:
        return [e in self.indices for e in batch.evaluations]


class Each(Trigger):
    """Fires every ``interval`` evaluations, counted from ``start``."""

    def __init__(self, interval: int, start: int = 0):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.interval = int(interval)
        self.start = int(start)

    def __call__(self, batch, meta) -> list:
        start, interval = self.start, self.interval
        return [e >= start and (e - start) % interval == 0 for e in batch.evaluations]


class During(Trigger):
    """Fires inside any of the given closed evaluation ranges."""

    def __init__(self, intervals: Iterable[Sequence[int]]):
        spans = []
        for span in intervals:
            lo, hi = (int(v) for v in span)
            if lo < 1:
                raise ValueError("evaluation indices are 1-based positive integers")
            if hi < lo:
                raise ValueError(f"empty range [{lo}, {hi}]")
            spans.append((lo, hi))
        self.intervals = tuple(spans)

    def __call__(self, batch, meta) -> list:
        return [any(lo <= e <= hi for lo, hi in self.intervals) for e in batch.evaluations]


class _Junction(Trigger):
    """Child triggers of :class:`Any` and :class:`All`, joined row by row.

    Every child is evaluated on every batch (no short-circuiting) so that
    stateful children advance uniformly whatever their position in the list.
    """

    _empty: bool  # the result with no children
    _join: object  # joins two rows' results, a builtin so it does not bind

    def __init__(self, triggers: Iterable[Trigger]):
        self.triggers = list(triggers)

    def __call__(self, batch, meta) -> list:
        fired, n = None, len(batch.evaluations)
        for t in self.triggers:
            mask = t(batch, meta)
            if len(mask) != n:
                first = batch.evaluations[0] if n else None
                raise ValueError(f"trigger {type(t).__name__} gave {len(mask)} answer(s) for "
                                 f"{n} row(s) from evaluation {first}")
            fired = mask if fired is None else list(map(self._join, fired, mask))
        return [self._empty] * n if fired is None else fired

    def reset(self) -> None:
        for t in self.triggers:
            t.reset()


class Any(_Junction):
    """Logical OR over child triggers; empty means never."""

    _empty = False
    _join = operator.or_


class All(_Junction):
    """Logical AND over child triggers; empty means always."""

    _empty = True
    _join = operator.and_
