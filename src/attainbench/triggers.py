"""Predicates deciding when a logger records an event.

A trigger is a callable taking ``(info, meta)`` and returning a bool.
Stateful triggers carry per-run state and implement :meth:`Trigger.reset`,
which loggers invoke at run boundaries. Evaluation indices are 1-based: the
first objective call of a run reports ``evaluations == 1``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class Trigger:
    """Boolean predicate over (event snapshot, problem metadata)."""

    def __call__(self, info, meta) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore freshly-constructed state; called at run boundaries."""


class Always(Trigger):
    """Fires on every objective call."""

    def __call__(self, info, meta) -> bool:
        return True


class OnImprovement(Trigger):
    """Fires when the transformed value strictly improves on the best seen.

    The internal best starts at the direction's worst value, so the first
    evaluation of a run always fires; repeating the current best does not.
    """

    def __init__(self):
        self._best: Optional[float] = None

    def __call__(self, info, meta) -> bool:
        best = self._best if self._best is not None else meta.direction.worst
        if meta.direction.better(info.transformed_y, best):
            self._best = info.transformed_y
            return True
        return False

    def reset(self) -> None:
        self._best = None


class At(Trigger):
    """Fires at an explicit set of evaluation indices."""

    def __init__(self, indices: Iterable[int]):
        self.indices = frozenset(int(i) for i in indices)
        if any(i < 1 for i in self.indices):
            raise ValueError("evaluation indices are 1-based positive integers")

    def __call__(self, info, meta) -> bool:
        return info.evaluations in self.indices


class Each(Trigger):
    """Fires every ``interval`` evaluations, counted from ``start``."""

    def __init__(self, interval: int, start: int = 0):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.interval = int(interval)
        self.start = int(start)

    def __call__(self, info, meta) -> bool:
        e = info.evaluations
        return e >= self.start and (e - self.start) % self.interval == 0


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

    def __call__(self, info, meta) -> bool:
        e = info.evaluations
        return any(lo <= e <= hi for lo, hi in self.intervals)


class _Junction(Trigger):
    """Child triggers of :class:`Any` and :class:`All`.

    Every child is evaluated on every event (no short-circuiting) so that
    stateful children advance uniformly whatever their position in the list.
    """

    def __init__(self, triggers: Iterable[Trigger]):
        self.triggers = list(triggers)

    def reset(self) -> None:
        for t in self.triggers:
            t.reset()


class Any(_Junction):
    """Logical OR over child triggers; empty means never."""

    def __call__(self, info, meta) -> bool:
        # Every Watcher calls this per event; a list comprehension adds ~0.5 us here.
        fired = False
        for t in self.triggers:
            if t(info, meta):
                fired = True
        return fired


class All(_Junction):
    """Logical AND over child triggers; empty means always."""

    def __call__(self, info, meta) -> bool:
        return all([t(info, meta) for t in self.triggers])
