"""Logger contract and the composite loggers built on it.

Problems push three notifications at attached loggers: ``attach`` when a new
(problem, dimension, instance) context begins, ``call`` for every objective
evaluation (carrying a :class:`LogInfo` snapshot) and ``reset`` at run
boundaries. Run indices are zero-based and advance on every reset, tracked
per context so one logger can serve a whole suite.

A :class:`Watcher` records each event its triggers fire on as one tuple,
``(evaluations, *readings)``, where a reading is a ``float`` or ``None``
when absent; :class:`Store` looks one reading up by cursor. Slot 0 is the
one copy of the evaluation count, so ``evaluations`` names no property.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .properties import Property
from .triggers import Any

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogInfo:
    """Per-evaluation snapshot handed to loggers.

    Best values are already updated for the evaluation being reported, so a
    strict improvement shows up as ``transformed_y == transformed_y_best``; so
    does a tie with the best, which is why
    :class:`~attainbench.triggers.OnImprovement` keeps its own best.
    """

    evaluations: int = 0
    raw_y: float = float("nan")
    raw_y_best: float = float("nan")
    transformed_y: float = float("nan")
    transformed_y_best: float = float("nan")


class CellKey(NamedTuple):
    """Identity of one (suite, problem, dimension, instance) benchmark cell."""

    suite_name: str
    problem_id: int
    dimension: int
    instance: int


def cell_key(meta) -> CellKey:
    return CellKey(meta.suite_name, meta.problem_id, meta.dimension, meta.instance)


@dataclass(frozen=True)
class Cursor:
    """Address of one logged event inside a :class:`Store`."""

    suite_name: str
    problem_id: int
    dimension: int
    instance: int
    run: int = 0
    event_index: int = 0


class Logger:
    """Base logger: tracks the active context and zero-based run indices.

    Subclasses implement the ``_on_*`` hooks; the base class guarantees that
    ``call`` is rejected before the first ``attach`` and that every ``reset``
    advances the run index of the context it arrived in.
    """

    def __init__(self):
        self._meta = None
        self._cell: Optional[CellKey] = None
        self._run_index: dict[CellKey, int] = {}

    @property
    def current_run(self) -> int:
        if self._meta is None:
            return 0
        return self._run_index[self._cell]

    def attach(self, meta) -> None:
        self._cell = cell_key(meta)
        self._run_index.setdefault(self._cell, 0)
        self._meta = meta
        self._on_attach(meta)

    def call(self, info: LogInfo) -> None:
        if self._meta is None:
            raise RuntimeError(
                f"{type(self).__name__}.call() before attach(); attach the logger to a problem first"
            )
        self._on_call(info)

    def reset(self) -> None:
        if self._meta is not None:
            self._run_index[self._cell] += 1
        self._on_reset()

    def _on_attach(self, meta) -> None:
        pass

    def _on_call(self, info: LogInfo) -> None:
        pass

    def _on_reset(self) -> None:
        pass


class Combine:
    """Fans every notification out to an ordered list of child loggers.

    Children are notified in list order and keep fully independent state; the
    same child listed twice receives every event twice.
    """

    def __init__(self, loggers: Sequence = ()):
        self.loggers = list(loggers)

    def attach(self, meta) -> None:
        for lg in self.loggers:
            lg.attach(meta)

    def call(self, info: LogInfo) -> None:
        for lg in self.loggers:
            lg.call(info)

    def reset(self) -> None:
        for lg in self.loggers:
            lg.reset()


class Watcher(Logger):
    """Logger gated by triggers, recording a fixed set of properties.

    The trigger list becomes one :class:`~attainbench.triggers.Any`,
    :attr:`trigger`, which evaluates every trigger on every event, so stateful
    triggers (improvement tracking) advance uniformly; nest an ``All`` for
    all-of behaviour. Trigger state is cleared at run boundaries and when a
    new context attaches.

    Each event that fires is recorded as one tuple, ``(evaluations,
    *readings)``: the evaluation count as an ``int``, then one reading per
    property in :attr:`property_names` order. Tuples are grouped by benchmark
    cell and zero-based run index, in the order they were logged.

    Property names must be unique within one watcher.
    """

    def __init__(self, triggers: Sequence, properties: Sequence[Property] = ()):
        super().__init__()
        self.trigger = Any(triggers)
        self.properties = list(properties)
        names = [p.name for p in self.properties]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate property name(s) in one watcher: {duplicates}")
        self._cells: dict[CellKey, dict[int, list]] = {}

    @property
    def property_names(self) -> list:
        return [p.name for p in self.properties]

    def _on_attach(self, meta) -> None:
        self.trigger.reset()

    def _on_reset(self) -> None:
        self.trigger.reset()

    def _on_call(self, info: LogInfo) -> None:
        if self.trigger(info, self._meta):
            runs = self._cells.setdefault(self._cell, {})
            runs.setdefault(self._run_index[self._cell], []).append(
                (int(info.evaluations), *[p(info) for p in self.properties]))

    def cells(self) -> list:
        """Benchmark cells with at least one recorded event, sorted."""
        return sorted(self._cells)

    def runs(self, cell: CellKey) -> list:
        return sorted(self._cells.get(cell, ()))

    def events(self, cell: CellKey, run: int) -> list:
        return list(self._cells.get(cell, {}).get(run, ()))


class Store(Watcher):
    """Watcher whose recorded events are addressable by cursor.

    :meth:`at` resolves a cursor to a single reading; anything the cursor
    fails to address comes back absent rather than raising.
    """

    def at(self, cursor: Cursor, prop) -> Optional[float]:
        """Reading of ``prop`` (a property or its name) at one event.

        Returns ``None`` when the cursor points past the recorded data or
        the property was not watched; ``"evaluations"``, the event's count,
        is always resolvable on a recorded event.
        """
        name = prop.name if isinstance(prop, Property) else str(prop)
        cell = CellKey(cursor.suite_name, cursor.problem_id, cursor.dimension, cursor.instance)
        events = self._cells.get(cell, {}).get(cursor.run)
        if not events or not 0 <= cursor.event_index < len(events):
            return None
        event = events[cursor.event_index]
        if name == "evaluations":
            return float(event[0])
        names = self.property_names
        return event[names.index(name) + 1] if name in names else None
