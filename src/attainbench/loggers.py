"""Logger contract and the composite loggers built on it.

Problems push three notifications at attached loggers: ``attach`` when a new
(problem, dimension, instance) context begins, ``call`` for every objective
evaluation (carrying a :class:`LogInfo` snapshot) and ``reset`` at run
boundaries. Run indices are zero-based and advance on every reset, tracked
per context so one logger can serve a whole suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .properties import ABSENT, LoggedValue, Property

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogInfo:
    """Per-evaluation snapshot handed to loggers.

    Best values are already updated for the evaluation being reported, so a
    strict improvement shows up as ``transformed_y == transformed_y_best``.
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
    def meta(self):
        """Metadata of the context currently attached, or None."""
        return self._meta

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

    The trigger list has any-of semantics: one firing trigger is enough to
    record the event. Every trigger is evaluated on every event regardless,
    so stateful triggers (improvement tracking) advance uniformly; use the
    trigger combinators for all-of behaviour. Trigger state is cleared at
    run boundaries and when a new context attaches.

    Recorded entries are grouped by benchmark cell and zero-based run index,
    in the order they were logged; subclasses say what one entry is.

    Property names must be unique within one watcher. The evaluation count
    is always captured alongside the watched properties.
    """

    def __init__(self, triggers: Sequence, properties: Sequence[Property] = ()):
        super().__init__()
        self.triggers = list(triggers)
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
        self._reset_triggers()

    def _reset_triggers(self) -> None:
        for t in self.triggers:
            t.reset()

    _on_reset = _reset_triggers

    def _on_call(self, info: LogInfo) -> None:
        fired = [t(info, self._meta) for t in self.triggers]
        if any(fired):
            values = {p.name: p(info) for p in self.properties}
            runs = self._cells.setdefault(self._cell, {})
            runs.setdefault(self._run_index[self._cell], []).append(self._entry(info, values))

    def _entry(self, info: LogInfo, values: dict):
        """The entry recorded for one event that fired."""
        raise NotImplementedError

    def cells(self) -> list:
        """Benchmark cells with at least one recorded entry, sorted."""
        return sorted(self._cells)

    def runs(self, cell: CellKey) -> list:
        return sorted(self._cells.get(cell, ()))

    def events(self, cell: CellKey, run: int) -> list:
        return list(self._cells.get(cell, {}).get(run, ()))


@dataclass
class Record:
    """One logged event: the evaluation count plus the watched readings."""

    evaluations: int
    values: dict


class Store(Watcher):
    """Watcher keeping one :class:`Record` per event, addressable by cursor.

    :meth:`at` resolves a cursor to a single reading; anything the cursor
    fails to address comes back absent rather than raising.
    """

    def _entry(self, info: LogInfo, values: dict) -> Record:
        return Record(int(info.evaluations), values)

    def at(self, cursor: Cursor, prop) -> LoggedValue:
        """Reading of ``prop`` (a property or its name) at one event.

        Returns :data:`ABSENT` when the cursor points past the recorded
        data or the property was not watched; ``"evaluations"`` is always
        resolvable on a recorded event.
        """
        name = prop.name if isinstance(prop, Property) else str(prop)
        cell = CellKey(cursor.suite_name, cursor.problem_id, cursor.dimension, cursor.instance)
        events = self._cells.get(cell, {}).get(cursor.run)
        if not events or not 0 <= cursor.event_index < len(events):
            return ABSENT
        record = events[cursor.event_index]
        if name in record.values:
            return record.values[name]
        if name == "evaluations":
            return LoggedValue.of(float(record.evaluations))
        return ABSENT
