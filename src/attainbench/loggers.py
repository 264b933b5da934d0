"""Logger contract and the composite loggers built on it.

Problems push three notifications at attached loggers: ``attach`` when a new
(problem, dimension, instance) context begins, ``call`` with one
:class:`Batch` of objective evaluations and ``reset`` at run boundaries. A
batch holds its evaluations in order, one tuple per column; a single
evaluation is a batch of one. Run indices are zero-based and advance on
every reset, tracked per context so one logger can serve a whole suite.

A :class:`Logger` passes each batch through one gate: its triggers answer each
row, its properties are read on a batch that fires, and the gate hands on the
columns of the rows that fire. :class:`~attainbench.fileio.FlatFile` writes them
as they come. A :class:`Watcher` records them by column, per run:
the evaluation counts, then one column of readings per property, where a
reading is a ``float`` or ``None`` when absent. Every reader goes through
:meth:`Watcher.recorded`: :meth:`Watcher.events` turns its columns into one tuple per
event, ``(evaluations, *readings)``, and :class:`Store` looks one reading up in them by
cursor. The count column is the one copy of the evaluation count, so ``evaluations``
names no property.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional, Sequence

from .properties import Property, _as_whole, _check_distinct, _quoted
from .triggers import Any


class LogInfo(NamedTuple):
    """One evaluation: its count, values and the bests after it. A problem's
    ``state`` is its last one, and row ``i`` of a :class:`Batch` is one.

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


class Batch(NamedTuple):
    """Consecutive evaluations handed to loggers in one ``call``, by column.

    Row ``i`` of the batch is the :class:`LogInfo` made of each column's
    ``i``-th entry. Counts are ``int`` and values ``float``, and each row's
    bests already include that row. Every column is a tuple, so each logger
    that is handed a batch, or keeps it, sees the values as they were logged.
    """

    evaluations: tuple
    raw_y: tuple
    raw_y_best: tuple
    transformed_y: tuple
    transformed_y_best: tuple


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
    """Address of one logged event inside a :class:`Store`. The ids and the dimension
    are integers from 1, the run and the event index from 0, as
    :func:`~attainbench.properties._as_whole` takes them."""

    suite_name: str
    problem_id: int
    dimension: int
    instance: int
    run: int = 0
    event_index: int = 0

    def __post_init__(self):
        for field, least in (("problem_id", 1), ("dimension", 1), ("instance", 1),
                             ("run", 0), ("event_index", 0)):
            object.__setattr__(self, field, _as_whole(field, getattr(self, field), least))


class Logger:
    """Base logger: tracks the active context, each context's metadata and
    zero-based run indices, and holds the triggers and properties that gate a batch.

    The triggers are joined into one :class:`~attainbench.triggers.Any`,
    :attr:`trigger`, whose state is cleared at run boundaries and when a context
    attaches; nest an ``All`` for all-of behaviour. Properties, whose names must be
    distinct, are read once per batch that fires. :meth:`_gate` is the one gate of a
    batch for :class:`Watcher` and :class:`~attainbench.fileio.FlatFile`.

    Subclasses implement the ``_on_*`` hooks; the base class guarantees that
    ``call`` is rejected before the first ``attach`` and that every ``reset``
    advances the run index of the context it arrived in.
    """

    def __init__(self, triggers: Sequence = (), properties: Sequence[Property] = ()):
        self._cell: Optional[CellKey] = None
        self._metas: dict[CellKey, object] = {}
        self._run_index: dict[CellKey, int] = {}
        self.trigger = Any(triggers)
        self.properties = list(properties)
        _check_distinct(self.property_names)

    @property
    def current_run(self) -> int:
        return self._run_index.get(self._cell, 0)

    @property
    def property_names(self) -> list:
        return [p.name for p in self.properties]

    def attach(self, meta) -> None:
        self._cell = cell_key(meta)
        self._run_index.setdefault(self._cell, 0)
        self._metas[self._cell] = meta
        self.trigger.reset()
        self._on_attach(meta)

    def call(self, batch: Batch) -> None:
        if self._cell is None:
            raise RuntimeError(
                f"{type(self).__name__}.call() before attach(); attach the logger to a problem first"
            )
        self._on_call(batch)

    def reset(self) -> None:
        if self._cell is not None:
            self._run_index[self._cell] += 1
        self.trigger.reset()
        self._on_reset()

    def _on_attach(self, meta) -> None:
        pass

    def _on_call(self, batch: Batch) -> None:
        pass

    def _on_reset(self) -> None:
        pass

    def _gate(self, batch: Batch) -> Optional[list]:
        """The columns of a batch's rows that fire, ``[counts, *readings]`` with one list
        of readings per property, or ``None`` when no row fires. A property that does not
        answer once per row is rejected before anything of the batch is kept."""
        fired = self.trigger(batch, self._metas[self._cell])
        if True not in fired:
            return None
        readings = [prop(batch) for prop in self.properties]
        for prop, reading in zip(self.properties, readings):
            if len(reading) != len(fired):
                raise ValueError(f"property {_quoted(prop.name)} gave {len(reading)} reading(s) "
                                 f"for {len(fired)} row(s) from evaluation "
                                 f"{batch.evaluations[0]}")
        return [list(compress(column, fired)) for column in (batch.evaluations, *readings)]


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

    def call(self, batch: Batch) -> None:
        for lg in self.loggers:
            lg.call(batch)

    def reset(self) -> None:
        for lg in self.loggers:
            lg.reset()


class Watcher(Logger):
    """Logger that records the rows its triggers fire on.

    A trigger or property that does not answer once per row of a batch is
    rejected before anything of that batch is recorded. Only a ``call`` adds to
    the record, and :meth:`recorded` is the one way to read it.
    """

    def __init__(self, triggers: Sequence, properties: Sequence[Property] = ()):
        super().__init__(triggers, properties)
        self._cells: dict[CellKey, dict[int, list[list]]] = {}

    def _on_call(self, batch: Batch) -> None:
        columns = self._gate(batch)
        if columns:
            runs = self._cells.setdefault(self._cell, {})
            # The columns of a run's first batch that fires become its record.
            recorded = runs.setdefault(self.current_run, columns)
            if recorded is not columns:
                for column, fired in zip(recorded, columns):
                    column.extend(fired)

    def cells(self) -> list:
        """Benchmark cells with at least one recorded event, sorted."""
        return sorted(self._cells)

    def runs(self, cell: CellKey) -> list:
        return sorted(self._cells.get(cell, ()))

    def recorded(self, cell: CellKey, run: int) -> list:
        """One run's counts, then its readings per property, each the list this watcher
        records into, in event order; not a copy, so a caller must not change them."""
        return self._cells.get(cell, {}).get(run) or [[] for _ in range(1 + len(self.properties))]

    def events(self, cell: CellKey, run: int) -> list:
        """One run's events in order, each the tuple ``(evaluations, *readings)``, built
        from :meth:`recorded`."""
        return list(zip(*self.recorded(cell, run)))


class Store(Watcher):
    """Watcher whose recorded events are addressable by cursor.

    :meth:`at` resolves a cursor to a single reading of :meth:`recorded`; an event or
    property the cursor fails to address comes back absent rather than raising.
    """

    def at(self, cursor: Cursor, prop) -> Optional[float]:
        """Reading of ``prop`` (a property or its name) at one event.

        Returns ``None`` when the cursor points past the recorded data or
        the property was not watched; ``"evaluations"``, the event's count,
        is always resolvable on a recorded event.
        """
        name = prop.name if isinstance(prop, Property) else str(prop)
        columns = self.recorded(cell_key(cursor), cursor.run)
        if cursor.event_index >= len(columns[0]):
            return None
        if name == "evaluations":
            return float(columns[0][cursor.event_index])
        names = self.property_names
        return columns[names.index(name) + 1][cursor.event_index] if name in names else None
