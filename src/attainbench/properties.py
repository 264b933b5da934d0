"""Watchable quantities recorded by loggers.

A property is a named accessor that maps each row of a
:class:`~attainbench.loggers.Batch` to a scalar reading: a ``float``, or
``None`` when the reading is absent. It returns the readings of a whole
batch as one tuple, in row order. A detached external
binding reads ``None``, never a stale or made-up number, and file backends
render it as the ``NA`` token; a present NaN stays a float. ``evaluations``
is a reserved name, because every logged event carries that count already.
"""

from __future__ import annotations

import numbers
from typing import Callable, Optional, Sequence


def _whole(value, least: int) -> bool:
    """Whether ``value`` is an integer in [least, 2**63): an ``int``, a numpy integer or
    an integral real, never a ``bool`` or a ``str``, compared exactly, not as float64."""
    real = type(value) is int or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return real and int(value) == value and least <= int(value) < 2**63
    except (OverflowError, ValueError):  # inf, NaN
        return False


def _as_whole(what: str, value, least: int) -> int:
    """``value`` as an ``int`` if :func:`_whole` holds, else a ``ValueError`` naming it."""
    if _whole(value, least):
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer in [{least}, 2**63)")


def _check_distinct(names: Sequence[str]) -> None:
    """Reject property names that are not distinct: each heads its own flat-file column."""
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate property name(s): {duplicates}")


class Property:
    """Named accessor producing one ``float`` reading, or ``None``, per batch row.

    The name heads a flat-file column: it must be non-empty, other than the
    fixed count column ``evaluations`` and free of ``,``, ``"``, CR and LF.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("property name must be non-empty")
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"property name {name!r} contains a comma, quote or line break")
        if name == "evaluations":
            raise ValueError(f"property name {name!r} is reserved for the evaluation count")
        self.name = name

    def __call__(self, batch) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class _Field(Property):
    """Reads the :class:`~attainbench.loggers.Batch` column named by the
    subclass's ``field``, which is also the default property name."""

    field: str

    def __init__(self, name: Optional[str] = None):
        super().__init__(self.field if name is None else name)

    def __call__(self, batch) -> tuple:
        return getattr(batch, self.field)


class RawY(_Field):
    """Objective value of the current solution, before the instance transformation."""

    field = "raw_y"


class RawYBest(_Field):
    """Best untransformed value seen so far in the run."""

    field = "raw_y_best"


class TransformedY(_Field):
    """Objective value of the current solution on the instance actually run."""

    field = "transformed_y"


class TransformedYBest(_Field):
    """Best transformed value seen so far in the run."""

    field = "transformed_y_best"


class External(Property):
    """Watches a value owned by the host program.

    The value is pulled through ``getter`` (a zero-argument callable) each
    time the property is read, which is once per logged batch: every row of
    one batch reads the host variable as it was when the batch was logged, not
    at attach time. A single evaluation is a batch of one, and a 20-row
    :meth:`~attainbench.problems.Problem.evaluate` logs two batches, so it
    reads the getter twice, at the same moment. :meth:`detach`
    disables the binding, after which reads are ``None``; :meth:`rebind`
    points the property at a different host value mid-run, and subsequent
    reads track the new target.
    """

    def __init__(self, name: str, getter: Optional[Callable[[], float]] = None):
        super().__init__(name)
        self._getter = getter

    @property
    def detached(self) -> bool:
        return self._getter is None

    def detach(self) -> None:
        self._getter = None

    def rebind(self, getter: Callable[[], float]) -> None:
        if getter is None:
            raise ValueError("rebind target must be callable; use detach() to disable the binding")
        self._getter = getter

    def __call__(self, batch) -> tuple:
        reading = None if self._getter is None else float(self._getter())
        return (reading,) * len(batch.evaluations)
