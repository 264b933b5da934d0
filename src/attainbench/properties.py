"""Watchable quantities recorded by loggers.

A property is a named accessor that maps each row of a
:class:`~attainbench.loggers.Batch` to a scalar reading: a ``float``, or
``None`` when the reading is absent. It returns the readings of a whole
batch as one tuple, in row order. A detached external
binding reads ``None``, never a stale or made-up number, and file backends
render it as the ``NA`` token; a present NaN stays a float. ``evaluations``
is a reserved name, because every logged event carries that count already.

:func:`_quoted` is the package's one rule for quoting an input in a message: every
raised message that quotes a value the caller or a file gave, the command line's
included, quotes it through this function, bounded and never failing. It cuts a long
``repr`` by :func:`_cut`, which keeps a text's head and states its full length, and the
command line cuts every message it prints by the same function, at a bound above two
quoted values.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional, Sequence


def _real(value) -> bool:
    """Whether ``value`` is a finite real number: a ``numbers.Real`` such as an ``int``, a
    ``float``, a numpy integer or float or a ``Fraction``, never a ``bool``, and finite as
    float64 reads it, so an ``int`` beyond float64 is not."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int or Fraction beyond float64
        return False


def _whole(value, least: int) -> bool:
    """Whether ``value`` is an integer in [least, 2**63): an ``int``, a numpy integer or
    an integral real that :func:`_real` takes, compared exactly, not as float64."""
    return _real(value) and int(value) == value and least <= int(value) < 2**63


def _as_whole(what: str, value, least: int) -> int:
    """``value`` as an ``int`` if :func:`_whole` holds, else a ``ValueError`` naming it."""
    if _whole(value, least):
        return int(value)
    raise ValueError(f"{what} {_quoted(value)} is not an integer in [{least}, 2**63)")


#: The most characters of a value's ``repr`` that :func:`_quoted` gives: a quoted cell
#: of 5,000 digits (5,002 characters), past Python's own limit for ``int`` text, stays whole.
_QUOTED = 10_000


def _quoted(value) -> str:
    """``repr(value)`` for a message, never raising: cut to :data:`_QUOTED` characters
    with its full length stated if longer, and naming the value's type if ``repr`` raises."""
    try:
        text = repr(value)
    except Exception as exc:  # a host value's repr may raise anything, a message must not
        text = f"<{type(value).__name__} whose repr raised {type(exc).__name__}>"
    return _cut(text, _QUOTED)


def _cut(text: str, most: int) -> str:
    """``text`` if it has at most ``most`` characters, else its first ``most`` followed by
    ``... (N characters in all)``."""
    return text if len(text) <= most else f"{text[:most]}... ({len(text)} characters in all)"


def _check_distinct(names: Sequence[str]) -> None:
    """Reject property names that are not distinct: each heads its own flat-file column."""
    seen, duplicates = set(), set()
    for name in names:
        (duplicates if name in seen else seen).add(name)
    if duplicates:
        raise ValueError(f"duplicate property name(s): {_quoted(sorted(duplicates))}")


class Property:
    """Named accessor producing one ``float`` reading, or ``None``, per batch row.

    The name heads a flat-file column: it must be non-empty, other than the
    fixed count column ``evaluations`` and free of ``,``, ``"``, CR and LF.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("property name must be non-empty")
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"property name {_quoted(name)} contains a comma, quote or line break")
        if name == "evaluations":
            raise ValueError(f"property name {_quoted(name)} is reserved for the evaluation count")
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
    reads track the new target. A host value must be a real number, which is read as a
    ``float``; text, a ``bool`` or ``None`` is rejected, and :meth:`detach` is the one
    way to read ``None``.
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
        reading = None if self._getter is None else _reading(self.name, self._getter())
        return (reading,) * len(batch.evaluations)


def _reading(name: str, value) -> float:
    """``value``, a host value read for the property ``name``, as a ``float``: it must be
    a ``numbers.Real`` that is not a ``bool`` and that float64 holds, NaN and infinities
    included. Anything else, text and ``None`` too, is a ``ValueError`` naming both, each
    quoted by :func:`_quoted`."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int or Fraction beyond float64
        pass
    raise ValueError(f"property {_quoted(name)} read {_quoted(value)}, which is not a real "
                     "number that float64 holds")
