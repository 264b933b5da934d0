"""Watchable quantities recorded by loggers.

A property is a named accessor that maps a log event to a scalar reading:
a ``float``, or ``None`` when the reading is absent. A detached external
binding reads ``None``, never a stale or made-up number, and file backends
render it as the ``NA`` token; a present NaN stays a float. ``evaluations``
is a reserved name, because every logged event carries that count already.
"""

from __future__ import annotations

from typing import Callable, Optional


class Property:
    """Named accessor producing a ``float`` reading, or ``None``, from a log event.

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

    def __call__(self, info) -> Optional[float]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class _Field(Property):
    """Reads the :class:`LogInfo` field named by the subclass's ``field``,
    which is also the default property name."""

    field: str

    def __init__(self, name: Optional[str] = None):
        super().__init__(self.field if name is None else name)

    def __call__(self, info) -> float:
        return float(getattr(info, self.field))


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
    time the property is read, so recorded numbers reflect the host variable
    at the moment the event fired, not at attach time. :meth:`detach`
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

    def __call__(self, info) -> Optional[float]:
        if self._getter is None:
            return None
        return float(self._getter())
