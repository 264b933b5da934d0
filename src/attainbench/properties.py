"""Watchable quantities recorded by loggers.

A property is a named accessor that maps a log event to a scalar reading.
The result is a :class:`LoggedValue`, which keeps absence explicit: a
detached external binding yields the absent value, never a stale or made-up
number, and file backends render it as the ``NA`` token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class LoggedValue:
    """A possibly-absent scalar reading."""

    present: bool
    value: float = float("nan")

    @classmethod
    def of(cls, value: float) -> "LoggedValue":
        return cls(True, value)


#: The one reading that carries no number.
ABSENT = LoggedValue(False)


class Property:
    """Named accessor producing a :class:`LoggedValue` from a log event."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("property name must be non-empty")
        self.name = name

    def __call__(self, info) -> LoggedValue:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class _Field(Property):
    """Reads the :class:`LogInfo` field named by the subclass's ``field``,
    which is also the default property name."""

    field: str

    def __init__(self, name: Optional[str] = None):
        super().__init__(self.field if name is None else name)

    def __call__(self, info) -> LoggedValue:
        return LoggedValue.of(float(getattr(info, self.field)))


class Evaluations(_Field):
    """Number of objective calls made so far in the current run."""

    field = "evaluations"


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
    at the moment the event fired, not at attach time.

    Binding capabilities mirror how host code may manage the watched value:

    * fixed (``detachable=False``): constructed with a getter that stays in
      place for the property's lifetime; reads always succeed;
    * detachable: :meth:`detach` disables the binding, after which reads
      yield :data:`ABSENT`;
    * rebindable: :meth:`rebind` points the property at a different host
      value mid-run; subsequent reads track the new target.
    """

    def __init__(
        self,
        name: str,
        getter: Optional[Callable[[], float]] = None,
        *,
        detachable: bool = True,
        rebindable: bool = True,
    ):
        super().__init__(name)
        if getter is None and not detachable:
            raise ValueError(f"property {name!r}: a non-detachable binding needs a getter")
        self._getter = getter
        self._detachable = detachable
        self._rebindable = rebindable

    @property
    def detached(self) -> bool:
        return self._getter is None

    def detach(self) -> None:
        if not self._detachable:
            raise ValueError(f"property {self.name!r} is not detachable")
        self._getter = None

    def rebind(self, getter: Callable[[], float]) -> None:
        if not self._rebindable:
            raise ValueError(f"property {self.name!r} is not rebindable")
        if getter is None:
            raise ValueError("rebind target must be callable; use detach() to disable the binding")
        self._getter = getter

    def __call__(self, info) -> LoggedValue:
        if self._getter is None:
            return ABSENT
        return LoggedValue.of(float(self._getter()))
