"""The base of the package's small value types.

A value type names its fields in ``__match_args__``, keeps them in
``__slots__`` and sets them in its own ``__init__``.  :class:`Record`
gives it what a dataclass would: equality between values of the same
class whose fields are equal, the repr ``Name(field=value, ...)``, and a
pickle and copy that rebuild it through its constructor.  A record is
mutable and so unhashable; a :class:`Frozen` one hashes its fields and
refuses assignment with AttributeError, so its ``__init__`` fills its
slots through the descriptor setters :func:`setters` gives.

No value type is a dataclass.  ``import dataclasses`` imports ``inspect``
and took 8.2 ms of the 48.7 ms ``import hfsurgery.cli`` (medians of seven
processes, shared 2-core Intel Xeon, Python 3.11.7), and a frozen
dataclass fills its fields through ``object.__setattr__``: a ``Slope``
took 1.08 us to build as one, 0.85 us as a slotted class filled through
``object.__setattr__`` and 0.65 us filled through its slot setters.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, repr and pickling over the fields ``__match_args__``
    names; mutable, so unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__match_args__:
            # The fields, read in C: their tuple, or a lone field's value.
            # A Python loop over the names made ``Slope`` equality 5x slower.
            cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


class Frozen(Record):
    """A record that hashes its fields and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def setters(cls: type) -> list:
    """The setters of the slots of ``cls``, in ``__slots__`` order, which
    fill a frozen record past its ``__setattr__``."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]
