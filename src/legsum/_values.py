"""The base of legsum's frozen value types, with no code generated at import.

A value class lists its fields once, as ``__match_args__`` (and, when it
has no other attributes, as ``__slots__`` too), and writes its own
``__init__``.  From the field list, :class:`Value` gives it what a frozen
dataclass would: a ``Name(field=value, ...)`` repr, equality with
instances of the very same class only, the hash of the tuple of field
values, pickling and copying through the constructor, and a
``__setattr__``/``__delattr__`` that raise
:class:`dataclasses.FrozenInstanceError`.  Only types made once per
factor point, member or node (``SimpleClass``, ``TupleClass``,
``PosetNode``) write ``__eq__`` and ``__hash__`` out and set their slots
through :func:`setters`: the test oracles hash the first two in hot loops,
and with these generic methods their four differentials took 2.6x as long.
"""

from __future__ import annotations


def _frozen(message: str) -> AttributeError:
    # Imported here, on the error path only: ``dataclasses`` pulls in
    # ``inspect`` and ``ast``, which the package does not otherwise load.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Value:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def init(obj: Value, *values) -> None:
    """Set ``obj``'s fields, in ``__match_args__`` order, past its frozen ``__setattr__``."""
    for name, value in zip(obj.__match_args__, values):
        object.__setattr__(obj, name, value)


def setters(cls: type, names: tuple[str, ...] | None = None) -> tuple:
    """The ``__set__`` of each slot in ``names`` (default: the fields of ``cls``), in order: the fastest way past ``__setattr__``."""
    return tuple(cls.__dict__[name].__set__ for name in (cls.__match_args__ if names is None else names))
