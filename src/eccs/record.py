"""Immutable records: the package's value types as plain slotted classes.

A one-shot CLI process builds only a handful of records, so their
methods are written once here rather than generated per class at import
time, which cost such a process more than everything the records do.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value whose fields are its ``__slots__``, in order.

    The constructor takes one value per field, positionally.  Two records
    are equal when they are of the same class and their fields are equal,
    so a record never equals a tuple or a record of another class with
    the same fields; the hash follows the fields.  Assigning or deleting
    an attribute raises ``AttributeError``.  A record has at least two
    fields.  A slot whose name starts with ``_`` is not a field: equality,
    the hash, the repr and copies ignore it, and the constructor leaves
    it unset.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # an attrgetter is not a descriptor: self._values(self) is the field tuple
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
