"""The one record base for the package's nodes, configs and check reports.

A run's residuals are no record: they are a plain dict of its final
registers (producer.residuals_from_store).

A record class names its constructor's fields, in order, in _fields, and
its own __init__ stores them with _set. A record is read-only: assignment
and deletion raise AttributeError. Records compare and hash field by field
within one class only, pickle and copy through their constructor, and show
their fields in a dataclass-style repr; a record holding a list is not
hashable. A class that keeps a fact derived from its fields adds a
"__dict__" slot and makes the fact a functools.cached_property, which
equality, hash, copies and pickles all ignore.

These stand in for dataclasses, whose import loads inspect and whose every
class runs exec once per generated method: together most of a cold start.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Read-only fields in _fields; equality, hash and repr by field.

    Subclasses declare __slots__."""

    __slots__ = ("__weakref__",)
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        # _values, the fields' tuple, is read in C: attrgetter of one name
        # gives the bare value, though, and of none is an error
        fields = cls._fields
        if len(fields) < 2:
            cls._values = property(lambda self: tuple(getattr(self, name) for name in fields))
        else:
            cls._values = property(attrgetter(*fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, which takes the fields in order
        return type(self), self._values

    def __repr__(self):
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inside})"
