"""Immutable value records that generate no code at import.

``dataclasses`` writes and compiles each class's methods when its module
is imported, about 0.37 ms a class at every start of the CLI.  A record
names its fields in ``_fields`` and stores them in ``__slots__``; this
base gives it equality within its own class, a hash, a repr and
immutability, and pickles and copies it through its constructor.
"""

_set = object.__setattr__  # how a record's ``__init__`` stores a field


class Record:
    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
