"""The base of the package's value classes.

A subclass lists its fields, in order, as its `__slots__`.  The base gives
it, without generating any code when the class is made: equality and
hashing by field (objects of one class with equal fields are equal and hash
alike), the `Name(field=value, ...)` repr, immutability, and copy and
pickle support, which rebuild an object through its constructor.  A class
made with `mutable=True` allows assignment to its fields and is unhashable.

The base's constructor takes every field, positionally or by name.  A
class with defaults or checks writes its own `__init__`, setting each field
with `_setattr`, which bypasses the immutability check.  A class built in a
hot loop sets its fields through their slots' own setters, bound once per
class by `slot_setters`, which skip `_setattr`'s lookup of the field by
name; assigning a field still raises.
"""

from __future__ import annotations

from operator import attrgetter

#: Sets a field of a record, immutable or not.
_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, mutable: bool = False):
        super().__init_subclass__()
        names = cls.__slots__
        # `_values(obj)` reads obj's fields in C: a tuple, or the bare value of a single field
        cls._values = attrgetter(*names) if names else staticmethod(_no_fields)
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = [*args, *(kwargs.pop(name) for name in names[len(args):] if name in kwargs)]
            if kwargs or len(args) != len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        values = self._values(self)
        return type(self), (values,) if len(self.__slots__) == 1 else values


def slot_setters(cls: type) -> tuple:
    """The setter of each of `cls`'s fields, in order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _no_fields(obj) -> tuple:
    return ()
