"""Value types: classes whose fields are listed in __slots__.

A subclass names its fields, in order, in __slots__.  Value's
constructor binds positional arguments to them in that order and the
rest by keyword, and refuses a missing, unknown, repeated or surplus
field with a TypeError.  It is the one place that stores fields: a
subclass defines its own __init__ only to check, convert or default an
argument, and ends it with one Value.__init__(self, ...) call by position.
Value compares two objects of the same type field by field and prints
Name(field=value, ...) in field order; like any class that defines
equality without a hash, it is unhashable.  Frozen also hashes the tuple
of fields and refuses assignment and deletion.
"""

from __future__ import annotations


def _bound(cls, args: tuple, kwargs: dict) -> list:
    """args and kwargs as one value per field of cls, in field order."""
    names = cls.__slots__
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} fields, got {len(args)}")
    values = list(args)
    try:
        for name in names[len(args):]:
            values.append(kwargs.pop(name))
    except KeyError:
        raise TypeError(f"{cls.__qualname__}() is missing field {name!r}") from None
    for name in kwargs:
        problem = f"got field {name!r} twice" if name in names else f"has no field {name!r}"
        raise TypeError(f"{cls.__qualname__}() {problem}")
    return values


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The __set__ of each field's slot descriptor, bound once per class:
        # it stores past a Frozen __setattr__ without an attribute lookup.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = _bound(type(self), args, kwargs)
        # a counter, not zip(): building a zip object costs more than the
        # loop over a type's few fields
        i = 0
        for setter in setters:
            setter(self, args[i])
            i += 1

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
