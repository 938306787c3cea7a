"""Value types: classes whose fields are listed in __slots__.

A subclass names its fields, in order, in __slots__ and sets every one
of them in its own __init__.  Value compares two objects of the same
type field by field and prints Name(field=value, ...) in field order;
like any class that defines equality without a hash, it is unhashable.
Frozen also hashes the tuple of fields and refuses assignment and
deletion, so its subclasses set their fields with object.__setattr__.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

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
