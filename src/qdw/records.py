"""Plain record classes: equality, repr and (when frozen) hashing over fields.

A record names its fields in `_fields`.  Two records are equal when they
are of the same class and their fields are equal in order, and the repr
reads `Name(field=value, ...)`.  A `Record` is mutable and unhashable; a
`FrozenRecord` rejects attribute assignment and hashes its field tuple.
Each subclass writes its own `__init__`, which passes every field to
`Record.__init__`, and keeps `__slots__ = _fields` unless a
`cached_property` needs an instance `__dict__`.  `Ratio` is the one
exact rational a report or an error text prints, so no layer imports
`fractions`.
"""

from __future__ import annotations

from math import gcd


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        """Set each field, in `_fields` order; subclasses pass every field."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None   # mutable and compared by value

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ratio(FrozenRecord):
    """An exact rational in lowest terms with a positive denominator.

    It prints as `fractions.Fraction` prints: "p/q", or "p" when q is 1.
    """
    _fields = __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if not denominator:
            raise ZeroDivisionError("Ratio with denominator 0")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        super().__init__(numerator // g, denominator // g)

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"
