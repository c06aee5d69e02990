"""Plain record classes: equality, repr and (when frozen) hashing over fields.

A record declares its fields once, in `_fields`, and their defaults in
`_defaults`.  `Record.__init__` binds them by position, then by keyword,
then by default; a missing, repeated or unknown field raises TypeError.
A subclass writes an `__init__` only to compute or check something, and
keeps `__slots__ = _fields` unless a `cached_property` needs an instance
`__dict__`.  Two records are equal when they are of the same class and
their fields are equal in order, and the repr reads `Name(field=value,
...)`.  A `Record` is mutable and unhashable; a `FrozenRecord` rejects
attribute assignment and hashes its field tuple.  `Ratio` is the one
exact rational a report or an error text prints, so no layer imports
`fractions`.
"""

from __future__ import annotations

from math import gcd

_set = object.__setattr__   # a frozen record's own __setattr__ refuses


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            if values or len(named) != len(fields):
                named = self._bind(values, named)
            try:
                for name in fields:
                    _set(self, name, named[name])
            except KeyError as missing:
                raise TypeError(f"{type(self).__qualname__} is missing field {missing}") from None
        else:
            for name, value in zip(fields, values):
                _set(self, name, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> dict:
        """{field: value} for a call not all by position nor all by keyword,
        `_defaults` filling the rest; `__init__` reports a field still missing."""
        fields = cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{cls.__qualname__} takes {len(fields)} fields, got {len(values)}")
        given = dict(zip(fields, values))
        for name in named:
            if name in given:
                raise TypeError(f"{cls.__qualname__} got field {name!r} twice")
            if name not in fields:
                raise TypeError(f"{cls.__qualname__} has no field {name!r}")
        return {**cls._defaults, **given, **named}

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
