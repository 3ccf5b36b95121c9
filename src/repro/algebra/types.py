"""Attribute domains.

The paper assumes each attribute is associated with a domain — a
nonempty, finite or countably infinite, set of values (Section 2).  We
model three concrete domains, all totally ordered so that every
comparator of the paper (<, <=, >=, =, !=, >) is meaningful:

* :data:`INTEGER` — Python ints (salaries, budgets).
* :data:`STRING` — Python strings under lexicographic order (names,
  titles, project numbers).
* :data:`REAL` — Python floats other than NaN, which equals nothing,
  not even itself, and so has no place in a total order.

Domains matter in three places: validating instance rows, type-checking
comparisons at statement-analysis time, and deciding whether interval
endpoints may be tightened (integers are discrete, the others dense).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.errors import TypeMismatchError

#: The union of Python types a database cell may hold.
Value = Union[int, float, str]


@dataclass(frozen=True)
class Domain:
    """A set of values an attribute may take.

    Attributes:
        name: human-readable domain name (``"integer"``, ``"string"``,
            ``"real"``).
        discrete: True when the domain is discrete and strict interval
            bounds can be tightened (``x > 3`` becomes ``x >= 4``).
    """

    name: str
    discrete: bool = False

    def contains(self, value: Value) -> bool:
        """Report whether ``value`` belongs to this domain.

        Booleans are excluded from the integer domain even though
        ``bool`` subclasses ``int`` in Python, and NaN from the real
        domain: it breaks the total order every comparator relies on,
        and SQL engines store it as NULL.
        """
        if isinstance(value, bool):
            return False
        if self.name == "integer":
            return isinstance(value, int)
        if self.name == "real":
            return isinstance(value, int) or (
                isinstance(value, float) and not math.isnan(value))
        if self.name == "string":
            return isinstance(value, str)
        raise TypeMismatchError(f"unknown domain {self.name!r}")

    def check(self, value: Value) -> Value:
        """Return ``value`` unchanged, raising if it is out of domain."""
        if not self.contains(value):
            raise TypeMismatchError(
                f"value {value!r} does not belong to domain {self.name}"
            )
        return value

    @property
    def ordered(self) -> bool:
        """All supported domains are totally ordered."""
        return True

    def comparable_with(self, other: "Domain") -> bool:
        """Report whether values of this domain compare with ``other``'s.

        The two numeric domains are mutually comparable; strings only
        compare with strings.
        """
        numeric = {"integer", "real"}
        if self.name in numeric and other.name in numeric:
            return True
        return self.name == other.name

    def __str__(self) -> str:
        return self.name


INTEGER = Domain("integer", discrete=True)
STRING = Domain("string")
REAL = Domain("real")

_BY_NAME = {d.name: d for d in (INTEGER, STRING, REAL)}


def domain_named(name: str) -> Domain:
    """Look up a domain by name (``"integer"``, ``"string"``, ``"real"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise TypeMismatchError(f"unknown domain {name!r}") from None


def domain_of_value(value: Value) -> Domain:
    """Infer the domain a constant naturally belongs to."""
    if isinstance(value, bool):
        raise TypeMismatchError("boolean constants are not supported")
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        if math.isnan(value):
            raise TypeMismatchError("NaN constants are not supported")
        return REAL
    if isinstance(value, str):
        return STRING
    raise TypeMismatchError(f"unsupported constant {value!r}")
