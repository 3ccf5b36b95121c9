"""The comparators of the paper's comparative subformulas.

Section 2 admits comparative subformulas ``d1 theta d2`` where theta is
one of <, <=, >=, =, != (and, symmetrically, >).  :class:`Comparator`
models theta with evaluation, negation, and flipping (``a < b`` iff
``b > a``), which the normalizer uses to orient comparisons.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Dict

from repro.algebra.types import Value
from repro.errors import ParseError


class Comparator(enum.Enum):
    """A comparison operator between two values of a common domain."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    def evaluate(self, left: Value, right: Value) -> bool:
        """Apply this comparator to two values."""
        return _EVAL[self](left, right)

    @property
    def function(self) -> Callable[[Value, Value], bool]:
        """The :mod:`operator` function this comparator applies.

        Evaluators that map a comparison over whole columns call it
        directly instead of going through :meth:`evaluate` per value.
        """
        return _EVAL[self]

    def flipped(self) -> "Comparator":
        """The comparator with operands swapped: ``a op b == b op' a``."""
        return _FLIP[self]

    def negated(self) -> "Comparator":
        """The logical complement: ``not (a op b) == a op' b``."""
        return _NEGATE[self]

    @property
    def is_equality(self) -> bool:
        return self is Comparator.EQ

    @property
    def is_order(self) -> bool:
        """True for the four order comparators (<, <=, >, >=)."""
        return self in (Comparator.LT, Comparator.LE,
                        Comparator.GT, Comparator.GE)

    def __str__(self) -> str:
        return self.value


_EVAL: Dict[Comparator, Callable[[Value, Value], bool]] = {
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.GT: operator.gt,
    Comparator.GE: operator.ge,
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
}

_FLIP = {
    Comparator.LT: Comparator.GT,
    Comparator.LE: Comparator.GE,
    Comparator.GT: Comparator.LT,
    Comparator.GE: Comparator.LE,
    Comparator.EQ: Comparator.EQ,
    Comparator.NE: Comparator.NE,
}

_NEGATE = {
    Comparator.LT: Comparator.GE,
    Comparator.LE: Comparator.GT,
    Comparator.GT: Comparator.LE,
    Comparator.GE: Comparator.LT,
    Comparator.EQ: Comparator.NE,
    Comparator.NE: Comparator.EQ,
}

#: Surface spellings accepted by the parser, mapped to comparators.
#: The paper writes >= as the mathematical symbol; plain-text synonyms
#: are accepted too.
SPELLINGS: Dict[str, Comparator] = {
    "<": Comparator.LT,
    "<=": Comparator.LE,
    "≤": Comparator.LE,  # ≤
    ">": Comparator.GT,
    ">=": Comparator.GE,
    "≥": Comparator.GE,  # ≥
    "=": Comparator.EQ,
    "==": Comparator.EQ,
    "!=": Comparator.NE,
    "<>": Comparator.NE,
    "≠": Comparator.NE,  # ≠
}


def comparator_from_spelling(text: str) -> Comparator:
    """Parse a comparator token.

    Raises:
        ParseError: for an unrecognized spelling.
    """
    try:
        return SPELLINGS[text]
    except KeyError:
        raise ParseError(f"unknown comparator {text!r}") from None
