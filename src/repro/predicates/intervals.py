"""Interval abstraction for one-variable conjunctive predicates.

The four-case selection refinement of Section 4.2 needs to decide, for
a query predicate lambda and a stored view predicate mu over the same
attribute, whether lambda implies mu, mu implies lambda, the two are
contradictory, or neither.  For the conjunctive comparators of the
paper (<, <=, >, >=, =, !=) over a totally ordered domain, every
one-variable conjunction denotes an interval with a finite set of
excluded points — which is exactly what :class:`Interval` represents.

All decision procedures here are *conservative*: they answer True only
when the property provably holds.  A conservative "don't know" makes
the engine fall back to the always-sound conjoin case, never to an
unsound one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.algebra.types import Value
from repro.errors import TypeMismatchError
from repro.predicates.comparators import Comparator


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) interval with excluded points.

    ``lo``/``hi`` of ``None`` mean unbounded on that side.  ``excluded``
    holds points removed by ``!=`` constraints.  ``discrete`` marks
    integer-like domains where strict bounds can be tightened.

    Construction normalizes, so the fields always hold the normal form
    and ``==`` and ``hash`` are semantic identity: ``x > 3`` over
    integers is stored as ``x >= 4``.  A discrete interval's float
    bounds first round inward to integers (``x > 1.5`` and ``x > 1.0``
    both become ``x >= 2``); then strict integer bounds tighten, an
    excluded point equal to a closed endpoint turns that bound strict
    (tightening again when discrete), and excluded points outside the
    bounds are dropped.
    """

    lo: Optional[Value] = None
    lo_strict: bool = False
    hi: Optional[Value] = None
    hi_strict: bool = False
    excluded: FrozenSet[Value] = field(default_factory=frozenset)
    discrete: bool = False

    def __post_init__(self) -> None:
        lo, lo_strict = self.lo, self.lo_strict
        hi, hi_strict = self.hi, self.hi_strict
        if lo is None and hi is None:
            return
        if self.discrete and (isinstance(lo, float)
                              or isinstance(hi, float)):
            lo, lo_strict = _inward(lo, lo_strict, math.ceil)
            hi, hi_strict = _inward(hi, hi_strict, math.floor)
        excluded = set(self.excluded)

        changed = True
        while changed:
            changed = False
            if self.discrete and lo is not None and lo_strict \
                    and isinstance(lo, int):
                lo, lo_strict = lo + 1, False
                changed = True
            if self.discrete and hi is not None and hi_strict \
                    and isinstance(hi, int):
                hi, hi_strict = hi - 1, False
                changed = True
            if lo is not None and not lo_strict and lo in excluded:
                excluded.discard(lo)
                lo_strict = True
                changed = True
            if hi is not None and not hi_strict and hi in excluded:
                excluded.discard(hi)
                hi_strict = True
                changed = True

        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "lo_strict", lo_strict)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "hi_strict", hi_strict)
        object.__setattr__(self, "excluded", frozenset(
            v for v in excluded
            if _within(v, lo, lo_strict, hi, hi_strict)
        ))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def top(discrete: bool = False) -> "Interval":
        """The unconstrained interval (predicate ``true``)."""
        return Interval(discrete=discrete)

    @staticmethod
    def point(value: Value, discrete: bool = False) -> "Interval":
        """The interval containing exactly ``value`` (predicate ``= value``)."""
        return Interval(lo=value, hi=value, discrete=discrete)

    @staticmethod
    def from_comparison(op: Comparator, value: Value,
                        discrete: bool = False) -> "Interval":
        """The interval denoted by ``x op value``."""
        if op is Comparator.EQ:
            return Interval.point(value, discrete)
        if op is Comparator.NE:
            return Interval(excluded=frozenset([value]), discrete=discrete)
        if op is Comparator.LT:
            return Interval(hi=value, hi_strict=True, discrete=discrete)
        if op is Comparator.LE:
            return Interval(hi=value, discrete=discrete)
        if op is Comparator.GT:
            return Interval(lo=value, lo_strict=True, discrete=discrete)
        if op is Comparator.GE:
            return Interval(lo=value, discrete=discrete)
        raise TypeMismatchError(f"unsupported comparator {op}")

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        """The conjunction of the two predicates."""
        lo, lo_strict = _tighter_lo(
            (self.lo, self.lo_strict), (other.lo, other.lo_strict)
        )
        hi, hi_strict = _tighter_hi(
            (self.hi, self.hi_strict), (other.hi, other.hi_strict)
        )
        return Interval(
            lo, lo_strict, hi, hi_strict,
            self.excluded | other.excluded,
            self.discrete or other.discrete,
        )

    # ------------------------------------------------------------------
    # decision procedures (conservative)
    # ------------------------------------------------------------------

    def contains(self, value: Value) -> bool:
        """Membership test for a concrete value."""
        return (
            _within(value, self.lo, self.lo_strict, self.hi, self.hi_strict)
            and value not in self.excluded
        )

    def comparisons(self) -> Tuple[Tuple[Comparator, Value], ...]:
        """The interval as a conjunction of comparisons ``x op value``.

        ``((=, v),)`` for a point; otherwise the lower bound, then the
        upper bound, then one ``!=`` per excluded point in ``repr``
        order; empty for ``true``.  A value lies in the interval exactly
        when every comparison holds
        (``tests/property/test_columnar_relation.py`` pins this to
        :meth:`contains`).  The compiled mask kernel, view
        materialization plans and :meth:`describe` all read this
        lowering.
        """
        if self.is_point:
            return ((Comparator.EQ, self.the_point()),)
        out: List[Tuple[Comparator, Value]] = []
        if self.lo is not None:
            out.append((Comparator.GT if self.lo_strict else Comparator.GE,
                        self.lo))
        if self.hi is not None:
            out.append((Comparator.LT if self.hi_strict else Comparator.LE,
                        self.hi))
        out.extend((Comparator.NE, value)
                   for value in sorted(self.excluded, key=repr))
        return tuple(out)

    @property
    def is_point(self) -> bool:
        """True when the interval pins exactly one value."""
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_strict
            and not self.hi_strict
        )

    def the_point(self) -> Value:
        """The single value of a point interval."""
        if self.lo is None or not self.is_point:
            raise ValueError(f"{self!r} is not a point interval")
        return self.lo

    def is_empty(self) -> bool:
        """Provable emptiness (the predicate is unsatisfiable)."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_strict or self.hi_strict
        return False

    @property
    def is_top(self) -> bool:
        """True when the predicate is the constant ``true``."""
        return (
            self.lo is None and self.hi is None and not self.excluded
        )

    def is_subset(self, other: "Interval") -> bool:
        """Provable implication: ``self`` predicate implies ``other``'s.

        Conservative — an empty ``self`` implies anything.
        """
        if self.is_empty():
            return True
        if not _lo_at_least(self, other) or not _hi_at_most(self, other):
            return False
        # Every point other excludes must also be outside self.
        return all(not self.contains(v) for v in other.excluded)

    def is_disjoint(self, other: "Interval") -> bool:
        """Provable contradiction of the two predicates."""
        if self.is_empty() or other.is_empty():
            return True
        if self.is_point:
            return not other.contains(self.the_point())
        if other.is_point:
            return not self.contains(other.the_point())
        return self.intersect(other).is_empty()

    def forces(self, op: Comparator, other: "Interval") -> bool:
        """Provable order: ``x op y`` for every x in self, y in other.

        Conservative, and ``=`` is never forced.
        """
        if op is Comparator.NE:
            return self.is_disjoint(other)
        if op in (Comparator.GT, Comparator.GE):
            return other.forces(op.flipped(), self)
        if op is Comparator.EQ or self.hi is None or other.lo is None:
            return False
        if self.hi < other.lo:
            return True
        return self.hi == other.lo and (
            op is Comparator.LE or self.hi_strict or other.lo_strict)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def describe(self, subject: str) -> Tuple[str, ...]:
        """Render the predicate as comparison clauses over ``subject``.

        Returns a tuple of clause strings, empty for ``true``.
        """
        return tuple(f"{subject} {op} {_fmt(value)}"
                     for op, value in self.comparisons())

    def __str__(self) -> str:
        return " and ".join(self.describe("x")) or "true"


def _fmt(value: Value) -> str:
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def _inward(bound: Optional[Value], strict: bool,
            rounding: Callable[[float], int]) -> Tuple[Optional[Value], bool]:
    """A discrete interval's finite float ``bound`` as an integer.

    ``rounding`` moves it inward (``ceil`` for a lower bound, ``floor``
    for an upper one); the bound stays strict only when the float was
    already integral, since rounding a fractional bound past it
    already excludes it.
    """
    if isinstance(bound, float) and math.isfinite(bound):
        whole = rounding(bound)
        return whole, strict and whole == bound
    return bound, strict


def _within(value: Value, lo: Optional[Value], lo_strict: bool,
            hi: Optional[Value], hi_strict: bool) -> bool:
    if lo is not None:
        if lo_strict and not value > lo:
            return False
        if not lo_strict and not value >= lo:
            return False
    if hi is not None:
        if hi_strict and not value < hi:
            return False
        if not hi_strict and not value <= hi:
            return False
    return True


def _tighter_lo(a: Tuple[Optional[Value], bool],
                b: Tuple[Optional[Value], bool]) -> Tuple[Optional[Value], bool]:
    (alo, astrict), (blo, bstrict) = a, b
    if alo is None:
        return blo, bstrict
    if blo is None:
        return alo, astrict
    if alo > blo:
        return alo, astrict
    if blo > alo:
        return blo, bstrict
    return alo, astrict or bstrict


def _tighter_hi(a: Tuple[Optional[Value], bool],
                b: Tuple[Optional[Value], bool]) -> Tuple[Optional[Value], bool]:
    (ahi, astrict), (bhi, bstrict) = a, b
    if ahi is None:
        return bhi, bstrict
    if bhi is None:
        return ahi, astrict
    if ahi < bhi:
        return ahi, astrict
    if bhi < ahi:
        return bhi, bstrict
    return ahi, astrict or bstrict


def _lo_at_least(a: Interval, b: Interval) -> bool:
    """Is a's lower bound at least as tight as b's?"""
    if b.lo is None:
        return True
    if a.lo is None:
        return False
    if a.lo > b.lo:
        return True
    if a.lo < b.lo:
        return False
    return a.lo_strict or not b.lo_strict


def _hi_at_most(a: Interval, b: Interval) -> bool:
    """Is a's upper bound at least as tight as b's?"""
    if b.hi is None:
        return True
    if a.hi is None:
        return False
    if a.hi < b.hi:
        return True
    if a.hi > b.hi:
        return False
    return a.hi_strict or not b.hi_strict
