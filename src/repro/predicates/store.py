"""The constraint store — the COMPARISON relation, made operational.

Section 3 stores every non-equality comparative subformula of a view as
a tuple ``(VIEW, X, COMPARE, Y)`` in the auxiliary COMPARISON relation.
:class:`ConstraintStore` is the reasoning counterpart of that relation:
it maps each view variable to the :class:`~repro.predicates.intervals.
Interval` implied by its variable-to-constant comparisons and keeps the
variable-to-variable comparisons as explicit relations.

Section 4.2 notes that "determining the appropriate case for given mu
and lambda may require consulting relation COMPARISON, and, possibly,
modifying it" — selections consult the store via
:meth:`interval_for` and produce modified stores via :meth:`constrain`
and :meth:`substitute`.

Stores are immutable; every update returns a new store, so each mask
row can evolve its own constraints independently (rows diverge during
the selection phase).

Satisfiability checking is conservative in the safe direction:
:meth:`is_definitely_unsat` answers True only for provable
contradictions.  An undetected contradiction merely leaves a mask row
that matches no answer tuple — never an unsound delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.algebra.types import Value
from repro.errors import ReproError
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval

#: The unconstrained interval, shared: ``Interval`` is frozen, and most
#: uses are ``dict.get``/``pop`` defaults evaluated on every call.
_TOP = Interval.top()


@dataclass(frozen=True)
class VarRelation:
    """A variable-to-variable comparison, canonically oriented.

    GT/GE are flipped to LT/LE at construction; NE operands are sorted,
    so structurally equal constraints compare equal.
    """

    left: str
    op: Comparator
    right: str

    @staticmethod
    def make(left: str, op: Comparator, right: str) -> "VarRelation":
        if op in (Comparator.GT, Comparator.GE):
            left, op, right = right, op.flipped(), left
        if op is Comparator.NE and right < left:
            left, right = right, left
        if op is Comparator.EQ:
            raise ReproError(
                "equality between variables must be handled by unification, "
                "not stored as a relation"
            )
        return VarRelation(left, op, right)

    def mentions(self, var: str) -> bool:
        return var in (self.left, self.right)

    def other(self, var: str) -> str:
        """The operand that is not ``var``."""
        return self.right if var == self.left else self.left

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class ConstraintStore:
    """An immutable set of interval and relational constraints."""

    __slots__ = ("_intervals", "_relations")

    def __init__(
        self,
        intervals: Optional[Mapping[str, Interval]] = None,
        relations: Iterable[VarRelation] = (),
    ) -> None:
        self._intervals: Dict[str, Interval] = {
            var: iv for var, iv in (intervals or {}).items() if not iv.is_top
        }
        # Most stores relate no variables; they share one empty set,
        # which canonical keys then hold by reference.
        self._relations: FrozenSet[VarRelation] = \
            frozenset(relations) or _NO_RELATIONS

    # ------------------------------------------------------------------
    # constructors / accessors
    # ------------------------------------------------------------------

    @staticmethod
    def empty() -> "ConstraintStore":
        return _EMPTY

    def interval_for(self, var: str) -> Interval:
        """The interval constraint on ``var`` (top when unconstrained)."""
        return self._intervals.get(var, _TOP)

    def relations_of(self, var: str) -> Tuple[VarRelation, ...]:
        """All variable-to-variable relations mentioning ``var``."""
        return tuple(sorted(
            (r for r in self._relations if r.mentions(var)), key=str
        ))

    def relations(self) -> Tuple[VarRelation, ...]:
        return tuple(sorted(self._relations, key=str))

    @property
    def relation_set(self) -> FrozenSet[VarRelation]:
        """The variable-to-variable relations, unordered."""
        return self._relations

    def mentioned_vars(self) -> FrozenSet[str]:
        """Every variable the store constrains."""
        out: Set[str] = set(self._intervals)
        for relation in self._relations:
            out.add(relation.left)
            out.add(relation.right)
        return frozenset(out)

    def is_empty(self) -> bool:
        return not self._intervals and not self._relations

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------

    def constrain(self, var: str, op: Comparator, value: Value,
                  discrete: bool = False) -> "ConstraintStore":
        """Conjoin ``var op value`` onto the store."""
        return self.constrain_interval(
            var, Interval.from_comparison(op, value, discrete)
        )

    def constrain_interval(self, var: str,
                           interval: Interval) -> "ConstraintStore":
        """Intersect ``var``'s interval with ``interval``."""
        intervals = dict(self._intervals)
        intervals[var] = self.interval_for(var).intersect(interval)
        return ConstraintStore(intervals, self._relations)

    def replace_interval(self, var: str,
                         interval: Interval) -> "ConstraintStore":
        """Overwrite ``var``'s interval (used by the CONJOIN case)."""
        intervals = dict(self._intervals)
        if interval.is_top:
            intervals.pop(var, None)
        else:
            intervals[var] = interval
        return ConstraintStore(intervals, self._relations)

    def relate(self, left: str, op: Comparator,
               right: str) -> "ConstraintStore":
        """Conjoin the variable-to-variable comparison ``left op right``."""
        relation = VarRelation.make(left, op, right)
        return ConstraintStore(
            self._intervals, self._relations | {relation}
        )

    def substitute(self, var: str, value: Value) -> "ConstraintStore":
        """Bind ``var := value`` and fold its constraints onto others.

        The variable's own interval turns into a point check (a failed
        check yields a store that is provably unsatisfiable rather than
        raising, so callers uniformly test :meth:`is_definitely_unsat`).
        Relations mentioning the variable become interval constraints on
        the other operand.
        """
        intervals = dict(self._intervals)
        own = intervals.pop(var, _TOP)
        if not own.contains(value):
            # Record an impossible interval so unsatisfiability is visible.
            intervals[var] = _IMPOSSIBLE
            return ConstraintStore(intervals, self._relations)

        relations = set()
        for relation in self._relations:
            if not relation.mentions(var):
                relations.add(relation)
                continue
            other = relation.other(var)
            if other == var:
                # x op x: NE is unsatisfiable, LT likewise; LE trivial.
                if relation.op in (Comparator.NE, Comparator.LT):
                    intervals[other] = _IMPOSSIBLE
                continue
            op = relation.op
            # Orient so the surviving variable is on the left.
            if relation.left == var:
                op = op.flipped()
            interval = Interval.from_comparison(op, value)
            current = intervals.get(other, _TOP)
            intervals[other] = current.intersect(interval)
        return ConstraintStore(intervals, relations)

    def unify(self, keep: str, drop: str) -> "ConstraintStore":
        """Merge variable ``drop`` into ``keep`` (equality conjunction)."""
        if keep == drop:
            return self
        intervals = dict(self._intervals)
        dropped = intervals.pop(drop, _TOP)
        intervals[keep] = intervals.get(keep, _TOP).intersect(dropped)
        relations: Set[VarRelation] = set()
        for relation in self._relations:
            left = keep if relation.left == drop else relation.left
            right = keep if relation.right == drop else relation.right
            if left == right:
                if relation.op in (Comparator.NE, Comparator.LT):
                    intervals[left] = _IMPOSSIBLE
                continue
            relations.add(VarRelation.make(left, relation.op, right))
        return ConstraintStore(intervals, relations)

    def merge(self, other: "ConstraintStore") -> "ConstraintStore":
        """Conjunction of two stores."""
        intervals = dict(self._intervals)
        for var, interval in other._intervals.items():
            intervals[var] = intervals.get(var, _TOP).intersect(interval)
        return ConstraintStore(intervals, self._relations | other._relations)

    def restrict_closure(self, roots: Iterable[str]) -> "ConstraintStore":
        """The sub-store reachable from ``roots`` through relations.

        Used to carve a row-local store out of the catalog-wide one.
        Taking the transitive closure (rather than just the roots)
        guarantees no restricting constraint is lost, which masking
        soundness requires.
        """
        reachable: Set[str] = set(roots)
        frontier = set(reachable)
        while frontier:
            nxt: Set[str] = set()
            for relation in self._relations:
                for var in (relation.left, relation.right):
                    if var in frontier:
                        other = relation.other(var)
                        if other not in reachable:
                            nxt.add(other)
            reachable |= nxt
            frontier = nxt
        intervals = {
            var: iv for var, iv in self._intervals.items() if var in reachable
        }
        relations = {
            r for r in self._relations
            if r.left in reachable or r.right in reachable
        }
        return ConstraintStore(intervals, relations)

    def rename(self, mapping: Mapping[str, str]) -> "ConstraintStore":
        """Rename variables (used by canonicalization)."""
        intervals = {
            mapping.get(var, var): iv for var, iv in self._intervals.items()
        }
        relations = {
            VarRelation.make(
                mapping.get(r.left, r.left), r.op, mapping.get(r.right, r.right)
            )
            for r in self._relations
        }
        return ConstraintStore(intervals, relations)

    # ------------------------------------------------------------------
    # decision procedures
    # ------------------------------------------------------------------

    def is_definitely_unsat(self) -> bool:
        """Provable unsatisfiability of the conjunction of constraints.

        Runs bound propagation along the order relations until a fixed
        number of rounds (one per variable suffices for chains) and
        reports True when any interval empties or an NE pins two equal
        points.
        """
        intervals = dict(self._intervals)
        if any(iv.is_empty() for iv in intervals.values()):
            return True

        order = [r for r in self._relations if r.op.is_order]
        rounds = len(self.mentioned_vars()) + 1
        for _ in range(rounds):
            changed = False
            for relation in order:
                left = intervals.get(relation.left, _TOP)
                right = intervals.get(relation.right, _TOP)
                strict = relation.op is Comparator.LT
                # left < right: left.hi tightened by right.hi, and
                # right.lo tightened by left.lo.
                new_left = left.intersect(Interval(
                    hi=right.hi,
                    hi_strict=strict or right.hi_strict,
                ) if right.hi is not None else _TOP)
                new_right = right.intersect(Interval(
                    lo=left.lo,
                    lo_strict=strict or left.lo_strict,
                ) if left.lo is not None else _TOP)
                if new_left != left:
                    intervals[relation.left] = new_left
                    changed = True
                if new_right != right:
                    intervals[relation.right] = new_right
                    changed = True
                if new_left.is_empty() or new_right.is_empty():
                    return True
            if not changed:
                break

        for relation in self._relations:
            if relation.op is Comparator.NE:
                left = intervals.get(relation.left, _TOP)
                right = intervals.get(relation.right, _TOP)
                if (left.is_point and right.is_point
                        and left.the_point() == right.the_point()):
                    return True
            if relation.op is Comparator.LT and relation.left == relation.right:
                return True
        return False

    def satisfied_by(self, binding: Mapping[str, Value]) -> bool:
        """Check a (possibly partial) variable assignment.

        Bound variables must lie in their intervals; relations with both
        operands bound must hold.  Constraints touching unbound
        variables are treated as satisfiable (the mask semantics is
        existential and the supported domains are unbounded), except
        when the residual store is provably unsatisfiable.
        """
        store: ConstraintStore = self
        for var, value in binding.items():
            if not store.interval_for(var).contains(value):
                return False
            store = store.substitute(var, value)
        return not store.is_definitely_unsat()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def describe_var(self, var: str, subject: str) -> Tuple[str, ...]:
        """Clauses describing ``var``'s interval, phrased over ``subject``."""
        return self.interval_for(var).describe(subject)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintStore):
            return NotImplemented
        return (
            self._intervals == other._intervals
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash((
            tuple(sorted(self._intervals.items(), key=lambda kv: kv[0])),
            self._relations,
        ))

    def __repr__(self) -> str:
        parts = [
            f"{var}: {iv}" for var, iv in sorted(self._intervals.items())
        ]
        parts.extend(str(r) for r in self.relations())
        return "ConstraintStore(" + "; ".join(parts) + ")"


_NO_RELATIONS: FrozenSet[VarRelation] = frozenset()
_EMPTY = ConstraintStore()
#: An interval that is provably empty, used to poison contradictions.
_IMPOSSIBLE = Interval(lo=1, hi=0)
