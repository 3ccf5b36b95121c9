"""Conjunctive-query containment (the formal core of "subview").

The paper's central notion — "the requested view is also a view of
V1, ..., Vm" — is query containment for conjunctive queries.  The
classical decision procedure (Chandra & Merlin) finds a *containment
homomorphism*: Q1 is contained in Q2 iff there is a mapping of Q2's
atoms onto Q1's atoms that preserves relations, constants and the
head.  With comparison predicates the problem hardens (Klug); this
implementation is **sound but conservative**: a True answer guarantees
containment (every instance's Q1-extension is inside Q2's), a False
answer means "no homomorphism certificate found".

The checker is used by property tests (certificates are cross-validated
against materialization on random instances) and is available as a
public utility for studying the model's completeness gaps — the cases
where a requested view *is* a view of the permissions but the paper's
algebraic method fails to discover it (Section 4.2's opening caveat).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.algebra.schema import DatabaseSchema
from repro.calculus.ast import Query, ViewDefinition
from repro.calculus.normalize import (
    BlankContent,
    ConstContent,
    NormalizedView,
    VarContent,
    normalize_view,
)
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval

#: A term of the frozen query: a constant or a variable.  Blanks are
#: single-occurrence existential variables, so each becomes a unique
#: variable keyed by its position; head blanks thereby participate in
#: head preservation like any distinguished variable.
Term = Tuple[str, object]


def _terms_of(view: NormalizedView) -> List[Term]:
    """One term per product position."""
    terms: List[Term] = []
    for position, cell in enumerate(view.cells):
        content = cell.content
        if isinstance(content, ConstContent):
            terms.append(("const", content.value))
        elif isinstance(content, VarContent):
            terms.append(("var", content.var))
        else:
            assert isinstance(content, BlankContent)
            terms.append(("var", ("blank", position)))
    return terms


def _atoms_of(view: NormalizedView,
              schema: DatabaseSchema) -> List[Tuple[str, Tuple[int, ...]]]:
    """(relation, positions) per occurrence."""
    atoms = []
    position = 0
    for occ in view.occurrences:
        width = schema.get(occ.relation).arity
        atoms.append(
            (occ.relation, tuple(range(position, position + width)))
        )
        position += width
    return atoms


class _Matcher:
    """Backtracking search for a containment homomorphism Q2 -> Q1."""

    def __init__(self, q1: NormalizedView, q2: NormalizedView,
                 schema: DatabaseSchema) -> None:
        self.q1 = q1
        self.q2 = q2
        self.t1 = _terms_of(q1)
        self.t2 = _terms_of(q2)
        self.atoms1 = _atoms_of(q1, schema)
        self.atoms2 = _atoms_of(q2, schema)

    # -- term-level compatibility ---------------------------------------

    def _image_ok(self, q2_term: Term, q1_term: Term,
                  mapping: Dict[object, Term]) -> Optional[
                      Dict[object, Term]]:
        """Try to extend ``mapping`` with h(q2_term) = q1_term."""
        kind2, value2 = q2_term
        if kind2 == "const":
            if q1_term != ("const", value2):
                return None
            return mapping
        # Variables (including blank-variables) map consistently;
        # blank-variables occur once, so consistency is trivial there.
        bound = mapping.get(value2)
        if bound is None:
            extended = dict(mapping)
            extended[value2] = q1_term
            return extended
        if bound != q1_term:
            return None
        return mapping

    # -- search -----------------------------------------------------------

    def find(self) -> Optional[Dict[object, Term]]:
        return self._assign(0, {})

    def _assign(self, atom_index: int,
                mapping: Dict[object, Term]) -> Optional[Dict[object, Term]]:
        if atom_index == len(self.atoms2):
            if not self._head_preserved(mapping):
                return None
            if not self._constraints_implied(mapping):
                return None
            return mapping

        relation2, positions2 = self.atoms2[atom_index]
        for relation1, positions1 in self.atoms1:
            if relation1 != relation2:
                continue
            candidate: Optional[Dict[object, Term]] = mapping
            for p2, p1 in zip(positions2, positions1):
                assert candidate is not None
                candidate = self._image_ok(
                    self.t2[p2], self.t1[p1], candidate
                )
                if candidate is None:
                    break
            if candidate is None:
                continue
            result = self._assign(atom_index + 1, candidate)
            if result is not None:
                return result
        return None

    def _head_preserved(self, mapping: Dict[object, Term]) -> bool:
        """h must carry Q2's head onto Q1's head, position-wise."""
        if len(self.q1.target_positions) != len(self.q2.target_positions):
            return False
        for p1, p2 in zip(self.q1.target_positions,
                          self.q2.target_positions):
            image = self._image_of(self.t2[p2], mapping)
            if image is None:
                return False
            expected = self.t1[p1]
            if image != expected:
                # A constant head of Q1 may be matched by a Q2 head
                # term whose image is that same constant.
                return False
        return True

    def _image_of(self, q2_term: Term,
                  mapping: Dict[object, Term]) -> Optional[Term]:
        kind2, value2 = q2_term
        if kind2 == "const":
            return q2_term
        return mapping.get(value2)

    # -- comparison constraints -------------------------------------------

    def _constraints_implied(self, mapping: Dict[object, Term]) -> bool:
        """Q1's constraints must imply Q2's, under the mapping."""
        for var2 in self.q2.store.mentioned_vars():
            interval2 = self.q2.store.interval_for(var2)
            if interval2.is_top and not self.q2.store.relations_of(var2):
                continue
            image = mapping.get(var2)
            if image is None:
                return False
            if not self._interval_implied(image, interval2):
                return False
        for relation in self.q2.store.relations():
            left = mapping.get(relation.left)
            right = mapping.get(relation.right)
            if left is None or right is None:
                return False
            if not self._relation_implied(left, relation.op, right):
                return False
        return True

    def _q1_interval(self, value: object) -> Interval:
        """Q1's interval on a variable; blank-variables are free."""
        if isinstance(value, str):
            return self.q1.store.interval_for(value)
        return Interval.top()

    def _interval_implied(self, image: Term,
                          interval2: Interval) -> bool:
        kind, value = image
        if kind == "const":
            return interval2.contains(value)
        return self._q1_interval(value).is_subset(interval2)

    def _relation_implied(self, left: Term, op: Comparator,
                          right: Term) -> bool:
        lk, lv = left
        rk, rv = right
        if lk == "const" and rk == "const":
            return op.evaluate(lv, rv)
        if lk == "var" and rk == "var":
            if lv == rv:
                return op in (Comparator.LE, Comparator.GE, Comparator.EQ)
            # Exact relation present in Q1's store?  (Blank-variables
            # never appear in the store.)
            if isinstance(lv, str) and isinstance(rv, str):
                from repro.predicates.store import VarRelation

                wanted = VarRelation.make(lv, op, rv)
                if wanted in self.q1.store.relations():
                    return True
            # Or implied by the two intervals.
            return self._q1_interval(lv).forces(op, self._q1_interval(rv))
        # Mixed var/const: decide through the interval.
        if lk == "var":
            return self._q1_interval(lv).is_subset(
                Interval.from_comparison(op, rv)
            )
        if rk == "var":
            return self._q1_interval(rv).is_subset(
                Interval.from_comparison(op.flipped(), lv)
            )
        return False


Expression = Union[Query, ViewDefinition, NormalizedView]


def _normalized(expression: Expression,
                schema: DatabaseSchema) -> NormalizedView:
    if isinstance(expression, NormalizedView):
        return expression
    return normalize_view(expression, schema)


def is_contained_in(first: Expression, second: Expression,
                    schema: DatabaseSchema) -> bool:
    """Conservative containment test: True guarantees first ⊆ second.

    ``first ⊆ second`` means: on every database instance, every tuple
    of ``first``'s extension is a tuple of ``second``'s.
    """
    q1 = _normalized(first, schema)
    q2 = _normalized(second, schema)
    if len(q1.target_positions) != len(q2.target_positions):
        return False
    return _Matcher(q1, q2, schema).find() is not None


def are_equivalent(first: Expression, second: Expression,
                   schema: DatabaseSchema) -> bool:
    """Conservative equivalence: containment certificates both ways."""
    return (
        is_contained_in(first, second, schema)
        and is_contained_in(second, first, schema)
    )
