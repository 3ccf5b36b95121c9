"""Normalization of conjunctive views (Section 3's encoding procedure).

Before a view can be stored in meta-relations, the paper's procedure
rewrites it: equality subformulas ``d1 = d2`` are substituted away,
head variables are marked with ``*``, and variables appearing only once
in the whole expression are replaced with blanks.

:func:`normalize_view` performs the equivalent analysis on the surface
AST: it unions attribute positions connected by equality conditions
into *variable classes*, pins classes equated with constants, attaches
order/inequality comparisons to classes (these will populate the
COMPARISON store), and classifies every product position as blank,
constant, or variable — starred when the position appears in the
target list.

The result, :class:`NormalizedView`, is consumed by the meta-relation
encoder and can also be compiled to a PSJ plan for materialization
(used by the soundness oracle and the INGRES baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.schema import DatabaseSchema
from repro.algebra.types import Domain, Value
from repro.calculus.ast import (
    AttrRef,
    ConstTerm,
    Query,
    ViewDefinition,
)
from repro.calculus.safety import check_expression
from repro.errors import SafetyError
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore


@dataclass(frozen=True)
class BlankContent:
    """A position whose value is unconstrained (the paper's blank)."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class ConstContent:
    """A position pinned to a constant by equality substitution."""

    value: Value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarContent:
    """A position carrying a variable (a multi-occurrence class)."""

    var: str

    def __str__(self) -> str:
        return self.var


CellContent = Union[BlankContent, ConstContent, VarContent]
BLANK = BlankContent()


@dataclass(frozen=True)
class NormalizedCell:
    """One position of the normalized view: content plus star flag."""

    content: CellContent
    starred: bool

    def __str__(self) -> str:
        return f"{self.content}{'*' if self.starred else ''}"


@dataclass(frozen=True)
class NormalizedView:
    """A conjunctive view after Section 3's rewriting.

    Attributes:
        name: the view name (empty for anonymous queries).
        occurrences: relation occurrences, first-mention order.
        cells: one cell per product position (width = sum of arities).
        store: interval/relational constraints over the view variables.
        target_positions: product positions of the target list, in
            target order.
    """

    name: str
    occurrences: Tuple[Occurrence, ...]
    cells: Tuple[NormalizedCell, ...]
    store: ConstraintStore
    target_positions: Tuple[int, ...]

    def variables(self) -> Tuple[str, ...]:
        """Variables in first-appearance (cell) order."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            if isinstance(cell.content, VarContent):
                seen.setdefault(cell.content.var)
        return tuple(seen)

    def materialization_psj(self, schema: DatabaseSchema) -> PSJQuery:
        """A PSJ plan computing the view's extension.

        The plan projects the *target* positions, i.e. it computes
        exactly the relation the view statement denotes.
        """
        conditions: List[AtomicCondition] = []

        # Representative position of each variable, plus equality chains.
        representative: Dict[str, int] = {}
        for position, cell in enumerate(self.cells):
            content = cell.content
            if isinstance(content, ConstContent):
                conditions.append(AtomicCondition(
                    Col(position), Comparator.EQ, Const(content.value)
                ))
            elif isinstance(content, VarContent):
                if content.var in representative:
                    conditions.append(AtomicCondition(
                        Col(representative[content.var]),
                        Comparator.EQ,
                        Col(position),
                    ))
                else:
                    representative[content.var] = position

        for var, rep in representative.items():
            conditions.extend(
                AtomicCondition(Col(rep), op, Const(value))
                for op, value in self.store.interval_for(var).comparisons()
            )
        for relation in self.store.relations():
            if relation.left in representative and relation.right in representative:
                conditions.append(AtomicCondition(
                    Col(representative[relation.left]),
                    relation.op,
                    Col(representative[relation.right]),
                ))

        return PSJQuery(
            occurrences=self.occurrences,
            conditions=tuple(conditions),
            output=self.target_positions,
        )


class _UnionFind:
    """Union-find over product positions."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def normalize_view(
    view: Union[ViewDefinition, Query],
    schema: DatabaseSchema,
    name: Optional[str] = None,
) -> NormalizedView:
    """Normalize a view (or query) into cell/store form.

    Raises:
        SafetyError: for unsafe expressions or selections that are
            statically unsatisfiable (e.g. ``A = 1 and A = 2``), which
            would denote the empty view and grant nothing.
    """
    occurrences = check_expression(view, schema)
    if name is None:
        name = view.name if isinstance(view, ViewDefinition) else ""

    # Map every AttrRef to a product position.
    offsets: Dict[Tuple[str, int], int] = {}
    width = 0
    for occ in occurrences:
        offsets[(occ.relation, occ.occurrence)] = width
        width += schema.get(occ.relation).arity

    def position_of(ref: AttrRef) -> int:
        base = offsets[ref.occurrence_key()]
        return base + schema.get(ref.relation).index_of(ref.attribute)

    # Phase 1: union positions connected by equality; record constants.
    uf = _UnionFind(width)
    pinned: Dict[int, Value] = {}  # root -> constant

    equalities = [c for c in view.conditions if c.op is Comparator.EQ]
    others = [c for c in view.conditions if c.op is not Comparator.EQ]

    for condition in equalities:
        lhs, rhs = condition.lhs, condition.rhs
        if isinstance(lhs, AttrRef) and isinstance(rhs, AttrRef):
            uf.union(position_of(lhs), position_of(rhs))
        elif isinstance(lhs, AttrRef) and isinstance(rhs, ConstTerm):
            _pin(uf, pinned, position_of(lhs), rhs.value)
        elif isinstance(rhs, AttrRef) and isinstance(lhs, ConstTerm):
            _pin(uf, pinned, position_of(rhs), lhs.value)

    # Re-root pinned constants after all unions.
    rooted_pins: Dict[int, Value] = {}
    for position, value in pinned.items():
        root = uf.find(position)
        if root in rooted_pins and rooted_pins[root] != value:
            raise SafetyError(
                f"selection pins one attribute to both "
                f"{rooted_pins[root]!r} and {value!r}; the view is empty"
            )
        rooted_pins[root] = value

    # Phase 2: gather class members and discreteness.
    members: Dict[int, List[int]] = {}
    for position in range(width):
        members.setdefault(uf.find(position), []).append(position)

    product_columns = _product_domains(occurrences, schema)

    def class_discrete(root: int) -> bool:
        return all(product_columns[p].discrete for p in members[root])

    # Phase 3: attach non-equality comparisons.
    intervals: Dict[int, Interval] = {}
    relations: List[Tuple[int, Comparator, int]] = []

    for condition in others:
        lhs, rhs, op = condition.lhs, condition.rhs, condition.op
        if isinstance(lhs, ConstTerm) and isinstance(rhs, AttrRef):
            lhs, rhs, op = rhs, lhs, op.flipped()
        assert isinstance(lhs, AttrRef)
        left_root = uf.find(position_of(lhs))
        if isinstance(rhs, ConstTerm):
            interval = Interval.from_comparison(
                op, rhs.value, class_discrete(left_root)
            )
            current = intervals.get(
                left_root, Interval.top(class_discrete(left_root))
            )
            intervals[left_root] = current.intersect(interval)
        else:
            right_root = uf.find(position_of(rhs))
            if left_root == right_root:
                # x op x after substitution: statically decidable.
                if op in (Comparator.LT, Comparator.GT, Comparator.NE):
                    raise SafetyError(
                        f"condition {condition} is unsatisfiable after "
                        "equality substitution; the view is empty"
                    )
                continue  # LE/GE on equal operands is trivially true
            relations.append((left_root, op, right_root))

    # Fold comparisons against pinned classes into the other side.
    remaining_relations: List[Tuple[int, Comparator, int]] = []
    for left_root, op, right_root in relations:
        left_pin = rooted_pins.get(left_root)
        right_pin = rooted_pins.get(right_root)
        if left_pin is not None and right_pin is not None:
            if not op.evaluate(left_pin, right_pin):
                raise SafetyError(
                    "comparison between pinned constants fails; "
                    "the view is empty"
                )
        elif left_pin is not None:
            interval = Interval.from_comparison(
                op.flipped(), left_pin, class_discrete(right_root)
            )
            current = intervals.get(
                right_root, Interval.top(class_discrete(right_root))
            )
            intervals[right_root] = current.intersect(interval)
        elif right_pin is not None:
            interval = Interval.from_comparison(
                op, right_pin, class_discrete(left_root)
            )
            current = intervals.get(
                left_root, Interval.top(class_discrete(left_root))
            )
            intervals[left_root] = current.intersect(interval)
        else:
            remaining_relations.append((left_root, op, right_root))

    # Static satisfiability of pinned classes against their intervals.
    for root, value in rooted_pins.items():
        if root in intervals and not intervals[root].contains(value):
            raise SafetyError(
                f"constant {value!r} violates the comparisons on its "
                "attribute; the view is empty"
            )
        intervals.pop(root, None)
    for root, interval in intervals.items():
        if interval.is_empty():
            raise SafetyError(
                "the comparisons on one attribute are contradictory; "
                "the view is empty"
            )

    # Phase 4: decide the content of every class.
    target_positions = tuple(position_of(ref) for ref in view.target)

    constrained_roots = set(intervals)
    for left_root, _, right_root in remaining_relations:
        constrained_roots.add(left_root)
        constrained_roots.add(right_root)

    needs_var = {
        root for root, positions in members.items()
        if root not in rooted_pins
        and (len(positions) > 1 or root in constrained_roots)
    }

    # Name variables in first-appearance order, paper-style x1, x2, ...
    var_names: Dict[int, str] = {}
    for position in range(width):
        root = uf.find(position)
        if root in needs_var and root not in var_names:
            var_names[root] = f"x{len(var_names) + 1}"

    # A position is starred when its *class* contains a head (target)
    # position: the paper stars every occurrence of a head variable, so
    # both TITLE cells of EST carry x4* even though the surface syntax
    # names only EMPLOYEE:1.TITLE in the target list.
    starred_roots = {uf.find(p) for p in target_positions}

    cells: List[NormalizedCell] = []
    for position in range(width):
        root = uf.find(position)
        starred = root in starred_roots
        if root in rooted_pins:
            content: CellContent = ConstContent(rooted_pins[root])
        elif root in needs_var:
            content = VarContent(var_names[root])
        else:
            content = BLANK
        cells.append(NormalizedCell(content, starred))

    # Build the store over the named variables.
    store = ConstraintStore.empty()
    for root, interval in intervals.items():
        store = store.constrain_interval(var_names[root], interval)
    for left_root, op, right_root in remaining_relations:
        store = store.relate(var_names[left_root], op, var_names[right_root])

    return NormalizedView(
        name=name,
        occurrences=occurrences,
        cells=tuple(cells),
        store=store,
        target_positions=target_positions,
    )


def _pin(uf: _UnionFind, pinned: Dict[int, Value], position: int,
         value: Value) -> None:
    existing = pinned.get(position)
    if existing is not None and existing != value:
        raise SafetyError(
            f"attribute pinned to both {existing!r} and {value!r}; "
            "the view is empty"
        )
    pinned[position] = value


def _product_domains(occurrences: Sequence[Occurrence],
                     schema: DatabaseSchema) -> List[Domain]:
    domains: List[Domain] = []
    for occ in occurrences:
        domains.extend(a.domain for a in schema.get(occ.relation).attributes)
    return domains
