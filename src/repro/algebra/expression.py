"""Product–selection–projection (PSJ) plans.

Section 4.1 fixes the evaluation strategy the meta-algebra requires:
"S' is transformed to a sequence of products, followed by selections,
and ending with projections".  :class:`PSJQuery` is exactly that normal
form: an ordered list of relation *occurrences*, a conjunction of
atomic selection conditions over the positional columns of their
product, and a final projection.

The same plan object drives three consumers:

* the naive data evaluator (:mod:`repro.algebra.evaluate`), mirroring
  the paper's operation sequences literally;
* the optimized data evaluator (:mod:`repro.algebra.optimize`) — the
  paper notes that "for the actual relations, where optimality is
  essential, a different strategy may be implemented";
* the meta-algebra (:mod:`repro.metaalgebra.plan`), which replaces each
  occurrence scan with the corresponding meta-relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from repro.algebra.relation import Column, Row
from repro.algebra.schema import DatabaseSchema
from repro.algebra.types import Value
from repro.errors import EvaluationError
from repro.predicates.comparators import Comparator


@dataclass(frozen=True)
class Col:
    """A positional column reference within a product row."""

    index: int

    def __str__(self) -> str:
        return f"#{self.index}"


@dataclass(frozen=True)
class Const:
    """A constant operand."""

    value: Value

    def __str__(self) -> str:
        return repr(self.value)


Operand = Union[Col, Const]


@dataclass(frozen=True)
class AtomicCondition:
    """One conjunct of a selection: ``lhs op rhs``.

    At least one operand must be a :class:`Col`; the normalizer orients
    conditions so a lone column reference sits on the left.
    """

    lhs: Operand
    op: Comparator
    rhs: Operand

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, Col) and not isinstance(self.rhs, Col):
            raise EvaluationError("condition must reference a column")

    def evaluate(self, row: Row) -> bool:
        """Apply the condition to a product row."""
        left = row[self.lhs.index] if isinstance(self.lhs, Col) else self.lhs.value
        right = row[self.rhs.index] if isinstance(self.rhs, Col) else self.rhs.value
        return self.op.evaluate(left, right)

    def columns(self) -> Tuple[int, ...]:
        """Positions of all column operands."""
        out: List[int] = []
        if isinstance(self.lhs, Col):
            out.append(self.lhs.index)
        if isinstance(self.rhs, Col):
            out.append(self.rhs.index)
        return tuple(out)

    @property
    def is_column_pair(self) -> bool:
        """True for column-to-column conditions (join predicates)."""
        return isinstance(self.lhs, Col) and isinstance(self.rhs, Col)

    def render(self, labels: Sequence[str]) -> str:
        """Human-readable form using column display labels."""

        def side(operand: Operand) -> str:
            if isinstance(operand, Col):
                return labels[operand.index]
            return _render_constant(operand.value)

        return f"{side(self.lhs)} {self.op} {side(self.rhs)}"


def _render_constant(value: Value) -> str:
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    return str(value)


@dataclass(frozen=True)
class Occurrence:
    """One appearance of a base relation in a query or view.

    The paper's surface syntax writes ``EMPLOYEE:1``/``EMPLOYEE:2`` when
    a relation participates more than once; ``occurrence`` is that
    1-based index (1 for the common single-appearance case).
    """

    relation: str
    occurrence: int = 1

    def __str__(self) -> str:
        if self.occurrence == 1:
            return self.relation
        return f"{self.relation}:{self.occurrence}"


@dataclass(frozen=True)
class PSJQuery:
    """A conjunctive query in products/selections/projections order.

    Attributes:
        occurrences: the relation occurrences, in product order.
        conditions: selection conjuncts over the positional columns of
            the product, applied in order (the paper's Examples apply
            them as a single conjunctive sigma; order is irrelevant to
            the result but preserved for faithful traces).
        output: positions retained by the final projection, in output
            order.
    """

    occurrences: Tuple[Occurrence, ...]
    conditions: Tuple[AtomicCondition, ...]
    output: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.occurrences:
            raise EvaluationError("a query must reference at least one relation")
        if not self.output:
            raise EvaluationError("a query must project at least one column")

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------

    def relation_names(self) -> FrozenSet[str]:
        """The set of base relations referenced."""
        return frozenset(o.relation for o in self.occurrences)

    def offsets(self, schema: DatabaseSchema) -> Tuple[int, ...]:
        """Starting column offset of each occurrence in the product."""
        offsets: List[int] = []
        position = 0
        for occ in self.occurrences:
            offsets.append(position)
            position += schema.get(occ.relation).arity
        return tuple(offsets)

    def total_width(self, schema: DatabaseSchema) -> int:
        """Arity of the full product."""
        return sum(schema.get(o.relation).arity for o in self.occurrences)

    def keeps_every_column(self, schema: DatabaseSchema) -> bool:
        """True when the projection keeps every product column.

        The product of set-semantics relations is a set, and a
        selection keeps it one; a projection that keeps every column
        maps distinct rows to distinct rows.  Its answer needs no
        dedupe pass, in Python or as SQL ``DISTINCT``.
        """
        return set(self.output) == set(range(self.total_width(schema)))

    def occurrence_of_column(self, schema: DatabaseSchema,
                             index: int) -> int:
        """Index (into ``occurrences``) owning product column ``index``."""
        position = 0
        for i, occ in enumerate(self.occurrences):
            width = schema.get(occ.relation).arity
            if position <= index < position + width:
                return i
            position += width
        raise EvaluationError(f"column {index} out of range")

    def product_columns(self, schema: DatabaseSchema) -> Tuple[Column, ...]:
        """Column descriptors for the full product, with paper-style labels.

        When a relation occurs more than once, its columns are labelled
        ``ATTR:k`` (the paper's Example 3 convention); otherwise plain
        ``ATTR``.
        """
        multi = {
            name
            for name in self.relation_names()
            if sum(1 for o in self.occurrences if o.relation == name) > 1
        }
        columns: List[Column] = []
        for occ in self.occurrences:
            rel_schema = schema.get(occ.relation)
            for attribute in rel_schema.attributes:
                label = attribute.name
                if occ.relation in multi:
                    label = f"{attribute.name}:{occ.occurrence}"
                columns.append(
                    Column(label, attribute.domain,
                           (occ.relation, attribute.name))
                )
        return tuple(columns)

    def output_columns(self, schema: DatabaseSchema) -> Tuple[Column, ...]:
        """Column descriptors of the projected result."""
        product = self.product_columns(schema)
        return tuple(product[i] for i in self.output)

    def validate(self, schema: DatabaseSchema) -> None:
        """Check positional and type consistency against ``schema``.

        Raises:
            EvaluationError: for out-of-range column references.
            TypeMismatchError: for comparisons across incompatible
                domains (raised by the domain check).
        """
        width = self.total_width(schema)
        product = self.product_columns(schema)
        for condition in self.conditions:
            for index in condition.columns():
                if not 0 <= index < width:
                    raise EvaluationError(
                        f"condition references column {index}, width {width}"
                    )
            _check_condition_domains(condition, product)
        for index in self.output:
            if not 0 <= index < width:
                raise EvaluationError(
                    f"projection references column {index}, width {width}"
                )

    def describe(self, schema: DatabaseSchema) -> str:
        """A compact, human-readable rendering of the plan."""
        labels = [c.label for c in self.product_columns(schema)]
        parts = [" x ".join(str(o) for o in self.occurrences)]
        if self.conditions:
            parts.append(
                "sigma[" + " and ".join(c.render(labels) for c in self.conditions) + "]"
            )
        parts.append("pi[" + ", ".join(labels[i] for i in self.output) + "]")
        return " -> ".join(parts)


def _check_condition_domains(condition: AtomicCondition,
                             product: Sequence[Column]) -> None:
    from repro.algebra.types import Domain, domain_of_value
    from repro.errors import TypeMismatchError

    def domain_of(operand: Operand) -> Domain:
        if isinstance(operand, Col):
            return product[operand.index].domain
        return domain_of_value(operand.value)

    left, right = domain_of(condition.lhs), domain_of(condition.rhs)
    if not left.comparable_with(right):
        raise TypeMismatchError(
            f"cannot compare {left} with {right} in condition"
        )


def occurrence_counts(occurrences: Sequence[Occurrence]) -> Dict[str, int]:
    """How many times each relation appears among ``occurrences``."""
    counts: Dict[str, int] = {}
    for occ in occurrences:
        counts[occ.relation] = counts.get(occ.relation, 0) + 1
    return counts
