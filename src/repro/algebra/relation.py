"""In-memory relations with set semantics.

A :class:`Relation` pairs a sequence of column descriptors with a set
of rows.  Rows are plain tuples of values; columns carry a display
label and a domain.  The algebra operators of the paper — product,
selection, projection — are provided as methods; they are *positional*,
matching the way the meta-algebra of Section 4 manipulates meta-tuples.

Relations are immutable: every operator returns a new relation.  Row
order is preserved deterministically (first-seen order) so experiment
output is stable, while duplicate rows are removed, giving the set
semantics the relational model requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra.schema import RelationSchema
from repro.algebra.types import Domain, Value
from repro.errors import EvaluationError, TypeMismatchError

#: A database row.
Row = Tuple[Value, ...]


@dataclass(frozen=True)
class Column:
    """A column of a derived relation: a display label plus a domain.

    ``source`` records the base attribute the column descends from
    (``("EMPLOYEE", "NAME")``), which the masking layer uses to explain
    delivered portions in terms of the original scheme.
    """

    label: str
    domain: Domain
    source: Tuple[str, str] = ("", "")

    def renamed(self, label: str) -> "Column":
        """Return a copy of this column with a new display label."""
        return Column(label, self.domain, self.source)

    def __str__(self) -> str:
        return self.label


class Relation:
    """An immutable relation instance with set semantics."""

    __slots__ = ("columns", "rows", "_row_set", "_label_index")

    def __init__(self, columns: Sequence[Column], rows: Iterable[Row],
                 validate: bool = True) -> None:
        self.columns: Tuple[Column, ...] = tuple(columns)
        deduped: List[Row] = []
        seen = set()
        for row in rows:
            # Operator pipelines overwhelmingly feed tuples already;
            # re-allocating each one dominated construction at 10^6
            # rows, so only genuinely foreign sequences are converted.
            if type(row) is not tuple:
                row = tuple(row)
            if validate:
                self._validate_row(row)
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        self.rows: Tuple[Row, ...] = tuple(deduped)
        self._row_set = seen
        self._label_index: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_schema(cls, schema: RelationSchema,
                    rows: Iterable[Row]) -> "Relation":
        """Build a base relation instance for ``schema``."""
        columns = tuple(
            Column(a.name, a.domain, (schema.name, a.name))
            for a in schema.attributes
        )
        return cls(columns, rows)

    def _validate_row(self, row: Row) -> None:
        if len(row) != len(self.columns):
            raise TypeMismatchError(
                f"row arity {len(row)} != relation arity {len(self.columns)}"
            )
        for value, column in zip(row, self.columns):
            if not column.domain.contains(value):
                raise TypeMismatchError(
                    f"value {value!r} out of domain {column.domain} "
                    f"for column {column.label!r}"
                )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def cardinality(self) -> int:
        """Number of (distinct) rows."""
        return len(self.rows)

    def labels(self) -> Tuple[str, ...]:
        """Column display labels."""
        return tuple(c.label for c in self.columns)

    def index_of(self, label: str) -> int:
        """Position of the (first) column labelled ``label``."""
        index = self._label_index
        if index is None:
            index = {}
            for i, column in enumerate(self.columns):
                index.setdefault(column.label, i)
            self._label_index = index
        try:
            return index[label]
        except KeyError:
            raise EvaluationError(
                f"no column labelled {label!r}"
            ) from None

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._row_set

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        """Set equality: same columns (labels+domains) and same row set."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            tuple((c.label, c.domain) for c in self.columns)
            == tuple((c.label, c.domain) for c in other.columns)
            and self._row_set == other._row_set
        )

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash((self.labels(), frozenset(self._row_set)))

    def same_rows(self, other: "Relation") -> bool:
        """Row-set equality regardless of column labels."""
        return self._row_set == other._row_set

    # ------------------------------------------------------------------
    # the three operators of the paper's conjunctive algebra
    # ------------------------------------------------------------------

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product (Definition 1's data-side counterpart)."""
        columns = self.columns + other.columns
        rows = [left + right for left in self.rows for right in other.rows]
        return Relation(columns, rows, validate=False)

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Selection by an arbitrary row predicate."""
        return Relation(
            self.columns,
            (row for row in self.rows if predicate(row)),
            validate=False,
        )

    def project(self, indices: Sequence[int]) -> "Relation":
        """Projection onto the columns at ``indices`` (in that order)."""
        for index in indices:
            if not 0 <= index < self.arity:
                raise EvaluationError(f"projection index {index} out of range")
        columns = tuple(self.columns[i] for i in indices)
        return Relation(columns, map(row_getter(indices), self.rows),
                        validate=False)

    # ------------------------------------------------------------------
    # supplementary operators (used by baselines and the oracle)
    # ------------------------------------------------------------------

    def rename(self, labels: Sequence[str]) -> "Relation":
        """Return this relation with new column labels."""
        if len(labels) != self.arity:
            raise EvaluationError("rename arity mismatch")
        columns = tuple(
            column.renamed(label)
            for column, label in zip(self.columns, labels)
        )
        return Relation(columns, self.rows, validate=False)

    def union(self, other: "Relation") -> "Relation":
        """Set union; arities must agree."""
        if self.arity != other.arity:
            raise EvaluationError("union arity mismatch")
        return Relation(self.columns, list(self.rows) + list(other.rows),
                        validate=False)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; arities must agree."""
        if self.arity != other.arity:
            raise EvaluationError("difference arity mismatch")
        return Relation(
            self.columns,
            (row for row in self.rows if row not in other._row_set),
            validate=False,
        )

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; arities must agree."""
        if self.arity != other.arity:
            raise EvaluationError("intersection arity mismatch")
        return Relation(
            self.columns,
            (row for row in self.rows if row in other._row_set),
            validate=False,
        )

    def __repr__(self) -> str:
        return (
            f"Relation({', '.join(self.labels())}; "
            f"{self.cardinality} rows)"
        )


def row_getter(indices: Sequence[int]) -> Callable[[Row], Row]:
    """A tuple-returning projection function for ``indices``.

    ``operator.itemgetter`` runs the index walk in C — measurably
    faster than a per-row generator expression — but returns a bare
    value for a single index and cannot express the empty projection;
    this helper papers over both edges.  Shared by
    :meth:`Relation.project` and the evaluators.
    """
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda row: (row[index],)
    getter: Callable[[Row], Row] = itemgetter(*indices)
    return getter


def empty_like(relation: Relation) -> Relation:
    """An empty relation with the same columns as ``relation``."""
    return Relation(relation.columns, (), validate=False)
