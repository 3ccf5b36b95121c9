"""Optimized PSJ evaluation for the data side.

Section 4.1: "This simple strategy for implementing conjunctive queries
is not necessarily optimal.  However, ... the optimality is not so
essential for meta-relations, because they are relatively small.  For
the actual relations, where optimality is essential, a different
strategy may be implemented."

This module is that different strategy.  It never materializes the full
product.  Instead it binds occurrences one at a time, applying each
selection conjunct as soon as every column it references is bound
(predicate pushdown), and uses hash lookups for equality join
predicates whose right side binds the occurrence being added.

The result is identical to :func:`repro.algebra.evaluate.evaluate_naive`
(a property the test suite checks exhaustively); only the cost differs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.algebra.columnar import DEFAULT_CHUNK_SIZE
from repro.algebra.database import Database
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    PSJQuery,
)
from repro.algebra.relation import Relation, Row, row_getter
from repro.algebra.types import Value


def _step_plan(
    query: PSJQuery, database: Database,
) -> Tuple[List[int], List[int], List[List[AtomicCondition]]]:
    """Shared step setup: offsets, widths, and per-step conditions.

    For each occurrence step, gather the conditions that become fully
    bound once that occurrence is added: a condition joins the step
    binding the last column it references.  One pass over the
    conditions; a condition referencing no bindable column (possible
    only for malformed queries) is dropped, as before.
    """
    schema = database.schema
    offsets = query.offsets(schema)
    widths = [schema.get(o.relation).arity for o in query.occurrences]
    bounds: List[int] = []
    bound_width = 0
    for width in widths:
        bound_width += width
        bounds.append(bound_width)
    step_conditions: List[List[AtomicCondition]] = [[] for _ in widths]
    for condition in query.conditions:
        step = bisect_right(bounds, max(condition.columns(), default=-1))
        if step < len(step_conditions):
            step_conditions[step].append(condition)
    return offsets, widths, step_conditions


def _partials(query: PSJQuery, database: Database) -> Iterable[Row]:
    """Joined product rows of ``query`` that pass every condition.

    Occurrences are joined in their given order (join reordering would
    also be sound but makes traces harder to compare); the optimization
    is in *when* predicates run, not in the join order.  Partial rows
    flow through the steps as generators, so nothing is materialized
    but the hash-join build sides (one relation each), and rows come
    out in product order — the order the naive oracle
    :func:`~repro.algebra.evaluate.evaluate_naive` keeps.
    """
    query.validate(database.schema)
    offsets, widths, step_conditions = _step_plan(query, database)
    partials: Iterable[Row] = ((),)
    for step, occ in enumerate(query.occurrences):
        relation = database.instance(occ.relation)
        conditions = step_conditions[step]
        offset = offsets[step]
        equi, residual = _split_equijoin(conditions, offset, widths[step])
        if equi and relation.rows:
            partials = _hash_join_iter(partials, relation, offset, equi,
                                       residual)
        else:
            partials = _nested_loop_iter(partials, relation, conditions)
    return partials


def evaluate_optimized(query: PSJQuery, database: Database) -> Relation:
    """Evaluate ``query`` with pushdown and hash joins."""
    partials = _partials(query, database)
    columns = query.product_columns(database.schema)
    out_columns = tuple(columns[i] for i in query.output)
    return Relation(out_columns, map(row_getter(query.output), partials),
                    validate=False)


def iter_evaluate_optimized(
    query: PSJQuery, database: Database,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Tuple[Row, ...]]:
    """Evaluate ``query``, yielding deduplicated rows in chunks.

    The bounded-memory form of :func:`evaluate_optimized`: the same
    partial rows, projected and deduplicated through a seen-set
    instead of a :class:`Relation`, so the concatenated chunks equal
    ``evaluate_optimized(query, database).rows`` exactly, including
    order, and match the naive oracle ``evaluate_naive`` as a set
    (``tests/property/test_chunked_apply.py``).  At most O(chunk)
    projected rows are buffered — the irreducible memory cost is the
    hash-join build sides and the set-semantics dedupe set (one entry
    per *distinct* output row, cheaper than the rows themselves).
    """
    partials = _partials(query, database)
    if chunk_size <= 0:
        chunk_size = 1
    getter = row_getter(query.output)
    seen = set()
    add = seen.add
    chunk: List[Row] = []
    append = chunk.append
    for partial in partials:
        row = getter(partial)
        if row in seen:
            continue
        add(row)
        append(row)
        if len(chunk) >= chunk_size:
            yield tuple(chunk)
            chunk.clear()
    if chunk:
        yield tuple(chunk)


def _split_equijoin(
    conditions: Sequence[AtomicCondition],
    offset: int,
    width: int,
) -> Tuple[List[AtomicCondition], List[AtomicCondition]]:
    """Partition ``conditions`` into hashable equi-joins and the rest.

    A condition is hashable for this step when it is an equality with
    exactly one side inside the occurrence being added (columns
    ``[offset, offset+width)``) and the other side already bound or
    constant.
    """
    equi: List[AtomicCondition] = []
    residual: List[AtomicCondition] = []
    for condition in conditions:
        if not condition.op.is_equality:
            residual.append(condition)
            continue
        inside = [
            index for index in condition.columns()
            if offset <= index < offset + width
        ]
        if len(inside) == 1:
            equi.append(condition)
        else:
            residual.append(condition)
    return equi, residual


def _probe_key_parts(condition: AtomicCondition, offset: int,
                     width: int) -> Tuple[int, object]:
    """Return (new-row column, bound operand) for a hashable condition."""
    lhs, rhs = condition.lhs, condition.rhs
    if isinstance(lhs, Col) and offset <= lhs.index < offset + width:
        return lhs.index - offset, rhs
    assert isinstance(rhs, Col)
    return rhs.index - offset, lhs


def _hash_join_iter(
    partials: Iterable[Row],
    relation: Relation,
    offset: int,
    equi: Sequence[AtomicCondition],
    residual: Sequence[AtomicCondition],
) -> Iterator[Row]:
    """Extend partial rows via a hash join on the equality conditions.

    The build-side buckets (one relation) are the only retained state;
    partial rows flow through without materializing."""
    key_specs = [_probe_key_parts(c, offset, relation.arity) for c in equi]
    buckets: Dict[Tuple[Value, ...], List[Row]] = {}
    for row in relation.rows:
        key = tuple(row[col] for col, _ in key_specs)
        buckets.setdefault(key, []).append(row)

    for partial in partials:
        probe: List[Value] = []
        for _, operand in key_specs:
            if isinstance(operand, Const):
                probe.append(operand.value)
            else:
                probe.append(partial[operand.index])
        matches = buckets.get(tuple(probe), ())
        for row in matches:
            candidate = partial + row
            if all(c.evaluate(candidate) for c in residual):
                yield candidate


def _nested_loop_iter(
    partials: Iterable[Row],
    relation: Relation,
    conditions: Sequence[AtomicCondition],
) -> Iterator[Row]:
    """Extend partial rows by nested-loop product plus filtering."""
    rows = relation.rows
    for partial in partials:
        for row in rows:
            candidate = partial + row
            if all(c.evaluate(candidate) for c in conditions):
                yield candidate
