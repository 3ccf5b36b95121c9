"""Optimized PSJ evaluation for the data side.

Section 4.1: "This simple strategy for implementing conjunctive queries
is not necessarily optimal.  However, ... the optimality is not so
essential for meta-relations, because they are relatively small.  For
the actual relations, where optimality is essential, a different
strategy may be implemented."

This module is that different strategy.  It never materializes the
product.  Each selection conjunct is sorted by the occurrences it
reads, and a plan runs in four stages:

1. *Per-occurrence filter.*  A conjunct confined to one occurrence (a
   comparison with a constant, or of two of its own columns) filters
   that relation once, before it joins, as a lazy C-level pass over
   its row tuples: ``itertools.compress`` over ``map(op, ...)``
   selectors, several conjuncts combined with ``operator.and_``.
2. *Join on the filtered side.*  Occurrences are added in their given
   order.  Cross-occurrence equalities hash the filtered side of the
   occurrence being added on ``itemgetter`` keys (composite keys
   included) and probe it with each partial row; an occurrence with no
   such equality joins by nested loop over its filtered rows.  An
   empty filtered side ends the chain.
3. *Residual closures.*  The remaining cross-occurrence comparisons
   run as closures over (partial row, new row), built once per call.
4. *Projection*, and a dedupe pass only when the projection drops a
   column: the product of sets is a set and a selection keeps it one,
   so when the output keeps every product column
   (:meth:`~repro.algebra.expression.PSJQuery.keeps_every_column`) no
   two answer rows can be equal.

Partial rows flow through the stages as generators, in the product's
row order, so the result equals
:func:`repro.algebra.evaluate.evaluate_naive` row for row, order
included (a property the test suite checks); only the cost differs.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import and_, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra.columnar import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.algebra.database import Database
from repro.algebra.expression import AtomicCondition, Col, PSJQuery
from repro.algebra.relation import Relation, Row, row_getter
from repro.algebra.schema import DatabaseSchema

#: A residual check on (partial row, row of the occurrence being added).
_Check = Callable[[Row, Row], bool]


def _partials(query: PSJQuery, database: Database) -> Iterable[Row]:
    """Joined product rows of ``query`` that pass every condition.

    Occurrences are joined in their given order (join reordering would
    also be sound but makes traces harder to compare); the optimization
    is in *where* each conjunct runs, not in the join order.  Only the
    filtered sides of the second and later occurrences are held (as
    hash buckets or a row tuple); the first occurrence's filtered rows
    and every partial row stream through.
    """
    query.validate(database.schema)
    schema = database.schema
    offsets = query.offsets(schema)
    local: List[List[AtomicCondition]] = [[] for _ in offsets]
    cross: List[List[AtomicCondition]] = [[] for _ in offsets]
    for condition in query.conditions:
        steps = {query.occurrence_of_column(schema, index)
                 for index in condition.columns()}
        # A cross-occurrence conjunct runs once its later side joins.
        (local if len(steps) == 1 else cross)[max(steps)].append(condition)

    partials: Iterable[Row] = ()
    for step, occ in enumerate(query.occurrences):
        offset = offsets[step]
        rows = _filtered(database.instance(occ.relation).rows,
                         local[step], offset)
        if step == 0:
            partials = rows
            continue
        keys = [c for c in cross[step] if c.op.is_equality]
        keep = _residual(
            [c for c in cross[step] if not c.op.is_equality], offset)
        if keys:
            probe, build = _key_getters(keys, offset)
            buckets: Dict[Any, List[Row]] = {}
            for row in rows:
                buckets.setdefault(build(row), []).append(row)
            if not buckets:
                return ()
            partials = _hash_join(partials, buckets, probe, keep)
        else:
            side = tuple(rows)
            if not side:
                return ()
            partials = _nested_loop(partials, side, keep)
    return partials


def _filtered(rows: Tuple[Row, ...], conditions: Sequence[AtomicCondition],
              offset: int) -> Iterable[Row]:
    """``rows`` passing every one-occurrence conjunct, lazily.

    Each conjunct becomes a selector, ``map(op, left, right)`` over the
    column values (or a repeated constant); several selectors are
    combined with ``operator.and_``, and ``compress`` keeps the rows
    whose flag is true.  No Python frame runs per row.
    """
    if not conditions:
        return rows

    def operand(side: Any) -> Iterable[Any]:
        if isinstance(side, Col):
            return map(itemgetter(side.index - offset), rows)
        return repeat(side.value)

    selectors = [
        map(c.op.function, operand(c.lhs), operand(c.rhs))
        for c in conditions
    ]
    return compress(rows, reduce(lambda a, b: map(and_, a, b), selectors))


def _key_getters(
    equalities: Sequence[AtomicCondition], offset: int,
) -> Tuple[Callable[[Row], Any], Callable[[Row], Any]]:
    """Probe (partial row) and build (new row) key getters.

    Each equality pairs a column of the occurrence being added with a
    column bound earlier; the two getters list the pairs in the same
    order, so a composite key compares position by position.
    """
    probe: List[int] = []
    build: List[int] = []
    for condition in equalities:
        left, right = condition.columns()
        if left >= offset:
            left, right = right, left
        probe.append(left)
        build.append(right - offset)
    return itemgetter(*probe), itemgetter(*build)


def _residual(conditions: Sequence[AtomicCondition],
              offset: int) -> Optional[_Check]:
    """One closure checking every cross-occurrence comparison, or None.

    Each comparison is oriented as ``partial[i] op row[j]`` (flipping
    the comparator when the new occurrence's column is on the left), so
    a rejected pair never builds its concatenated row.
    """
    checks: List[_Check] = []
    for condition in conditions:
        left, right = condition.columns()
        op = condition.op
        if left >= offset:
            left, right, op = right, left, op.flipped()
        checks.append(_compare(op.function, left, right - offset))
    if not checks:
        return None
    if len(checks) == 1:
        return checks[0]
    return lambda partial, row: all(check(partial, row) for check in checks)


def _compare(function: Callable[[Any, Any], bool], partial_index: int,
             row_index: int) -> _Check:
    """``function(partial[partial_index], row[row_index])`` as a check."""
    return lambda partial, row: function(partial[partial_index],
                                         row[row_index])


def _hash_join(
    partials: Iterable[Row],
    buckets: Dict[Any, List[Row]],
    probe: Callable[[Row], Any],
    keep: Optional[_Check],
) -> Iterator[Row]:
    """Extend each partial row by its bucket of the filtered side."""
    get = buckets.get
    for partial in partials:
        matches = get(probe(partial))
        if matches is None:
            continue
        if keep is None:
            yield from map(partial.__add__, matches)
        else:
            for row in matches:
                if keep(partial, row):
                    yield partial + row


def _nested_loop(
    partials: Iterable[Row],
    side: Tuple[Row, ...],
    keep: Optional[_Check],
) -> Iterator[Row]:
    """Extend each partial row by every row of the filtered side."""
    for partial in partials:
        if keep is None:
            yield from map(partial.__add__, side)
        else:
            for row in side:
                if keep(partial, row):
                    yield partial + row


def _projected(query: PSJQuery, schema: DatabaseSchema,
               partials: Iterable[Row]) -> Iterable[Row]:
    """``partials`` under the output projection; the identity is free."""
    if query.output == tuple(range(query.total_width(schema))):
        return partials
    return map(row_getter(query.output), partials)


def _distinct(rows: Iterable[Row]) -> Iterator[Row]:
    """``rows`` without repeats, in first-seen order."""
    seen = set()
    add = seen.add
    for row in rows:
        if row not in seen:
            add(row)
            yield row


def evaluate_optimized(query: PSJQuery, database: Database) -> Relation:
    """Evaluate ``query`` with per-occurrence filters and hash joins."""
    schema = database.schema
    partials = _partials(query, database)
    columns = query.product_columns(schema)
    out_columns = tuple(columns[i] for i in query.output)
    return Relation(out_columns, _projected(query, schema, partials),
                    validate=False)


def iter_evaluate_optimized(
    query: PSJQuery, database: Database,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Tuple[Row, ...]]:
    """Evaluate ``query``, yielding deduplicated rows in chunks.

    The bounded-memory form of :func:`evaluate_optimized`: the same
    rows, chunked instead of gathered into a :class:`Relation`, so the
    concatenated chunks equal ``evaluate_optimized(query,
    database).rows`` and the naive oracle ``evaluate_naive`` exactly,
    including order (``tests/property/test_chunked_apply.py``).  At
    most one chunk of projected rows is buffered.  Beyond it, the
    filtered sides of the second and later occurrences are held, and,
    only when the projection drops a column, a seen-set with one entry
    per *distinct* output row; a projection that keeps every column
    yields a set already and skips it.
    """
    schema = database.schema
    rows = _projected(query, schema, _partials(query, database))
    if not query.keeps_every_column(schema):
        rows = _distinct(rows)
    yield from iter_chunks(rows, chunk_size)
