"""Existential-closure excuse for dangling references (extension).

Section 4.1 prunes every product row that references a meta-tuple
outside the row.  The paper's own EST example shows this is sometimes
too strict: EST's two EMPLOYEE' meta-tuples are identical, so a row
containing one of them satisfies the other *existentially* — any
employee tuple matching ``(*, x4*, ⊔)`` witnesses the second membership
subformula with the same binding of x4.

The excuse predicate implemented here keeps a dangling row when every
missing defining meta-tuple is *subsumed* by a tuple present in the
row: same relation, and cell-by-cell the missing tuple's content is
blank or identical (same constant, same variable) to the present one.
Under that condition the present segment's match is itself a witness
for the missing subformula, so the row's subview is contained in the
view as required.

This goes beyond the paper (which simply prunes); it is disabled by
default and switched on with ``EngineConfig(existential_closure=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.algebra.expression import PSJQuery
from repro.algebra.schema import DatabaseSchema
from repro.meta.catalog import ViewSnapshot
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple, TupleId
from repro.metaalgebra.prune import ExcusePredicate
from repro.testing.faults import maybe_fault


def make_excuse(
    views: ViewSnapshot,
    psj: PSJQuery,
    schema: DatabaseSchema,
) -> ExcusePredicate:
    """Build the subsumption-based excuse predicate for one derivation
    over the admissible ``views``."""
    maybe_fault("closure")
    # Index the original meta-tuples of the admissible views by id.
    originals: Dict[TupleId, Tuple[str, MetaTuple]] = {}
    for view in views.views:
        for relation, meta in view.tuples:
            (tuple_id,) = meta.provenance
            originals[tuple_id] = (relation, meta)

    # Occurrence segments of the product row: (relation, offset, width).
    segments: List[Tuple[str, int, int]] = []
    offset = 0
    for occ in psj.occurrences:
        width = schema.get(occ.relation).arity
        segments.append((occ.relation, offset, width))
        offset += width

    def excuse(row: MetaTuple, missing_id: TupleId) -> bool:
        entry = originals.get(missing_id)
        if entry is None:
            return False
        relation, missing = entry
        for seg_relation, seg_offset, seg_width in segments:
            if seg_relation != relation:
                continue
            segment = row.cells[seg_offset:seg_offset + seg_width]
            if _subsumes(segment, missing):
                return True
        return False

    return excuse


def _subsumes(segment: Sequence[MetaCell], missing: MetaTuple) -> bool:
    """Is ``missing``'s selection implied, cell for cell, by ``segment``?

    The missing tuple's cell must be blank or carry exactly the content
    of the present cell (stars are irrelevant: subsumption concerns the
    selection, not the projection).
    """
    for present_cell, missing_cell in zip(segment, missing.cells):
        if missing_cell.is_blank:
            continue
        if missing_cell.content != present_cell.content:
            return False
    return True
