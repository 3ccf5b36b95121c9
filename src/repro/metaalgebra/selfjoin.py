"""The self-join refinement (third refinement of Section 4.2).

"Let r and s be meta-tuples in relation R' that do not belong to the
same view.  Assume that the subviews defined by r and s can participate
in a lossless join (for example, both subviews include the key of this
relation)."  The combined meta-tuple authorizes the attributes of both
subviews for the tuples satisfying both selections — Example 3 combines
SAE ``(*, ⊔, *)`` with EST ``(*, x4*, ⊔)`` into ``(*, x4*, *)`` so that
Brown may see names, titles *and* salaries of same-title employees.

Implementation notes:

* Losslessness is checked via declared keys: both tuples must star
  every key attribute of the relation (the paper's "for example").
  Keyless relations produce no self-joins.
* Cell combination is conjunction of the two selections with the union
  of the projections: blanks absorb, equal constants merge, and
  conflicting constants cancel the pair.  Combinations that would
  require equating a variable with a constant or with another view's
  variable are skipped: the variable's meaning is anchored in its other
  defining meta-tuples, which a per-tuple substitution cannot reach
  soundly.
* Combination runs to a fixpoint (bounded by the config), so three
  pairwise-joinable views combine into one tuple; each combined tuple
  carries the union of view names and provenance, which keeps the
  dangling-reference pruning exact.

"Self-joins need not be generated for every query; once generated, they
should be stored with the original view definitions" — ``derive_mask``
computes the closure over a derivation's admissible views, under its
budget, and the engine's derivation cache keeps it with the derivation,
keyed by those views' definition serials.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.algebra.schema import RelationSchema
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple, canonical_key
from repro.metaalgebra.budget import Budget
from repro.predicates.store import ConstraintStore
from repro.testing.faults import maybe_fault


def selfjoin_closure(
    schema: RelationSchema,
    tuples: Sequence[MetaTuple],
    store: ConstraintStore,
    max_rounds: int = 4,
    max_tuples: int = 64,
    budget: Optional[Budget] = None,
) -> Tuple[MetaTuple, ...]:
    """All combined meta-tuples derivable from ``tuples`` by self-joins.

    Returns only the *new* tuples (the originals are kept alongside by
    the caller).  The closure is truncated at ``max_tuples`` combined
    tuples — it is worst-case exponential in the number of
    pairwise-joinable views, and dropping combinations is always sound
    (the mask merely authorizes less).
    """
    maybe_fault("selfjoin", budget)
    if budget is not None:
        budget.check_deadline("selfjoin")
    key_positions = schema.key_indices()
    if not key_positions:
        return ()

    pool: List[MetaTuple] = list(tuples)
    # Provenance-aware keys: combinations built from different original
    # tuples must all survive (Example 3 needs both EST+SAE combos).
    seen = {canonical_key(t, store, include_provenance=True) for t in pool}
    added: List[MetaTuple] = []

    for _ in range(max_rounds):
        new_tuples: List[MetaTuple] = []
        for i, left in enumerate(pool):
            if len(added) + len(new_tuples) >= max_tuples:
                break
            for right in pool[i + 1:]:
                if budget is not None:
                    budget.tick("selfjoin")
                combined = combine(left, right, key_positions)
                if combined is None:
                    continue
                key = canonical_key(combined, store,
                                    include_provenance=True)
                if key not in seen:
                    seen.add(key)
                    new_tuples.append(combined)
                    if len(added) + len(new_tuples) >= max_tuples:
                        break
        if not new_tuples:
            break
        pool.extend(new_tuples)
        added.extend(new_tuples)
        if budget is not None:
            budget.charge_selfjoin(len(pool), "selfjoin")
        if len(added) >= max_tuples:
            break

    return tuple(added)


def combine(
    left: MetaTuple,
    right: MetaTuple,
    key_positions: Sequence[int],
) -> Optional[MetaTuple]:
    """Combine two meta-tuples per the self-join rule, or None.

    Preconditions checked here: disjoint view sets (the paper's "do not
    belong to the same view"), both tuples starring the key, and
    cell-wise combinability.
    """
    if left.views & right.views:
        return None
    for position in key_positions:
        if not left.cells[position].starred:
            return None
        if not right.cells[position].starred:
            return None

    cells: List[MetaCell] = []
    for a, b in zip(left.cells, right.cells):
        combined = _combine_cell(a, b)
        if combined is None:
            return None
        cells.append(combined)

    return MetaTuple(
        views=left.views | right.views,
        cells=tuple(cells),
        provenance=left.provenance | right.provenance,
    )


def _combine_cell(a: MetaCell, b: MetaCell) -> Optional[MetaCell]:
    starred = a.starred or b.starred
    if a.is_blank:
        return MetaCell(b.content, starred)
    if b.is_blank:
        return MetaCell(a.content, starred)
    if a.is_constant and b.is_constant:
        if a.const_value == b.const_value:
            return MetaCell(a.content, starred)
        return None  # contradictory selections: the join is empty
    # Variable against variable/constant would need substitution that
    # reaches the variable's other defining meta-tuples; skip soundly.
    return None
