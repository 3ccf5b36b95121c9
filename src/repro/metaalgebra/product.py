"""The meta-relation product (Definition 1) with padding (Section 4.2).

Definition 1 concatenates every pair of meta-tuples.  The first
refinement of Section 4.2 additionally pads: for operand tuples
``(a1..am)`` and ``(b1..bn)`` it also includes ``(a1..am, ⊔..⊔)`` and
``(⊔..⊔, b1..bn)``, so that subviews of one operand survive projections
that remove the other operand's attributes.

For the n-ary products the engine builds (all products are performed
first, per Section 4.1), padding generalizes to: each occurrence
contributes either one of its meta-tuples or an all-blank pad, with the
all-pads combination excluded.  The binary padded product of the paper
is the n=2 instance.  This is exactly the shape of the paper's
Example 2 product table.

Variables are concatenated *as stored*: meta-tuples of the same view
share variables by construction (join semantics), and different views
can never collide because the catalog names variables globally.

Two implementations share that combination loop:

* :func:`meta_product` — the reference: materialize every combination,
  then dedupe.  Section 4.1's dangling-reference pruning runs
  afterwards (``repro.metaalgebra.prune``) and typically discards most
  of what was built.
* :func:`meta_product_streaming` — the hot path: the ``defining`` map
  is known before the product runs, so the dangling check and the
  provenance-aware dedupe are interleaved into the loop and rows
  destined for pruning are never materialized.  The output is
  identical to materialize-then-prune
  (``tests/property/test_meta_product_streaming.py``), but
  ``max_mask_rows`` only meters rows that actually survive.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra.relation import Column
from repro.meta.metatuple import MetaTuple, TupleId, blank_tuple, canonical_key
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.prune import ExcusePredicate, meta_is_closed
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.store import ConstraintStore
from repro.testing.faults import maybe_fault


def meta_product(
    columns: Tuple[Column, ...],
    operands: Sequence[Sequence[MetaTuple]],
    arities: Sequence[int],
    global_store: ConstraintStore,
    padding: bool = True,
    budget: Optional[Budget] = None,
) -> MaskTable:
    """Compute the (optionally padded) product of meta-tuple operands.

    Args:
        columns: column descriptors of the resulting product.
        operands: for each occurrence, its candidate meta-tuples.
        arities: the arity of each occurrence's relation.
        global_store: the merged COMPARISON store of the participating
            views; each result row receives the sub-store reachable
            from its own variables.
        padding: include blank-padded combinations (Section 4.2's first
            refinement).
        budget: optional resource budget, checked while the product is
            materialized so an oversized node aborts early.
    """
    maybe_fault("product", budget)
    if budget is not None:
        budget.check_deadline("product")
    choice_lists: List[List[Optional[MetaTuple]]] = []
    for tuples in operands:
        choices: List[Optional[MetaTuple]] = list(tuples)
        if padding:
            choices.append(None)  # the blank pad
        choice_lists.append(choices)

    pads = [blank_tuple(arity) for arity in arities]

    # Many rows share a variable set; memoize the store restriction.
    restriction_cache: dict = {}

    def restricted_store(variables: Iterable[str]) -> ConstraintStore:
        key = frozenset(variables)
        cached = restriction_cache.get(key)
        if cached is None:
            cached = global_store.restrict_closure(variables)
            restriction_cache[key] = cached
        return cached

    rows: List[MaskRow] = []
    for combination in itertools.product(*choice_lists):
        if budget is not None:
            budget.tick("product")
        if all(choice is None for choice in combination):
            continue
        parts = [
            pads[i] if choice is None else choice
            for i, choice in enumerate(combination)
        ]
        combined = parts[0]
        for part in parts[1:]:
            combined = combined.concat(part)
        if combined.is_all_blank and not combined.has_stars:
            continue
        rows.append(MaskRow(combined,
                            restricted_store(combined.variables())))
        if budget is not None:
            budget.charge_rows(len(rows), "product")

    # Provenance-aware dedupe: true replications collapse, but rows that
    # differ only in provenance stay distinct for the pruning stage.
    return MaskTable(columns, tuple(rows)).deduped(include_provenance=True)


def meta_product_streaming(
    columns: Tuple[Column, ...],
    operands: Sequence[Sequence[MetaTuple]],
    arities: Sequence[int],
    global_store: ConstraintStore,
    defining: Dict[str, FrozenSet[TupleId]],
    padding: bool = True,
    budget: Optional[Budget] = None,
    excuse: Optional[ExcusePredicate] = None,
) -> MaskTable:
    """The padded product with pruning and dedupe folded into the loop.

    Produces exactly
    ``prune_dangling(meta_product(...), defining, excuse)`` without
    ever materializing the rows those stages would discard:

    * operand meta-tuples that are exact duplicates within their
      operand are dropped up front — every combination they would
      contribute is cell-, view- and provenance-identical to one built
      from the first copy, so the dedupe below would discard it anyway;
    * each combination's canonical key is recorded *before* the
      dangling check (a pruned row must still shadow later
      replications, exactly as dedupe-then-prune does);
    * a combination whose variables reference meta-tuples outside its
      own provenance is dropped without constructing a
      :class:`MaskRow`, so ``budget.charge_rows`` meters only rows
      that survive.

    Args mirror :func:`meta_product`, plus:
        defining: the catalog's D(x) map for the admissible views.
        excuse: the existential-closure predicate (Section 4.1's
            pruning is unconditional when absent).
    """
    maybe_fault("product", budget)
    maybe_fault("prune")
    if budget is not None:
        budget.check_deadline("product")

    choice_lists: List[List[Optional[MetaTuple]]] = []
    for tuples in operands:
        seen_exact = set()
        choices: List[Optional[MetaTuple]] = []
        for candidate in tuples:
            if candidate in seen_exact:
                continue
            seen_exact.add(candidate)
            choices.append(candidate)
        if padding:
            choices.append(None)  # the blank pad
        choice_lists.append(choices)

    pads = [blank_tuple(arity) for arity in arities]

    # Many rows share a variable set; memoize the store restriction.
    restriction_cache: dict = {}

    def restricted_store(variables: Iterable[str]) -> ConstraintStore:
        key = frozenset(variables)
        cached = restriction_cache.get(key)
        if cached is None:
            cached = global_store.restrict_closure(variables)
            restriction_cache[key] = cached
        return cached

    # The dangling check depends only on (variables, provenance) —
    # memoizable, except under an excuse predicate, which may inspect
    # the whole meta-tuple.
    closed_cache: Optional[dict] = {} if excuse is None else None

    def is_closed(meta: MetaTuple) -> bool:
        if closed_cache is None:
            return meta_is_closed(meta, defining, excuse)
        key = (meta.variables(), meta.provenance)
        cached = closed_cache.get(key)
        if cached is None:
            cached = meta_is_closed(meta, defining, None)
            closed_cache[key] = cached
        return cached

    seen_keys: set = set()
    rows: List[MaskRow] = []
    for combination in itertools.product(*choice_lists):
        if budget is not None:
            budget.tick("product")
        if all(choice is None for choice in combination):
            continue
        parts = [
            pads[i] if choice is None else choice
            for i, choice in enumerate(combination)
        ]
        combined = parts[0]
        for part in parts[1:]:
            combined = combined.concat(part)
        if combined.is_all_blank and not combined.has_stars:
            continue
        store = restricted_store(combined.variables())
        key = canonical_key(combined, store, include_provenance=True)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        if not is_closed(combined):
            continue
        rows.append(MaskRow(combined, store))
        if budget is not None:
            budget.charge_rows(len(rows), "product")
    return MaskTable(columns, tuple(rows))
