"""Mask derivation: running the query's plan over the meta-relations.

This is the dashed path of the paper's Figure 2: the algebra expression
S that implements the query is transformed into S' — "a sequence of
products, followed by selections, and ending with projections" — and
applied to the meta-relations, yielding the views A' of the answer that
the user is permitted to access.

Stages (each recorded in :class:`MaskDerivation` so the experiment
harness can print the paper's intermediate tables):

1. *Stage-one pruning* — keep only meta-tuples of views the user may
   access that are "defined in these relations in their entirety"
   (the caller's :class:`~repro.meta.catalog.ViewSnapshot`).
2. *Self-join closure* (refinement 3, when enabled) — extend each
   pruned meta-relation with lossless combinations across views.
3. *Padded product* (Definition 1 + refinement 1).
4. *Dangling-reference pruning* (Section 4.1), optionally excused by
   the existential-closure extension.
5. *Selections* (Definition 2 + refinement 2), in query order.
6. *Projection* (Definition 3).
7. *Cleanup* — drop rows that deliver nothing, dedupe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.expression import PSJQuery
from repro.algebra.schema import DatabaseSchema
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.meta.catalog import ViewSnapshot
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.product import meta_product, meta_product_streaming
from repro.metaalgebra.projection import meta_project
from repro.metaalgebra.prune import (
    ExcusePredicate,
    cleanup,
    prune_dangling,
    prune_unsatisfiable,
)
from repro.metaalgebra.selection import (
    FreshVars,
    SelectionStep,
    group_conditions,
    meta_select,
)
from repro.metaalgebra.selfjoin import selfjoin_closure
from repro.metaalgebra.table import MaskTable
from repro.testing.faults import maybe_fault


@dataclass
class MaskDerivation:
    """The full trace of one mask derivation."""

    admissible_views: Tuple[str, ...]
    pruned_meta: Dict[str, Tuple[MetaTuple, ...]]
    selfjoin_added: Dict[str, Tuple[MetaTuple, ...]]
    #: The product "after replications are removed" (display form,
    #: provenance-blind).  When the derivation ``streamed``, rows
    #: destined for the dangling-reference pruning were never
    #: materialized, so this holds the post-prune table instead; ask
    #: the engine for a non-streaming trace (``AuthorizationEngine
    #: .trace``) to print the paper's full pre-prune product.
    raw_product: MaskTable
    pruned_product: MaskTable
    after_selections: List[Tuple[SelectionStep, MaskTable]] = field(
        default_factory=list
    )
    projected: Optional[MaskTable] = None
    mask: Optional[MaskTable] = None
    #: Ladder rung this derivation ran at (0 = full fidelity; see
    #: ``repro.metaalgebra.ladder.DEGRADATION_LEVELS``).
    degradation_level: int = 0
    #: The failure that forced the first descent below rung 0
    #: (``None`` at full fidelity).
    degradation_reason: Optional[str] = None
    #: True when the product stage streamed (pruning and dedupe folded
    #: into the combination loop, pre-prune rows never materialized).
    #: A ``materialize=True`` display derivation leaves it False, as
    #: does the empty mask, which runs no product at all.
    streamed: bool = False


def derive_mask(
    psj: PSJQuery,
    schema: DatabaseSchema,
    views: ViewSnapshot,
    config: EngineConfig = DEFAULT_CONFIG,
    excuse: Optional[ExcusePredicate] = None,
    budget: Optional[Budget] = None,
    materialize: bool = False,
) -> MaskDerivation:
    """Derive the permission mask of query ``psj`` over ``views``.

    The result is a function of its arguments alone: ``views`` is the
    user's admissible views (``PermissionCatalog.snapshot``), so the
    catalog is never re-read and the self-join closure ranges over
    those views only.

    Args:
        excuse: existential-closure predicate (wired by the engine when
            ``config.existential_closure`` is set).
        budget: optional resource budget checked at operator
            boundaries; exhaustion raises
            :class:`~repro.errors.BudgetExceededError` or
            :class:`~repro.errors.DerivationTimeout` for the
            degradation ladder to catch.
        materialize: build the whole product and prune it afterwards
            (``meta_product`` then ``prune_dangling``) instead of
            streaming it.  The mask is identical either way
            (``tests/property/test_meta_product_streaming.py``); only
            the display trace (``AuthorizationEngine.trace``) asks for
            this, to show the paper's pre-prune product table.
    """
    maybe_fault("plan", budget)
    relations = sorted(psj.relation_names())
    store = views.store()
    defining = views.defining_tuples()

    pruned_meta: Dict[str, Tuple[MetaTuple, ...]] = {}
    selfjoin_added: Dict[str, Tuple[MetaTuple, ...]] = {}
    for relation in relations:
        originals = views.tuples_for(relation)
        pruned_meta[relation] = originals
        if config.self_joins:
            added = selfjoin_closure(
                schema.get(relation), originals, store, budget=budget,
            )
            selfjoin_added[relation] = added
            if budget is not None:
                budget.charge_selfjoin(
                    len(originals) + len(added), relation
                )
        else:
            selfjoin_added[relation] = ()

    columns = psj.product_columns(schema)
    arities = [schema.get(o.relation).arity for o in psj.occurrences]
    operands = [
        list(pruned_meta[o.relation]) + list(selfjoin_added[o.relation])
        for o in psj.occurrences
    ]

    if not materialize:
        # Hot path: the dangling check and the provenance-aware dedupe
        # run inside the combination loop, so rows Section 4.1 would
        # prune are never materialized (and never metered).
        product = meta_product_streaming(
            columns, operands, arities, store, defining,
            padding=config.product_padding, budget=budget,
            excuse=excuse if config.existential_closure else None,
        )
        current = product
    else:
        product = meta_product(
            columns, operands, arities, store,
            padding=config.product_padding, budget=budget,
        )
        current = prune_dangling(
            product, defining,
            excuse if config.existential_closure else None,
            budget=budget,
        )

    derivation = MaskDerivation(
        admissible_views=views.names,
        pruned_meta=pruned_meta,
        selfjoin_added=selfjoin_added,
        raw_product=product.deduped(),  # display form, provenance-blind
        pruned_product=product,
        streamed=not materialize,
    )

    current = prune_unsatisfiable(current, budget=budget).deduped()
    derivation.pruned_product = current
    if budget is not None:
        budget.check_deadline("prune")

    fresh = FreshVars()
    discrete = [c.domain.discrete for c in columns]
    for step in group_conditions(psj.conditions, discrete):
        current = meta_select(current, step, config, fresh, budget=budget)
        derivation.after_selections.append((step, current))

    current = meta_project(current, psj.output, budget=budget)
    derivation.projected = current

    derivation.mask = cleanup(current, budget=budget)
    return derivation
