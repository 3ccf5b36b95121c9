"""The soundness-preserving degradation ladder.

Under overload or internal failure the mask may shrink but must never
grow (cf. Bertossi & Li's secrecy views: degradation must only ever
*hide* more).  Each rung of the ladder disables one more refinement, so
by the ablation-dominance property (every refinement only ever widens
the mask; ``tests/property/test_engine_properties.py`` and
``tests/property/test_degradation_ladder.py`` enforce it) rung N+1
delivers a subset of rung N:

    0  ``full``         the configuration as given
    1  ``no-selfjoins`` drop refinement 3 (and the existential-closure
                        extension) — the combinatorial closures go away
    2  ``no-padding``   additionally drop refinement 1 — products stop
                        multiplying meta-tuples with padded rows
    3  ``base``         additionally drop the four-case selection
                        refinement: Definitions 1-3, literally
    4  ``empty``        no derivation at all; the mask is empty and
                        nothing is delivered (fail closed)

:func:`derive_mask_resilient` walks the ladder once, from a floor rung
down: budget exhaustion (:class:`~repro.errors.BudgetExceededError`,
:class:`~repro.errors.DerivationTimeout`) always drops to the next
rung; any other internal failure drops too when the engine is
configured fail-closed, and propagates in dev mode
(``fail_closed=False``).  Each rung is tried at most once, with a
fresh budget, so the worst case is ``len(ladder) * deadline`` wall
time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.algebra.expression import PSJQuery
from repro.algebra.schema import DatabaseSchema
from repro.config import EngineConfig
from repro.errors import BudgetExceededError, DerivationTimeout
from repro.meta.catalog import ViewSnapshot
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.plan import MaskDerivation, derive_mask
from repro.metaalgebra.prune import ExcusePredicate
from repro.metaalgebra.table import MaskTable

#: Rung names, indexed by ``degradation_level``.
DEGRADATION_LEVELS: Tuple[str, ...] = (
    "full", "no-selfjoins", "no-padding", "base", "empty",
)

#: The fail-closed floor: an empty mask, delivered without derivation.
EMPTY_LEVEL = len(DEGRADATION_LEVELS) - 1


def rung_config(config: EngineConfig, level: int) -> Optional[EngineConfig]:
    """The configuration of ladder rung ``level`` (None for ``empty``).

    Rungs only ever *disable* switches, never enable them — a base
    configuration that already runs without self-joins is unchanged by
    rung 1, so the subset chain holds for any starting point.
    """
    if not 0 <= level <= EMPTY_LEVEL:
        raise ValueError(f"no ladder rung {level}")
    if level == 0:
        return config
    if level == EMPTY_LEVEL:
        return None
    changes: Dict[str, bool] = {
        "self_joins": False, "existential_closure": False,
    }
    if level >= 2:
        changes["product_padding"] = False
    if level >= 3:
        changes["refine_selection"] = False
    return config.but(**changes)


def empty_derivation(psj: PSJQuery, schema: DatabaseSchema,
                     level: int = EMPTY_LEVEL,
                     reason: Optional[str] = None) -> MaskDerivation:
    """A derivation trace denoting the empty mask (nothing delivered)."""
    product_columns = psj.product_columns(schema)
    empty_product = MaskTable(product_columns, ())
    empty_mask = MaskTable(psj.output_columns(schema), ())
    return MaskDerivation(
        admissible_views=(),
        pruned_meta={},
        selfjoin_added={},
        raw_product=empty_product,
        pruned_product=empty_product,
        projected=empty_mask,
        mask=empty_mask,
        degradation_level=level,
        degradation_reason=reason,
    )


def derive_mask_resilient(
    psj: PSJQuery,
    schema: DatabaseSchema,
    views: ViewSnapshot,
    config: EngineConfig,
    floor: int = 0,
    excuse: Optional[ExcusePredicate] = None,
    clock: Callable[[], float] = time.monotonic,
    materialize: bool = False,
) -> MaskDerivation:
    """Derive the mask at rung ``floor`` or below, degrading down the
    ladder instead of failing.

    Tries rungs ``floor`` .. ``EMPTY_LEVEL - 1`` of ``config``, each
    once, and returns the first that succeeds, its
    ``degradation_level`` set to that rung; when every rung fails (or
    ``floor`` is ``EMPTY_LEVEL``) the result is the empty mask at
    ``EMPTY_LEVEL``.  ``degradation_reason`` is the first failure.
    Raises only in dev mode (``config.fail_closed`` False), and then
    only for genuine faults: budget exhaustion is defined behaviour,
    not a failure, so it always degrades.  ``materialize`` is passed
    through to :func:`derive_mask`.
    """
    reason: Optional[str] = None
    for level in range(floor, EMPTY_LEVEL):
        rung = rung_config(config, level)
        assert rung is not None
        budget = Budget.from_config(rung, clock)
        try:
            derivation = derive_mask(
                psj, schema, views, rung,
                excuse=excuse if rung.existential_closure else None,
                budget=budget,
                materialize=materialize,
            )
            derivation.degradation_level = level
            derivation.degradation_reason = reason
            return derivation
        except (BudgetExceededError, DerivationTimeout) as error:
            reason = reason or f"{type(error).__name__}: {error}"
        except Exception as error:
            if not config.fail_closed:
                raise
            reason = reason or f"{type(error).__name__}: {error}"
    # Every rung failed: fail closed to the empty mask.
    return empty_derivation(psj, schema, reason=reason)
