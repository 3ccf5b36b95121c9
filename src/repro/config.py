"""Engine configuration.

:class:`EngineConfig` collects every behavioural switch of the
authorization engine in one frozen dataclass.  The defaults implement
the full model of the paper: base Definitions 1-3 plus all three
Section 4.2 refinements.  Each switch exists so the ablation
experiments (DESIGN.md E9/E11) can measure the contribution of the
corresponding refinement, and so the base model can be studied in
isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class EngineConfig:
    """Behavioural switches for mask derivation and delivery.

    Attributes:
        refine_selection: apply the four-case analysis of Section 4.2
            (clear / retain / conjoin / discard) during meta-selection.
            When False, selection follows Definition 2 literally and
            always conjoins the query predicate into the meta-tuple.
        product_padding: extend meta-products with blank-padded tuples
            ``(a1..am, ⊔..⊔)`` and ``(⊔..⊔, b1..bn)`` so subviews of one
            operand survive projections that remove the other operand's
            attributes (first refinement of Section 4.2).
        self_joins: infer additional subviews by losslessly joining
            meta-tuples of different views stored in the same
            meta-relation (third refinement of Section 4.2).
        existential_closure: keep a product row whose variable refers to
            a meta-tuple outside the row when that missing meta-tuple is
            subsumed by one present in the row.  This is an extension
            beyond the paper (see ``repro.extensions.closure``); the
            paper prunes all such rows.
        require_star_for_selection: Definition 2 only selects meta-tuples
            whose referenced cells are starred.  The refined engine
            always admits the *provably sound* unstarred outcomes
            (mu implies lambda: retain; mu equivalent to lambda: clear)
            — see ``repro.metaalgebra.selection``.  Setting this flag to
            False additionally clears unstarred cells whenever lambda
            implies mu, which delivers query-predicate-selected subsets
            of views (INGRES-flavoured, violates the strict Theorem and
            the non-interference property); it exists for the
            Section 6(3) experiments only.  The sound default is True.
        drop_fully_masked_rows: omit answer rows in which every cell is
            masked from the delivered relation.  The paper's examples
            mask cell-wise; dropping empty rows is presentation sugar.
        derivation_cache_size: LRU capacity of the mask-derivation
            cache (entries keyed by canonical plan key and the
            definition serials of the user's admissible views, so a
            grant or definition change yields a new key — see
            ``docs/CACHING.md``).  0 disables caching; the delivered
            answers are identical either way (the transparency
            guarantee enforced by ``tests/test_derivation_cache.py``).
        max_mask_rows: budget — cap on meta-tuples materialized by any
            single meta-algebra operator node during one derivation
            (0 = unlimited).  Exceeding it triggers the degradation
            ladder, not a failure (see ``docs/RESILIENCE.md``).
        max_selfjoin_pool: budget — cap on the per-relation self-join
            pool (original meta-tuples plus closure) a derivation will
            consume (0 = unlimited).  Distinct from the closure's own
            cap of 64 generated tuples per relation
            (``selfjoin_closure``'s ``max_tuples``), which
            soft-truncates *generation*; this limit makes an oversized
            pool degrade to the no-self-join rung instead.
        derivation_deadline_ms: budget — wall-time limit per derivation
            attempt (0 = no deadline).  Each ladder rung gets a fresh
            deadline, so the worst case is ``rungs * deadline``.
            Exhausting any budget re-derives at the next cheaper rung
            (full refinements → no self-joins → no padding → base
            model → empty mask), each tried once and each provably
            delivering a subset of the rung above.
        fail_closed: catch any internal error past parsing/validation
            inside ``authorize``/``authorize_batch`` and return the
            empty-mask answer (with ``AuthorizedAnswer.error`` set)
            instead of propagating.  Set to False in development to get
            the original traceback.
        backend: which execution backend evaluates answers —
            ``"python"`` (the in-process reference evaluator),
            ``"sqlite"`` (plans compiled to SQL over an embedded
            stdlib sqlite3 store), or ``"duckdb"`` (the same compiler
            over the optional duckdb driver).  Delivered answers are
            backend-independent (``tests/property/
            test_backend_parity.py``); mask derivation always runs
            in-process.  See ``repro.backends`` and
            ``docs/BACKENDS.md``.
        backend_failover: on backend retry exhaustion, an open circuit
            breaker, or a backend that is unavailable (at construction
            or at execute time), transparently re-evaluate on the
            registered Python oracle instead of failing the request —
            sound because mask derivation is backend-independent; the
            move is recorded on ``AuthorizedAnswer.backend_used`` /
            ``failover_reason`` and in the audit trail.  When False,
            retry exhaustion fails closed as before and backend
            unavailability raises the typed
            :class:`~repro.errors.BackendUnavailableError`.  See
            ``repro.resilience`` and ``docs/RESILIENCE.md``.
        backend_retry_attempts: total tries per backend call before
            failover (>= 1; 1 disables retry).  A retry follows the
            failed try at once, with no backoff.
        breaker_failure_threshold: consecutive backend failures that
            open this engine's circuit breaker (each tenant engine has
            its own breaker, so one tenant's flaky store never opens
            another's).
        breaker_recovery_ms: breaker cool-down before a half-open
            probe is allowed.
        stream_chunk_size: rows per delivered chunk in
            :meth:`~repro.core.engine.AuthorizationEngine.
            authorize_stream` (and the default chunk granularity of
            the streaming evaluator).  Memory held per request is
            O(chunk) plus the evaluator's dedupe set.
        max_stream_rows: budget — cap on total rows a single streamed
            answer may deliver (0 = unlimited).  Exceeding it fails
            the *remainder* of the stream closed: chunks already
            yielded stand, the stream ends with
            :attr:`~repro.core.stream.AnswerStream.error` set.
    """

    refine_selection: bool = True
    product_padding: bool = True
    self_joins: bool = True
    existential_closure: bool = False
    require_star_for_selection: bool = True
    drop_fully_masked_rows: bool = False
    derivation_cache_size: int = 128
    max_mask_rows: int = 0
    max_selfjoin_pool: int = 0
    derivation_deadline_ms: float = 0.0
    fail_closed: bool = True
    backend: str = "python"
    backend_failover: bool = True
    backend_retry_attempts: int = 2
    breaker_failure_threshold: int = 5
    breaker_recovery_ms: float = 1000.0
    stream_chunk_size: int = 8192
    max_stream_rows: int = 0

    def but(self, **changes: Any) -> "EngineConfig":
        """Return a copy of this config with ``changes`` applied."""
        return replace(self, **changes)


#: The configuration used throughout the paper's examples.
DEFAULT_CONFIG = EngineConfig()

#: Definitions 1-3 only, with none of the Section 4.2 refinements.
BASE_MODEL_CONFIG = EngineConfig(
    refine_selection=False,
    product_padding=False,
    self_joins=False,
    existential_closure=False,
)
