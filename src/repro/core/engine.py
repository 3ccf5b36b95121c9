"""The authorization engine: Figure 2 made executable.

``authorize(user, query)`` runs the query's plan twice — over the
actual relations (yielding the answer A) and over the meta-relations
(yielding the mask A') — applies the mask to the answer, and attaches
the inferred permit statements.  Users direct queries at the actual
database; views never act as access windows.  The answer half runs
through a pluggable execution backend (``EngineConfig.backend``, see
:mod:`repro.backends`); mask derivation is backend-independent.

All four entry points — ``authorize``, ``authorize_batch``,
``authorize_degraded`` and ``authorize_stream`` — run one pipeline:

* one *establishment* step (:meth:`AuthorizationEngine._establish`)
  denies an EMPTY ladder floor outright; otherwise it takes the
  snapshot of the user's admissible views, derives the mask (walking
  the degradation ladder once, from the request's floor down), denies
  on an empty rung, and builds the mask, its compiled form and the
  inferred permits, all before any evaluation;
* one *mask-and-tally* step (:meth:`AuthorizationEngine._mask`) masks
  a whole answer or one streamed chunk with the compiled columnar
  kernel and returns its :class:`~repro.core.answer.DeliveryStats`
  (a mask that fails to compile fails the request closed, like any
  other internal failure; ``Mask.apply`` is only the oracle the kernel
  is checked against);
* one audit-record builder (:class:`~repro.core.audit.AuditLog`) for
  both answer types.

A whole answer is masked once; a stream is masked chunk by chunk as
the consumer iterates.  The fail-closed boundaries are
``_authorize_many`` (behind the three materialized modes),
``authorize_stream`` and its chunk generator.

Whole mask derivations, self-join closures included, are memoized
following Section 5's advice that derived results "should be stored
with the original view definitions, until these definitions are
modified".  Per request the engine takes one snapshot of the user's
admissible views; the :class:`~repro.core.cache.DerivationCache` is
keyed by ``(canonical plan key, definition serials of the snapshot)``
and a miss derives over that same snapshot, so an entry is a pure
function of its key — see ``docs/CACHING.md`` for the keys and the
transparency guarantee.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import ExecutionBackend
    from repro.core.audit import AuditLog

from repro.algebra.database import Database
from repro.algebra.expression import PSJQuery
from repro.algebra.relation import Relation, Row
from repro.backends import BACKEND_NAMES, make_backend
from repro.calculus.ast import Query, ViewDefinition
from repro.calculus.to_algebra import compile_query
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.core.answer import AuthorizedAnswer, DeliveryStats
from repro.core.cache import CacheStats, DerivationCache, DerivationKey
# apply_mask_columnar is not called here (the mask-and-tally step runs
# the kernel through CompiledMask.apply_rows); it stays bound, like
# selfjoin_closure below, so the per-layer wrappers of
# benchmarks/authbench/layers.py resolve.
from repro.core.compiled_mask import (
    CompiledMask,
    apply_mask_columnar,  # noqa: F401
    compile_mask,
)
from repro.core.mask import Mask
from repro.core.statements import InferredPermit, infer_permits
from repro.core.stream import AnswerStream, MaskedChunk
from repro.errors import (
    BackendUnavailableError,
    ParseError,
    ReproError,
)
from repro.extensions.closure import make_excuse
from repro.lang.parser import parse_statement
from repro.meta.catalog import PermissionCatalog, ViewSnapshot
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.canonical import PlanKey, canonical_plan_key
from repro.metaalgebra.ladder import (
    EMPTY_LEVEL,
    derive_mask_resilient,
    empty_derivation,
)
from repro.metaalgebra.plan import MaskDerivation
# Not called here (derive_mask computes the closure); kept bound so
# the per-layer wrappers of benchmarks/authbench/layers.py resolve.
from repro.metaalgebra.selfjoin import selfjoin_closure  # noqa: F401
from repro.resilience.breaker import BreakerPolicy
from repro.resilience.failover import (
    ExecutionOutcome,
    ResilientExecutor,
    StreamOutcome,
)
from repro.testing.faults import maybe_fault


@dataclass(frozen=True)
class Decision:
    """What a request may see, settled before its answer is evaluated.

    The establishment step's result, shared by the whole-answer and
    the streamed mode.  A denial has the empty derivation and mask, no
    compiled form and no permits, and carries its reason in ``error``.
    """

    derivation: MaskDerivation
    mask: Mask
    #: The columnar kernel's form of ``mask``; ``None`` on a denial,
    #: which evaluates nothing to mask.
    compiled: Optional[CompiledMask]
    permits: Tuple[InferredPermit, ...]
    cache_hit: bool
    error: Optional[str] = None


def _failure(error: Exception) -> str:
    """The recorded reason of a request that failed closed."""
    return f"{type(error).__name__}: {error}"


class AuthorizationEngine:
    """Binds a database, a permission catalog, and a configuration."""

    def __init__(
        self,
        database: Database,
        catalog: Optional[PermissionCatalog] = None,
        config: EngineConfig = DEFAULT_CONFIG,
        audit: Optional["AuditLog"] = None,
    ) -> None:
        self.database = database
        self.catalog = catalog or PermissionCatalog(database.schema)
        self.config = config
        #: Where plans run (see repro.backends).  Built once per
        #: engine from ``config.backend``.  An *unknown* backend name
        #: always fails construction — misconfiguration should never
        #: masquerade as a denial.  A *known-but-unavailable* backend
        #: (e.g. duckdb without its driver) also fails construction
        #: unless ``config.backend_failover`` is on, in which case the
        #: engine runs permanently on the Python oracle and every
        #: answer records the standing failover reason.
        standing_reason: Optional[str] = None
        try:
            self.backend: "ExecutionBackend" = make_backend(
                config.backend, database
            )
        except BackendUnavailableError as error:
            if not config.backend_failover \
                    or config.backend not in BACKEND_NAMES:
                raise
            self.backend = make_backend("python", database)
            standing_reason = f"unavailable at construction: {error}"
        oracle: "ExecutionBackend" = (
            self.backend if self.backend.name == "python"
            else make_backend("python", database)
        )
        #: Retry/breaker/failover wrapper around ``backend`` — the
        #: engine's single evaluation entry point (see
        #: ``repro.resilience``).  One executor (and breaker) per
        #: engine, and one engine per tenant in the serving layer, so
        #: breaker state is per (tenant, backend).
        self.executor = ResilientExecutor(
            primary=self.backend,
            oracle=oracle,
            attempts=config.backend_retry_attempts,
            breaker_policy=BreakerPolicy(
                failure_threshold=config.breaker_failure_threshold,
                recovery_ms=config.breaker_recovery_ms,
            ),
            failover=config.backend_failover,
            standing_reason=standing_reason,
        )
        #: Optional audit trail; every authorize() appends a record.
        self.audit = audit
        #: LRU cache of mask derivations (see repro.core.cache).  Its
        #: keys carry this catalog's definition serials, so it is
        #: never shared with another engine.
        self._derivation_cache = DerivationCache(
            config.derivation_cache_size
        )
        # A query's plan and canonical key are pure functions of the
        # (immutable) schema, so they are memoized unconditionally;
        # repeated statements skip the compiler entirely.  The memo
        # lock makes LRU bookkeeping safe under concurrent authorize
        # calls from serving worker threads.
        self._memo_lock = threading.RLock()
        self._plans: "OrderedDict[Query, Tuple[PSJQuery, PlanKey]]" = \
            OrderedDict()
        self._plans_capacity = max(
            512, 4 * max(config.derivation_cache_size, 0)
        )

    # ------------------------------------------------------------------
    # convenience pass-throughs
    # ------------------------------------------------------------------

    def define_view(self, view: Union["ViewDefinition", str]) -> None:
        """Define a view (AST or surface text)."""
        self.catalog.define_view(view)

    def permit(self, view_name: str, user: str) -> None:
        """Grant ``user`` access to ``view_name``."""
        self.catalog.permit(view_name, user)

    def revoke(self, view_name: str, user: str) -> None:
        """Withdraw a grant."""
        self.catalog.revoke(view_name, user)

    def stats(self) -> CacheStats:
        """Running statistics of the derivation cache."""
        return self._derivation_cache.stats

    # ------------------------------------------------------------------
    # the authorization process (Section 5)
    # ------------------------------------------------------------------

    def authorize(self, user: str,
                  query: Union[Query, str]) -> AuthorizedAnswer:
        """Answer ``query`` for ``user``, masked to their permissions.

        **Fail-closed contract** (``config.fail_closed``, the default):
        past parsing and plan validation — which still raise, so the
        caller can tell a malformed request from a denial — no internal
        failure ever propagates.  Budget exhaustion re-derives down the
        degradation ladder (the mask shrinks, never grows); anything
        else yields the empty-mask answer with
        :attr:`AuthorizedAnswer.error` set.  With ``fail_closed=False``
        (development), internal errors re-raise instead.
        """
        return self._authorize_many(user, (query,), "authorize")[0]

    def authorize_batch(
        self, user: str, queries: Iterable[Union[Query, str]]
    ) -> Tuple[AuthorizedAnswer, ...]:
        """Authorize many queries for one user, sharing derived work.

        Statements are parsed once per distinct text, compiled once per
        distinct query, and the mask derivation, answer evaluation,
        masking, and permit inference run once per distinct *canonical
        plan* — repeated or plan-equivalent requests reuse the batch's
        own answer (and the engine's derivation cache when enabled).
        The result is element-wise equal to looping ``authorize`` over
        ``queries``; ``tests/test_derivation_cache.py`` enforces that
        equality.

        The fail-closed boundary applies per element: a failure while
        processing one query yields an empty-mask answer for that
        element and does not disturb its neighbours (failed elements
        are never memoized, so a transient fault cannot replay).
        """
        return self._authorize_many(user, queries, "authorize_batch")

    def authorize_degraded(
        self, user: str, query: Union[Query, str], floor: int,
        reason: Optional[str] = None,
    ) -> AuthorizedAnswer:
        """Answer ``query`` at degradation-ladder rung ``floor`` or
        below — the serving layer's admission-control shed path.

        Under overload a server trades fidelity for latency instead of
        queueing unboundedly: the mask is derived with the (cheaper)
        configuration of rung ``floor`` (see
        :func:`repro.metaalgebra.ladder.rung_config`), walking down
        from there once if that rung fails too; by the ladder-subset
        invariant it delivers a subset of the full answer — shedding
        can only ever *hide* more.  Two refinements keep the cost of
        shedding low:

        * below the ``EMPTY_LEVEL`` floor, a live cached full-fidelity
          derivation is still served (a hit costs almost nothing, so
          there is nothing to shed);
        * the ``EMPTY_LEVEL`` floor is a denial, with ``error`` set to
          ``reason``, whether or not a cache entry is live: it takes
          no snapshot, looks nothing up and evaluates nothing.  A shed
          whose every rung failed closed skips evaluation too.

        Degraded derivations are never stored in the cache, so an
        overload can never poison post-overload answers.  The same
        fail-closed contract as :meth:`authorize` applies.
        """
        return self._authorize_many(
            user, (query,), "authorize_degraded", floor, reason
        )[0]

    def _authorize_many(
        self, user: str, queries: Iterable[Union[Query, str]], who: str,
        floor: int = 0, reason: Optional[str] = None,
    ) -> Tuple[AuthorizedAnswer, ...]:
        """The pipeline behind every materialized authorize mode.

        ``authorize`` is a batch of one and ``authorize_degraded`` a
        batch of one with a ladder ``floor``.  Per element: parse,
        compile and key (errors raise), then — inside the one
        fail-closed boundary — establish, evaluate and mask, then
        exactly one audit record.  An element whose canonical plan already succeeded in
        this call reuses that whole answer.
        """
        floor = max(0, min(floor, EMPTY_LEVEL))
        shed_reason = reason or f"admission shed to rung {floor}"
        parsed: Dict[str, Query] = {}
        done: Dict[PlanKey, AuthorizedAnswer] = {}
        answers: List[AuthorizedAnswer] = []
        for item in queries:
            if isinstance(item, str):
                query = parsed.get(item)
                if query is None:
                    query = parsed[item] = self._parse_query(item, who)
            else:
                query = item
            plan, key = self._plan(query)
            try:
                authorized = done.get(key)
                if authorized is None:
                    decision = self._establish(user, plan, key, floor,
                                               shed_reason)
                    outcome = (None if decision.error is not None
                               else self._evaluate(plan))
                    authorized = done[key] = self._answer(
                        user, query, plan, decision, outcome
                    )
                else:
                    authorized = replace(authorized, query=query,
                                         plan=plan, cache_hit=True)
            except BackendUnavailableError:
                # Only reachable with backend_failover off: a vanished
                # backend is the operator's misconfiguration, not a
                # denial, so the typed error escapes the boundary.
                raise
            except Exception as error:  # the fail-closed boundary
                if not self.config.fail_closed:
                    raise
                authorized = self._answer(
                    user, query, plan, self._denial(plan, _failure(error))
                )
            if self.audit is not None:
                self.audit.record(authorized)
            answers.append(authorized)
        return tuple(answers)

    def _evaluate(self, plan: PSJQuery) -> ExecutionOutcome:
        """Evaluate ``plan`` through the resilient executor.

        The single answer-evaluation site of the authorize pipeline.
        The ``engine.evaluate`` fault site fires here, *outside* the
        executor, and stays fail-closed (it models a failure in the
        engine itself); the ``backend.execute`` site fires inside the
        executor's retry loop, so injected backend faults are retried
        and failed over like real ones.  Only an executor whose safety
        net is exhausted or disabled lets a failure propagate to the
        fail-closed boundary.
        """
        maybe_fault("engine.evaluate")
        return self.executor.execute(plan)

    def authorize_stream(
        self, user: str, query: Union[Query, str],
        chunk_size: Optional[int] = None,
    ) -> AnswerStream:
        """Answer ``query`` for ``user`` as a bounded-memory stream.

        The iterator mode of :meth:`authorize`: the same establishment
        step (snapshot, derivation and cache, denial, compiled mask,
        permits), the same mask-and-tally step and the same
        fail-closed contract — but the answer is evaluated, masked and
        delivered chunk-by-chunk, so it is never materialized whole.
        The concatenated chunks are byte-identical to
        :attr:`AuthorizedAnswer.delivered` for the same request
        (``tests/test_stream.py``).

        Divergences forced by streaming:

        * a failure *after* the first chunk cannot retry or fail over
          (re-running the plan could duplicate already-delivered
          rows); the stream ends early with
          :attr:`AnswerStream.error` set and the remainder withheld —
          fail-closed, per prefix.  Establishment failures still get
          the full retry/breaker/failover ladder.
        * ``config.max_stream_rows`` (via
          :meth:`repro.metaalgebra.budget.Budget.charge_stream`)
          bounds the rows delivered, counted after masking (rows a
          dropping mask withholds are not charged); the offending
          chunk is withheld.
        * the audit record is written when the stream *ends* —
          exhausted, failed, or closed by the consumer — covering
          exactly the delivered prefix.

        Args:
            chunk_size: rows per chunk; defaults to
                ``config.stream_chunk_size``.
        """
        query = self._parse_query(query, "authorize_stream")
        plan, key = self._plan(query)
        size = (
            chunk_size if chunk_size is not None and chunk_size > 0
            else self.config.stream_chunk_size
        )
        outcome: Optional[StreamOutcome] = None
        try:
            decision = self._establish(user, plan, key)
            if decision.error is None:
                outcome = self._evaluate_stream(plan, size)
        except BackendUnavailableError:
            # See authorize(): typed misconfiguration escapes.
            raise
        except Exception as error:  # the fail-closed boundary
            if not self.config.fail_closed:
                raise
            decision = self._denial(plan, _failure(error))
        stream = AnswerStream(
            user=user,
            query=query,
            plan=plan,
            derivation=decision.derivation,
            mask=decision.mask,
            permits=decision.permits,
            chunk_size=size,
            arity=len(plan.output),
            cache_hit=decision.cache_hit,
            degradation_level=decision.derivation.degradation_level,
            error=decision.error,
            backend_used=outcome.backend_used if outcome else None,
            failover_reason=outcome.failover_reason if outcome else None,
        )
        if outcome is not None:
            assert decision.compiled is not None
            stream._chunks = self._stream_chunks(stream, outcome.chunks,
                                                 decision.compiled)
        elif self.audit is not None:
            # Denied or failed before any chunk: the stream is born
            # finished, so it is audited now (live streams audit when
            # their generator ends).
            self.audit.record_stream(stream)
        return stream

    def _stream_chunks(
        self,
        stream: AnswerStream,
        chunks: Iterator[Tuple[Row, ...]],
        compiled: CompiledMask,
    ) -> Iterator[MaskedChunk]:
        """Mask and deliver answer chunks; the stream's engine half.

        Runs lazily as the caller iterates.  Everything downstream of
        establishment lives inside this generator's fail-closed
        boundary: an evaluation failure mid-answer, a masking failure,
        or stream-budget exhaustion ends the stream with
        ``stream.error`` set and the remainder withheld —
        already-delivered chunks cannot be recalled, and re-execution
        could duplicate them, so the sound move is to stop.  The
        ``finally`` clause also catches ``GeneratorExit`` (the
        consumer abandoned the stream), so the audit trail always gets
        exactly one record covering what was actually delivered.
        """
        budget = Budget.from_config(self.config)
        delivered = 0
        try:
            for chunk in chunks:
                masked, stats = self._mask(chunk, compiled)
                delivered += stats.total_rows
                if budget is not None:
                    budget.charge_stream(delivered, "authorize_stream")
                stream.account(stats)
                yield masked
        except Exception as error:  # the fail-closed boundary
            if not self.config.fail_closed:
                stream.finished = True
                raise
            stream.error = _failure(error)
        finally:
            if not stream.finished:
                stream.finished = True
                if self.audit is not None:
                    self.audit.record_stream(stream)

    def _evaluate_stream(self, plan: PSJQuery,
                         chunk_size: int) -> StreamOutcome:
        """Open ``plan``'s chunk stream through the resilient executor.

        Same fault-site discipline as :meth:`_evaluate`: the
        ``engine.evaluate`` site fires here, outside the executor, and
        the executor's ladder covers stream establishment (iterator
        creation plus the first chunk — see
        :func:`repro.resilience.failover._primed_stream`).
        """
        maybe_fault("engine.evaluate")
        return self.executor.execute_stream(plan, chunk_size=chunk_size)

    def prepare(self, query: Union[Query, str]) -> Query:
        """Parse and plan ``query`` without touching any data.

        The serving layer's front door: malformed or unsafe statements
        fail *here*, synchronously on the submitting thread, before a
        request consumes a queue slot — so worker threads only ever
        see statements that are known to compile (the plan memo keeps
        the repeated compile free).
        """
        parsed = self._parse_query(query, "prepare")
        self._plan(parsed)
        return parsed

    def deny(self, user: str, query: Union[Query, str],
             reason: str) -> AuthorizedAnswer:
        """An audited, empty-mask denial of ``query``.

        Like :meth:`authorize_degraded` at the EMPTY floor, this never
        consults the derivation cache and never evaluates the query:
        the cost is bounded by plan compilation (memoized) and the
        answer is guaranteed empty.  Unlike it, nothing runs inside a
        fail-closed boundary, so the serving layer uses it for
        admission hard sheds and for failing one request closed after
        a worker-side fault.
        """
        parsed = self._parse_query(query, "deny")
        plan, _ = self._plan(parsed)
        authorized = self._answer(user, parsed, plan,
                                  self._denial(plan, reason))
        if self.audit is not None:
            self.audit.record(authorized)
        return authorized

    def derive(self, user: str,
               query: Union[Query, str]) -> MaskDerivation:
        """Derive the mask only (no data touched) — with full trace."""
        query = self._parse_query(query, "derive")
        plan, key = self._plan(query)
        views, cache_key = self._snapshot(user, plan, key)
        derivation, _ = self._derive(plan, views, cache_key)
        return derivation

    def trace(self, user: str,
              query: Union[Query, str]) -> MaskDerivation:
        """A display-fidelity derivation: materializing product.

        The streaming product never materializes the rows Section 4.1
        would prune, so a streamed derivation cannot print the paper's
        pre-prune product table.  ``trace`` re-derives through
        ``derive_mask(..., materialize=True)`` — bypassing the
        derivation cache — purely for explanation output; the final
        mask is identical either way.
        """
        query = self._parse_query(query, "trace")
        plan, _ = self._plan(query)
        views = self.catalog.snapshot(user, plan.relation_names())
        return self._derive_uncached(plan, views, materialize=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_query(query: Union[Query, str], who: str) -> Query:
        if isinstance(query, str):
            parsed = parse_statement(query)
            if not isinstance(parsed, Query):
                raise ParseError(f"{who} expects a retrieve statement")
            return parsed
        return query

    def _plan(self, query: Query) -> Tuple[PSJQuery, PlanKey]:
        """``query``'s plan and its canonical key, LRU-memoized (the
        schema is immutable for the engine's lifetime, so neither ever
        goes stale).

        Compilation runs outside the memo lock; a racing thread at
        worst compiles the same plan twice and the second store wins —
        both entries are equal, so either may be served.
        """
        with self._memo_lock:
            entry = self._plans.get(query)
            if entry is not None:
                self._plans.move_to_end(query)
                return entry
        plan = compile_query(query, self.database.schema)
        entry = (plan, canonical_plan_key(plan, self.database.schema))
        with self._memo_lock:
            self._plans[query] = entry
            while len(self._plans) > self._plans_capacity:
                self._plans.popitem(last=False)
        return entry

    def _snapshot(self, user: str, plan: PSJQuery, key: PlanKey
                  ) -> Tuple[ViewSnapshot, DerivationKey]:
        """``user``'s admissible views for ``plan``, read once, and the
        cache key they and the plan key name."""
        views = self.catalog.snapshot(user, plan.relation_names())
        return views, (key, views.serials)

    def _establish(
        self, user: str, plan: PSJQuery, key: PlanKey, floor: int = 0,
        shed_reason: Optional[str] = None,
    ) -> Decision:
        """Decide what ``user`` may see of ``plan``'s answer, before
        any of it is evaluated: the establishment step of every mode.

        The ``EMPTY_LEVEL`` floor delivers nothing, so it is a denial
        decided before anything is read.  Otherwise this reads
        ``user``'s admissible views once, derives the mask at ladder
        rung ``floor`` or below (through the cache), and turns an
        empty rung into a denial.  A derived mask gets its
        :class:`~repro.core.mask.Mask`, its compiled form and the
        inferred permits, which the mask-and-tally step and the answer
        envelopes then share.  A mask that fails to compile raises to
        the caller's fail-closed boundary.
        """
        if floor >= EMPTY_LEVEL:
            return self._denial(plan, shed_reason or "denied")
        views, cache_key = self._snapshot(user, plan, key)
        derivation, hit = self._derive(plan, views, cache_key, floor,
                                       shed_reason)
        if derivation.degradation_level >= EMPTY_LEVEL:
            # Every rung failed closed: a shed reports its reason, a
            # full-fidelity request why the ladder failed.
            reason = shed_reason if floor else derivation.degradation_reason
            return self._denial(plan, reason or "denied")
        assert derivation.mask is not None
        mask = Mask.from_table(derivation.mask)
        return Decision(
            derivation=derivation,
            mask=mask,
            compiled=self._compiled_for(mask, derivation, cache_key),
            permits=infer_permits(mask),
            cache_hit=hit,
        )

    def _denial(self, plan: PSJQuery, reason: str) -> Decision:
        """The decision to deliver nothing, with ``reason`` recorded.

        Built from parts that cannot themselves fail — an empty mask
        over the plan's output columns — so the fail-closed boundary
        never recurses into another failure.  Also the shape of an
        admission-control hard shed.
        """
        derivation = empty_derivation(
            plan, self.database.schema, reason=reason
        )
        assert derivation.mask is not None
        return Decision(
            derivation=derivation,
            mask=Mask.from_table(derivation.mask),
            compiled=None,
            permits=(),
            cache_hit=False,
            error=reason,
        )

    def _answer(self, user: str, query: Query, plan: PSJQuery,
                decision: Decision,
                outcome: Optional[ExecutionOutcome] = None,
                ) -> AuthorizedAnswer:
        """The whole answer: ``outcome`` masked by ``decision``.

        A denial has no outcome; it delivers nothing from an empty
        answer relation.
        """
        if outcome is None:
            answer = Relation(plan.output_columns(self.database.schema),
                              (), validate=False)
            delivered: MaskedChunk = ()
            stats = DeliveryStats.of(delivered, answer.arity)
        else:
            assert decision.compiled is not None
            answer = outcome.answer
            delivered, stats = self._mask(answer.rows, decision.compiled)
        return AuthorizedAnswer(
            user=user,
            query=query,
            plan=plan,
            answer=answer,
            mask=decision.mask,
            delivered=delivered,
            permits=decision.permits,
            derivation=decision.derivation,
            tally=stats,
            cache_hit=decision.cache_hit,
            degradation_level=decision.derivation.degradation_level,
            error=decision.error,
            backend_used=outcome.backend_used if outcome else None,
            failover_reason=outcome.failover_reason if outcome else None,
        )

    def _mask(self, rows: Sequence[Row], compiled: CompiledMask
              ) -> Tuple[MaskedChunk, DeliveryStats]:
        """Mask a whole answer's rows, or one chunk of them, and tally
        what is delivered: the mask-and-tally step of every mode.

        The columnar kernel masks the row tuple directly and reports
        the statistics from its visibility lanes.
        """
        tally: List[DeliveryStats] = []
        masked = compiled.apply_rows(
            rows, drop_fully_masked=self.config.drop_fully_masked_rows,
            tally=tally,
        )
        return masked, tally[0]

    def _compiled_for(self, mask: Mask, derivation: MaskDerivation,
                      cache_key: DerivationKey) -> CompiledMask:
        """The columnar kernel's compiled form of ``mask``.

        Amortized exactly like the derivation itself: the compiled mask
        is attached to the derivation's cache entry under the same
        key, so a cache hit skips compilation and an eviction drops
        both together.  Degraded derivations are never cached, so
        neither is their compiled form.
        """
        cache = self._derivation_cache
        cached = derivation.degradation_level == 0
        if cached:
            compiled = cache.get_compiled(cache_key)
            if isinstance(compiled, CompiledMask):
                return compiled
        compiled = compile_mask(mask)
        if cached:
            cache.put_compiled(cache_key, compiled)
        return compiled

    def _derive(
        self, plan: PSJQuery, views: ViewSnapshot, key: DerivationKey,
        floor: int = 0, reason: Optional[str] = None,
    ) -> Tuple[MaskDerivation, bool]:
        """The mask derivation of ``plan`` over ``views`` at ladder rung
        ``floor`` or below, cached under ``key``; the bool reports a
        cache hit.

        The cache is treated as an untrusted accelerator: a lookup
        failure degrades to a fresh derivation, a stored entry that is
        no longer a well-formed derivation is discarded as a miss, and
        a store failure loses only future hits — never the answer.  A
        live full-fidelity entry is served at any floor (a hit costs
        nothing to shed), but only full-fidelity derivations are
        stored: a degraded mask is transient by design, and caching
        one would keep serving it after the overload passed.  A
        degraded derivation that no failure forced below ``floor``
        records ``reason``.
        """
        cache = self._derivation_cache
        try:
            cached = cache.get(key)
        except ReproError:
            if not self.config.fail_closed:
                raise
            cached = None
        if self._valid_cached(cached):
            assert isinstance(cached, MaskDerivation)
            return cached, True
        derivation = self._derive_uncached(plan, views, floor)
        if derivation.degradation_level == 0:
            try:
                cache.put(key, derivation)
            except ReproError:
                if not self.config.fail_closed:
                    raise
        elif derivation.degradation_reason is None:
            derivation.degradation_reason = reason
        return derivation, False

    @staticmethod
    def _valid_cached(cached: object) -> bool:
        """Structural validation of a cache entry before serving it."""
        return (
            isinstance(cached, MaskDerivation)
            and cached.mask is not None
        )

    def _derive_uncached(
        self, plan: PSJQuery, views: ViewSnapshot, floor: int = 0,
        materialize: bool = False,
    ) -> MaskDerivation:
        config = self.config
        excuse = None
        # Only the full-fidelity rung keeps the extension.
        if config.existential_closure and not floor:
            try:
                excuse = make_excuse(views, plan, self.database.schema)
            except ReproError:
                # The excuse only ever *keeps* rows the pruning would
                # drop, so deriving without it stays sound (the mask
                # shrinks).  Dev mode wants the traceback instead.
                if not config.fail_closed:
                    raise
                excuse = None
        return derive_mask_resilient(
            plan,
            self.database.schema,
            views,
            config,
            floor=floor,
            excuse=excuse,
            materialize=materialize,
        )
