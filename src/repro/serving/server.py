"""A thread-pool batch server fronting ``AuthorizationEngine``.

The server turns the engine's single-caller API into a concurrent,
multi-tenant service with three load-bearing properties:

**Batching, not just threading.**  Requests are queued per
``(tenant, user)`` and drained in batches through
:meth:`~repro.core.engine.AuthorizationEngine.authorize_batch`, whose
plan-key memo runs parsing, evaluation, mask derivation, and permit
inference once per distinct canonical plan in the batch.  Under a
skewed (Zipf) workload most of a batch collapses onto a few plans, so
throughput scales well past what thread parallelism alone could give
a GIL-bound process.

**Fail-closed per request.**  A fault while processing a batch denies
the affected requests (empty mask, ``error`` set) and touches nothing
else: neighbours in the batch, other tenants, and the shared caches
are unaffected.  The deterministic fault sites ``serving.submit`` and
``serving.batch`` (:mod:`repro.testing.faults`) let tests drive this
path on demand.

**Overload sheds fidelity, never soundness.**  An
:class:`~repro.serving.admission.AdmissionController` maps backlog to
a degradation floor read at *drain* time; overloaded batches derive
masks at a cheaper ladder rung (each a subset of the full mask), and
past the hard limit requests are answered immediately with the EMPTY
rung instead of queueing unboundedly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import TracebackType
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from repro.algebra.database import Database
from repro.calculus.ast import Query
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.core.answer import AuthorizedAnswer
from repro.core.audit import AuditLog
from repro.core.cache import CacheStats
from repro.core.engine import AuthorizationEngine
from repro.errors import ReproError, ServingError
from repro.meta.catalog import PermissionCatalog
from repro.resilience.breaker import OPEN
from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionSnapshot,
)
from repro.serving.tenants import Tenant, TenantRegistry
from repro.testing.faults import maybe_fault

_BatchKey = Tuple[str, str]  # (tenant, user)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of an :class:`AuthorizationServer`."""

    #: Worker threads draining the request queues.
    workers: int = 4
    #: Largest batch drained through ``authorize_batch`` at once.
    max_batch: int = 32
    #: How long a freshly scheduled queue may wait to fill before a
    #: worker drains it (milliseconds).  0 drains on arrival; a few
    #: milliseconds lets closed-loop bursts coalesce into large
    #: plan-duplicated batches (the queue is drained early the moment
    #: it reaches ``max_batch``, and lingering never delays shutdown).
    batch_linger_ms: float = 0.0
    #: Per-tenant derivation-cache capacity, passed as each tenant
    #: engine's ``derivation_cache_size`` (0 disables caching).
    cache_capacity: int = 1024
    #: Backlog thresholds for admission control.
    admission: AdmissionPolicy = AdmissionPolicy()
    #: Per-tenant audit-trail capacity (None keeps every record;
    #: 0 disables auditing entirely).
    audit_capacity: Optional[int] = 4096
    #: Engine configuration for tenants the server constructs.
    engine: EngineConfig = DEFAULT_CONFIG
    #: Per-request budget, measured from admission (milliseconds;
    #: 0 disables deadlines).  A request still queued when its budget
    #: runs out is *not* left to stall the drainer at full cost: it is
    #: answered at ``deadline_floor`` instead.
    request_deadline_ms: float = 0.0
    #: Ladder rung for deadline-expired requests.  The default EMPTY
    #: rung is a denial (``error`` set), answered immediately without
    #: evaluating, whether or not a cache entry is live (the caller
    #: has likely stopped waiting); a lower rung trades some drainer
    #: time for a partial answer.
    deadline_floor: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker: {self.workers}")
        if self.max_batch < 1:
            raise ValueError(f"need max_batch >= 1: {self.max_batch}")
        if self.batch_linger_ms < 0:
            raise ValueError(
                f"linger cannot be negative: {self.batch_linger_ms}"
            )
        if self.request_deadline_ms < 0:
            raise ValueError(
                f"deadline cannot be negative: {self.request_deadline_ms}"
            )
        if not 1 <= self.deadline_floor <= 4:
            raise ValueError(
                f"deadline floor must be a non-zero ladder rung: "
                f"{self.deadline_floor}"
            )


@dataclass
class _Pending:
    """One queued request: the statement and its promised answer."""

    query: Union[Query, str]
    future: "Future[AuthorizedAnswer]" = field(default_factory=Future)
    #: Monotonic timestamp past which this request is deadline-expired
    #: (None = no deadline configured).
    deadline: Optional[float] = None


@dataclass(frozen=True)
class ServerTelemetry:
    """Point-in-time operational counters of a server."""

    served: int
    batches: int
    batched_requests: int
    largest_batch: int
    admission: AdmissionSnapshot
    cache_stats: Dict[str, CacheStats]

    @property
    def mean_batch(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches


class AuthorizationServer:
    """Concurrent multi-tenant front end over authorization engines.

    Lock ordering: the server's condition (``_work``) may be held while
    taking the admission controller's lock, never the reverse.  Engine
    and cache locks are leaves — nothing is held when they are taken.
    This discipline is machine-checked: the fields ``_work`` guards and
    the permitted acquisition order are declared in
    ``repro.analysis.registry`` (``GUARDED_FIELDS`` / ``LOCK_ORDER``)
    and enforced by soundlint rule SL011.
    """

    def __init__(self, config: ServerConfig = ServerConfig()) -> None:
        self.config = config
        self.tenants = TenantRegistry()
        self._admission = AdmissionController(config.admission)
        self._work = threading.Condition()
        self._queues: Dict[_BatchKey, Deque[_Pending]] = {}
        self._ready: Deque[_BatchKey] = deque()
        self._scheduled: Set[_BatchKey] = set()
        # Keys currently being drained by a worker.  Exactly one
        # worker drains a given (tenant, user) at a time: requests
        # arriving meanwhile accumulate in the queue and drain as one
        # batch when the worker finishes — this is what forms the
        # large plan-duplicated batches the throughput story rests on
        # (and it keeps each user's requests in FIFO order).
        self._busy: Set[_BatchKey] = set()
        # When each ready key was scheduled (only tracked when the
        # config lingers): a worker leaves the key to fill until it
        # reaches ``max_batch`` or its linger deadline passes.
        self._stamps: Dict[_BatchKey, float] = {}
        self._closing = False
        self._served = 0
        self._batches = 0
        self._batched_requests = 0
        self._largest_batch = 0
        self._workers = tuple(
            threading.Thread(
                target=self._worker_loop,
                name=f"authz-worker-{index}",
                daemon=True,
            )
            for index in range(config.workers)
        )
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # tenant management
    # ------------------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        database: Database,
        catalog: Optional[PermissionCatalog] = None,
        backend: Optional[str] = None,
    ) -> Tenant:
        """Create and register a tenant with a serving-grade engine:
        a derivation cache of ``cache_capacity`` entries and its own
        audit trail, fully isolated from every other tenant.

        ``backend`` overrides the server-wide execution backend for
        this tenant only (see ``EngineConfig.backend``), so a fleet
        can mix in-process and SQL-backed tenants; each tenant gets
        its own backend instance either way.  Unknown or unavailable
        backend names fail here, synchronously, never at request time.
        """
        audit: Optional[AuditLog] = None
        if self.config.audit_capacity is None \
                or self.config.audit_capacity > 0:
            audit = AuditLog(self.config.audit_capacity)
        engine_config = self.config.engine.but(
            derivation_cache_size=self.config.cache_capacity
        )
        if backend is not None:
            engine_config = engine_config.but(backend=backend)
        engine = AuthorizationEngine(
            database, catalog=catalog, config=engine_config, audit=audit,
        )
        return self.tenants.add(Tenant(name=name, engine=engine))

    def adopt_tenant(self, name: str,
                     engine: AuthorizationEngine) -> Tenant:
        """Register an existing engine (e.g. a scenario's) as a
        tenant.  The engine keeps whatever cache and audit log it was
        built with."""
        return self.tenants.add(Tenant(name=name, engine=engine))

    # ------------------------------------------------------------------
    # the data plane
    # ------------------------------------------------------------------

    def submit(self, tenant: str, user: str,
               query: Union[Query, str]) -> "Future[AuthorizedAnswer]":
        """Enqueue one request; the future resolves to its
        :class:`~repro.core.answer.AuthorizedAnswer`.

        Raises :class:`~repro.errors.UnknownTenantError` for an
        unregistered tenant, parse/planning errors for statements
        that do not compile (synchronously, before any queueing — so
        workers only ever see valid plans), and
        :class:`~repro.errors.ServingError` after :meth:`close`; past
        admission, failures resolve the future fail-closed rather
        than raising.
        """
        maybe_fault("serving.submit")
        owner = self.tenants.get(tenant)
        deadline: Optional[float] = None
        if self.config.request_deadline_ms > 0:
            deadline = time.monotonic() \
                + self.config.request_deadline_ms / 1e3
        pending = _Pending(
            query=owner.engine.prepare(query), deadline=deadline,
        )
        key: _BatchKey = (tenant, user)
        with self._work:
            if self._closing:
                raise ServingError(
                    "cannot submit to a closed authorization server"
                )
            admitted = self._admission.admit()
            if admitted:
                queue = self._queues.setdefault(key, deque())
                queue.append(pending)
                if key not in self._scheduled \
                        and key not in self._busy:
                    self._schedule(key)
                else:
                    # Already scheduled: the arrival may have filled
                    # the queue to ``max_batch``, making a lingering
                    # key drainable right now.
                    self._work.notify()
        if not admitted:
            # Hard shed: deny immediately instead of queueing past the
            # limit.  ``deny`` touches no data and no cache, so the
            # cost of refusing is bounded no matter how hot the query;
            # the answer is audited, empty, and sound — overload
            # cannot widen access.
            answer = owner.engine.deny(
                user, pending.query,
                reason="admission shed: queue full",
            )
            pending.future.set_result(answer)
            with self._work:
                self._served += 1
        return pending.future

    def authorize(self, tenant: str, user: str,
                  query: Union[Query, str]) -> AuthorizedAnswer:
        """Synchronous convenience: submit and wait."""
        return self.submit(tenant, user, query).result()

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------

    def _schedule(self, key: _BatchKey) -> None:
        """Mark ``key`` ready for a worker.  Caller holds ``_work``
        (a registered held-method: SL011 checks every call site)."""
        self._scheduled.add(key)
        self._ready.append(key)
        if self.config.batch_linger_ms > 0:
            self._stamps[key] = time.monotonic()
        self._work.notify()

    def _next_batch(
        self,
    ) -> Tuple[Optional[_BatchKey], List[_Pending]]:
        """Block for the next ``(key, batch)``; ``(None, [])`` means
        the server is closed and fully drained.

        A ready key is drainable immediately when the server does not
        linger, is closing, or the key's queue reached ``max_batch``;
        otherwise workers leave it to fill until its linger deadline
        and sleep exactly until the earliest deadline among the ready
        keys.
        """
        linger = self.config.batch_linger_ms / 1e3
        with self._work:
            while True:
                now = time.monotonic() if linger > 0.0 else 0.0
                chosen: Optional[_BatchKey] = None
                deadline: Optional[float] = None
                for key in self._ready:
                    if (
                        linger == 0.0
                        or self._closing
                        or len(self._queues[key])
                        >= self.config.max_batch
                    ):
                        chosen = key
                        break
                    ready_at = self._stamps[key] + linger
                    if ready_at <= now:
                        chosen = key
                        break
                    if deadline is None or ready_at < deadline:
                        deadline = ready_at
                if chosen is not None:
                    self._ready.remove(chosen)
                    self._scheduled.discard(chosen)
                    self._stamps.pop(chosen, None)
                    self._busy.add(chosen)
                    queue = self._queues[chosen]
                    batch: List[_Pending] = []
                    while queue and len(batch) < self.config.max_batch:
                        batch.append(queue.popleft())
                    if not queue:
                        del self._queues[chosen]
                    self._batches += 1
                    self._batched_requests += len(batch)
                    if len(batch) > self._largest_batch:
                        self._largest_batch = len(batch)
                    return chosen, batch
                if self._closing and not self._ready:
                    return None, []
                if deadline is not None:
                    self._work.wait(deadline - now)
                else:
                    self._work.wait()

    def _worker_loop(self) -> None:
        while True:
            key, batch = self._next_batch()
            if key is None:
                return
            try:
                self._process(key, batch)
            finally:
                self._release_key(key)

    def _release_key(self, key: _BatchKey) -> None:
        """End this worker's exclusive drain of ``key``; reschedule it
        if requests accumulated while the batch was processing."""
        with self._work:
            self._busy.discard(key)
            if self._queues.get(key) and key not in self._scheduled:
                self._schedule(key)

    def _process(self, key: _BatchKey, batch: List[_Pending]) -> None:
        """Drain one batch through the tenant's engine.

        Typed failures (:class:`~repro.errors.ReproError`, which
        includes injected faults) deny the affected requests
        fail-closed; anything broader resolves the futures with the
        exception — so callers are never left hanging — releases the
        admission slots, and re-raises.
        """
        tenant_name, user = key
        # Tenants are never removed, so this lookup cannot fail for a
        # key that reached the queue.
        engine = self.tenants.get(tenant_name).engine
        try:
            try:
                maybe_fault("serving.batch")
                # An open breaker means this tenant's batches are
                # failing over to the in-process oracle; raise *its*
                # floor (and only its) so the extra in-process load
                # sheds derivation cost, not cluster-wide fidelity.
                self._admission.set_tenant_floor(
                    tenant_name,
                    self.config.admission.breaker_floor
                    if engine.executor.breaker.state == OPEN else 0,
                )
                floor = max(
                    self._admission.floor(exclude=len(batch)),
                    self._admission.tenant_floor(tenant_name),
                )
                # Deadline-expired requests degrade instead of
                # stalling the drainer at full cost: the caller's
                # budget is gone, so the ladder answers them at
                # ``deadline_floor`` (EMPTY by default — no
                # evaluation at all) while fresh neighbours still
                # get the full batch path.
                fresh: List[_Pending] = []
                expired: List[_Pending] = []
                now = time.monotonic()
                for pending in batch:
                    if pending.deadline is not None \
                            and now >= pending.deadline:
                        expired.append(pending)
                    else:
                        fresh.append(pending)
                if expired:
                    self._admission.note_deadline_shed(len(expired))
                    rung = max(floor, self.config.deadline_floor)
                    for pending in expired:
                        pending.future.set_result(
                            engine.authorize_degraded(
                                user, pending.query, rung,
                                reason="request deadline exceeded",
                            )
                        )
                queries = [pending.query for pending in fresh]
                if floor == 0:
                    answers = engine.authorize_batch(user, queries)
                else:
                    # Overloaded: derive at a cheaper rung.  Degraded
                    # masks are subsets of the full-fidelity mask, so
                    # shedding narrows delivery, never widens it.
                    self._admission.note_shed(floor, len(fresh))
                    answers = tuple(
                        engine.authorize_degraded(
                            user, query, floor,
                            reason=f"admission shed to rung {floor}",
                        )
                        for query in queries
                    )
                for pending, answer in zip(fresh, answers):
                    pending.future.set_result(answer)
            except ReproError as error:
                reason = f"{type(error).__name__}: {error}"
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_result(
                            engine.deny(user, pending.query,
                                        reason=reason)
                        )
        except BaseException as error:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            self._admission.release(len(batch))
            raise
        self._admission.release(len(batch))
        with self._work:
            self._served += len(batch)

    # ------------------------------------------------------------------
    # lifecycle and observability
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain every queued request, then stop the workers.
        Idempotent; further submits raise ``ServingError``."""
        with self._work:
            self._closing = True
            self._work.notify_all()
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "AuthorizationServer":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def telemetry(self) -> ServerTelemetry:
        """Operational counters: throughput, batching, admission, and
        per-tenant cache statistics."""
        with self._work:
            served = self._served
            batches = self._batches
            batched = self._batched_requests
            largest = self._largest_batch
        stats = {
            name: self.tenants.get(name).engine.stats()
            for name in self.tenants.names()
        }
        return ServerTelemetry(
            served=served,
            batches=batches,
            batched_requests=batched,
            largest_batch=largest,
            admission=self._admission.snapshot(),
            cache_stats=stats,
        )
