"""Sound oracle failover: backend failures never surface to callers.

The paper's masking semantics make the pure-Python evaluator a *sound
substitute* for any execution backend: the mask is derived without the
data and applied by the engine to whatever answer comes back, so where
the answer half runs is an operational choice, not a semantic one (the
parity discipline of soundlint SL008 is exactly the proof obligation).
That licence is what this module cashes in: when a backend call fails
past its retry budget — or its circuit breaker is open — the
:class:`ResilientExecutor` transparently re-evaluates the plan on the
registered oracle (:class:`~repro.backends.python.PythonBackend`)
instead of failing the request closed.  The *authorization decision is
unchanged*; only the engine that computed the answer moved, and the
move is recorded on
:class:`~repro.core.answer.AuthorizedAnswer.backend_used` /
``failover_reason`` and in the audit trail.

Fault sites wired here (see :mod:`repro.testing.faults`):

* ``backend.execute`` — every try at the primary backend;
* ``retry.sleep`` — between a failed try and the next one;
* ``breaker.probe`` — a half-open probe attempt;
* ``failover.execute`` — the oracle re-evaluation itself (a fault
  here exhausts the safety net and the engine fails closed).

Soundlint SL009 pins this executor to its oracle and to the
differential suite ``tests/test_failover.py``, the same discipline
SL005/SL008 apply to the other fast paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Tuple

from repro.algebra.columnar import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.algebra.expression import PSJQuery
from repro.algebra.relation import Relation, Row
from repro.backends.base import ExecutionBackend
from repro.errors import BackendError, BackendUnavailableError, FaultInjected
from repro.resilience.breaker import HALF_OPEN, BreakerPolicy, CircuitBreaker
from repro.testing.faults import maybe_fault

#: Exception types a retry can plausibly outwait.  Anything else —
#: validation errors, programming bugs — propagates immediately to the
#: engine's fail-closed boundary; retrying would only replay it.
_RETRYABLE = (BackendError, FaultInjected)


@dataclass(frozen=True)
class ExecutionOutcome:
    """One evaluated plan, plus where and how it actually ran."""

    answer: Relation
    #: Factory name of the backend that produced the answer.
    backend_used: str
    #: Why evaluation moved off the primary backend (None = it didn't).
    failover_reason: Optional[str]
    #: Tries at the primary backend (0 when skipped outright).
    attempts: int


@dataclass(frozen=True)
class StreamOutcome:
    """The ``execute_stream`` analogue of :class:`ExecutionOutcome`.

    ``chunks`` is already *primed*: the executor opened the stream and
    prefetched its first chunk inside the retry/breaker/failover loop,
    so establishment failures were absorbed there.  Failures after the
    first chunk raise out of the iterator itself — re-running the plan
    mid-delivery could duplicate or reorder already-yielded rows, so
    they belong to the consumer's fail-closed boundary
    (``AuthorizationEngine.authorize_stream`` ends the stream with the
    remainder withheld).
    """

    chunks: Iterator[Tuple[Row, ...]]
    backend_used: str
    failover_reason: Optional[str]
    attempts: int


class ResilientExecutor:
    """Retry, breaker, and oracle failover around one backend.

    One executor guards one engine's backend, and each tenant owns its
    engine — so the breaker is per ``(tenant, backend)`` and one
    tenant's flaky store never opens anyone else's breaker.

    A call gets ``attempts`` tries at the primary (at least one), the
    next starting as soon as the last failed: nothing sleeps between
    tries, so a run is replayable.

    When ``failover`` is False the safety net is off: retry exhaustion
    re-raises the last backend error, and an unavailable backend
    raises its typed :class:`~repro.errors.BackendUnavailableError` —
    the engine lets that type escape the fail-closed boundary, because
    a misconfigured data plane is an operator's bug, not a denial.
    """

    def __init__(
        self,
        primary: ExecutionBackend,
        oracle: ExecutionBackend,
        attempts: int = 2,
        breaker_policy: BreakerPolicy = BreakerPolicy(),
        failover: bool = True,
        standing_reason: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"need at least one attempt: {attempts}")
        self.primary = primary
        self.oracle = oracle
        self.attempts = attempts
        self.failover = failover
        #: Set when the *configured* backend could not even be
        #: constructed (see ``AuthorizationEngine``): the executor
        #: then runs permanently on the oracle and every outcome
        #: carries this reason.
        self.standing_reason = standing_reason
        self.breaker = CircuitBreaker(breaker_policy, clock)

    # ------------------------------------------------------------------
    # the two backend calls, wrapped
    # ------------------------------------------------------------------

    def execute(self, plan: PSJQuery) -> ExecutionOutcome:
        """Evaluate ``plan``, failing over to the oracle if needed."""
        answer, used, reason, attempts = self._run(
            lambda backend: backend.execute(plan)
        )
        return ExecutionOutcome(answer, used, reason, attempts)

    def execute_stream(
        self,
        plan: PSJQuery,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> StreamOutcome:
        """Open a chunked answer stream, failing over if needed.

        The whole retry/breaker/failover ladder applies to stream
        *establishment* — opening the backend's iterator and fetching
        the first chunk (see :func:`_primed_stream`).  Backends
        without a native ``execute_stream`` are materialized and
        chunked, so SQL backends and the oracle fallback both work;
        only the memory bound weakens, never the answer.
        """
        chunks, used, reason, attempts = self._run(
            lambda backend: _primed_stream(backend, plan, chunk_size)
        )
        return StreamOutcome(chunks, used, reason, attempts)

    # ------------------------------------------------------------------
    # the retry / breaker / failover loop
    # ------------------------------------------------------------------

    def _run(self, call: Callable[[ExecutionBackend], object]
             ) -> Tuple[object, str, Optional[str], int]:
        if self.standing_reason is not None:
            # The configured backend never existed; the oracle *is*
            # the primary here, with the construction failure on
            # record.  No breaker bookkeeping: there is nothing to
            # probe back to health.
            return (
                self._oracle_call(call), self.oracle.name,
                self.standing_reason, 0,
            )
        if self.primary is self.oracle:
            # The engine already runs on the oracle: retry still
            # applies (a fault may be transient), but failover would
            # re-run the identical code — skip the theatre and let
            # exhaustion propagate to the fail-closed boundary.
            return self._run_primary_only(call)
        if not self.breaker.allow():
            return self._failover(call, "circuit breaker open")
        last: Optional[Exception] = None
        attempts = 0
        for attempt in range(1, self.attempts + 1):
            if attempt > 1 and not self.breaker.allow():
                return self._failover(
                    call, "circuit breaker opened mid-retry",
                    attempts=attempts,
                )
            probing = self.breaker.state == HALF_OPEN
            attempts = attempt
            try:
                if probing:
                    maybe_fault("breaker.probe")
                maybe_fault("backend.execute")
                result = call(self.primary)
            except BackendUnavailableError as error:
                # The driver vanished between construction and now;
                # retrying cannot re-install it.
                self.breaker.record_failure()
                if not self.failover:
                    raise
                return self._failover(call, str(error),
                                      attempts=attempts)
            except _RETRYABLE as error:
                self.breaker.record_failure()
                last = error
                if attempt < self.attempts:
                    # The retry machinery's own site: a fault here
                    # ends the tries and propagates.
                    maybe_fault("retry.sleep")
                continue
            self.breaker.record_success()
            return result, self.primary.name, None, attempts
        reason = (
            f"retry exhausted after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}"
        )
        if not self.failover:
            assert last is not None
            raise last
        return self._failover(call, reason, attempts=attempts)

    def _run_primary_only(
        self, call: Callable[[ExecutionBackend], object]
    ) -> Tuple[object, str, Optional[str], int]:
        """The degenerate loop when the primary *is* the oracle."""
        last: Optional[Exception] = None
        for attempt in range(1, self.attempts + 1):
            try:
                maybe_fault("backend.execute")
                result = call(self.primary)
            except _RETRYABLE as error:
                last = error
                if attempt < self.attempts:
                    maybe_fault("retry.sleep")
                continue
            return result, self.primary.name, None, attempt
        assert last is not None
        raise last

    def _failover(
        self,
        call: Callable[[ExecutionBackend], object],
        reason: str,
        attempts: int = 0,
    ) -> Tuple[object, str, Optional[str], int]:
        """Re-run ``call`` on the oracle; sound by mask independence."""
        return (
            self._oracle_call(call), self.oracle.name, reason, attempts,
        )

    def _oracle_call(
        self, call: Callable[[ExecutionBackend], object]
    ) -> object:
        # A failure here (including an injected ``failover.execute``
        # fault) has exhausted the safety net: it propagates to the
        # engine's fail-closed boundary and the request is denied.
        maybe_fault("failover.execute")
        return call(self.oracle)


def _primed_stream(
    backend: ExecutionBackend, plan: PSJQuery, chunk_size: int,
) -> Iterator[Tuple[Row, ...]]:
    """Open ``backend``'s chunk stream and prefetch the first chunk.

    Streaming is an optional backend capability (see
    :mod:`repro.backends.base`): a backend without ``execute_stream``
    materializes its answer and is chunked here, so every backend
    participates in streamed deliveries.  The first-chunk prefetch
    pulls establishment failures — plan validation, the filtered build
    sides of the joins, an embedded-engine error — into the caller's
    retry window; once a chunk exists the stream counts as
    established, and later failures raise out of the returned iterator
    to the consumer.
    """
    native = getattr(backend, "execute_stream", None)
    if native is None:
        chunks: Iterator[Tuple[Row, ...]] = iter_chunks(
            backend.execute(plan).rows, chunk_size,
        )
    else:
        chunks = iter(native(plan, chunk_size=chunk_size))
    try:
        first = next(chunks)
    except StopIteration:
        return iter(())
    return chain((first,), chunks)
