"""Unit and differential-parity tests for ``repro.resilience``.

This is the parity suite soundlint SL009 pins the
``ResilientExecutor`` to: every failover path must deliver answers
identical to its registered oracle (``PythonBackend``) — the property
that makes failover an availability mechanism rather than a soundness
hole.  Alongside the parity pins, the suite unit-tests the
executor's retry attempts, the ``CircuitBreaker`` state machine
(with a fake clock), and the engine-level wiring: ``backend_used`` /
``failover_reason`` on answers and audit records, construction-time
failover, and the typed ``BackendUnavailableError`` escape when
failover is disabled.
"""

from __future__ import annotations

import pytest

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.backends import PythonBackend, SQLiteBackend, make_backend
from repro.config import DEFAULT_CONFIG
from repro.core.audit import AuditLog
from repro.core.engine import AuthorizationEngine
from repro.errors import (
    BackendError,
    BackendUnavailableError,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    ResilientExecutor,
)
from repro.testing import faults


def small_database():
    emp = make_schema(
        "EMP", [("NAME", STRING), ("DEPT", STRING), ("SAL", INTEGER)],
        key=["NAME"],
    )
    return build_database([emp], {
        "EMP": [("amy", "toys", 30), ("bob", "tools", 45),
                ("cal", "toys", 52)],
    })


def make_engine(**config_changes):
    engine = AuthorizationEngine(
        small_database(),
        config=DEFAULT_CONFIG.but(**config_changes),
        audit=AuditLog(),
    )
    engine.define_view("view V (EMP.NAME, EMP.DEPT)")
    engine.permit("V", "u")
    return engine


QUERY = "retrieve (EMP.NAME, EMP.DEPT)"


class FakeClock:
    """A hand-advanced monotonic clock for breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FlakyBackend:
    """A backend that fails a scripted number of times, then works."""

    name = "flaky"

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def load(self, database):
        self.inner.load(database)

    def execute(self, plan):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise BackendError("scripted failure")
        return self.inner.execute(plan)


class TestRetryPolicy:
    """The executor's retry policy is a count of back-to-back tries."""

    def test_validation(self):
        database = small_database()
        oracle = PythonBackend(database)
        with pytest.raises(ValueError):
            ResilientExecutor(primary=oracle, oracle=oracle, attempts=0)


class TestCircuitBreaker:
    def make(self, threshold=2, recovery_ms=1000.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=threshold,
                          recovery_ms=recovery_ms),
            clock,
        )
        return breaker, clock

    def test_opens_at_threshold(self):
        breaker, _ = self.make(threshold=3)
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opened_count == 1

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_single_probe(self):
        breaker, clock = self.make(threshold=1, recovery_ms=500.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(0.6)
        # First caller after the cool-down claims the probe...
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        # ...and everyone else keeps failing over meanwhile.
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make(threshold=1, recovery_ms=500.0)
        breaker.record_failure()
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.allow()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(recovery_ms=-1.0)


class TestResilientExecutor:
    """Direct executor tests over a scripted flaky backend."""

    def make(self, failures, attempts=2, failover=True,
             threshold=5, recovery_ms=1000.0):
        database = small_database()
        oracle = PythonBackend(database)
        flaky = FlakyBackend(SQLiteBackend(database), failures)
        clock = FakeClock()
        executor = ResilientExecutor(
            primary=flaky,
            oracle=oracle,
            attempts=attempts,
            breaker_policy=BreakerPolicy(
                failure_threshold=threshold, recovery_ms=recovery_ms,
            ),
            failover=failover,
            clock=clock,
        )
        plan = AuthorizationEngine(database)._plan(
            AuthorizationEngine._parse_query(QUERY, "test")
        )[0]
        return executor, flaky, clock, plan, oracle

    def test_clean_call_uses_the_primary(self):
        executor, flaky, _, plan, oracle = self.make(failures=0)
        outcome = executor.execute(plan)
        assert outcome.backend_used == "flaky"
        assert outcome.failover_reason is None
        assert outcome.attempts == 1
        assert outcome.answer == oracle.execute(plan)

    def test_transient_failure_is_retried(self):
        executor, flaky, _, plan, oracle = self.make(
            failures=1, attempts=3
        )
        outcome = executor.execute(plan)
        assert outcome.backend_used == "flaky"
        assert outcome.failover_reason is None
        assert outcome.attempts == 2
        assert outcome.answer == oracle.execute(plan)
        assert executor.breaker.state == CLOSED

    def test_exhaustion_fails_over_with_parity(self):
        executor, flaky, _, plan, oracle = self.make(
            failures=99, attempts=2
        )
        outcome = executor.execute(plan)
        assert outcome.backend_used == "python"
        assert "retry exhausted" in outcome.failover_reason
        assert outcome.attempts == 2
        # The SL009 parity property: the failover answer is exactly
        # what the ResilientExecutor's oracle (PythonBackend) returns.
        assert outcome.answer == oracle.execute(plan)

    def test_open_breaker_skips_the_primary(self):
        executor, flaky, clock, plan, oracle = self.make(
            failures=99, attempts=1, threshold=1,
        )
        first = executor.execute(plan)
        assert "retry exhausted" in first.failover_reason
        assert executor.breaker.state == OPEN
        calls_before = flaky.calls
        second = executor.execute(plan)
        assert flaky.calls == calls_before  # primary never touched
        assert second.backend_used == "python"
        assert second.failover_reason == "circuit breaker open"
        assert second.attempts == 0
        assert second.answer == oracle.execute(plan)

    def test_successful_probe_recloses_the_breaker(self):
        executor, flaky, clock, plan, _ = self.make(
            failures=1, attempts=1, threshold=1, recovery_ms=500.0,
        )
        executor.execute(plan)  # trips the breaker
        assert executor.breaker.state == OPEN
        clock.advance(0.6)
        outcome = executor.execute(plan)  # the half-open probe
        assert outcome.backend_used == "flaky"
        assert executor.breaker.state == CLOSED

    def test_unavailable_backend_fails_over_immediately(self):
        class VanishingBackend(FlakyBackend):
            def execute(self, plan):
                self.calls += 1
                raise BackendUnavailableError("duckdb", "driver gone")

        database = small_database()
        oracle = PythonBackend(database)
        vanishing = VanishingBackend(oracle, 0)
        executor = ResilientExecutor(
            primary=vanishing, oracle=oracle,
            attempts=3,
        )
        plan = AuthorizationEngine(database)._plan(
            AuthorizationEngine._parse_query(QUERY, "test")
        )[0]
        outcome = executor.execute(plan)
        assert vanishing.calls == 1  # no retry: it cannot come back
        assert outcome.backend_used == "python"
        assert "driver gone" in outcome.failover_reason
        assert outcome.answer == oracle.execute(plan)

    def test_exhaustion_raises_when_failover_disabled(self):
        executor, _, _, plan, _ = self.make(
            failures=99, attempts=2, failover=False
        )
        with pytest.raises(BackendError):
            executor.execute(plan)

    def test_standing_reason_pins_every_outcome(self):
        database = small_database()
        oracle = PythonBackend(database)
        executor = ResilientExecutor(
            primary=oracle, oracle=oracle,
            standing_reason="unavailable at construction: no driver",
        )
        plan = AuthorizationEngine(database)._plan(
            AuthorizationEngine._parse_query(QUERY, "test")
        )[0]
        outcome = executor.execute(plan)
        assert outcome.backend_used == "python"
        assert "unavailable at construction" in outcome.failover_reason
        assert outcome.attempts == 0


class TestEngineFailover:
    """Engine- and audit-level wiring of the failover machinery."""

    def test_failover_answer_matches_the_clean_answer(self):
        engine = make_engine(backend="sqlite")
        clean = engine.authorize("u", QUERY)
        assert clean.backend_used == "sqlite"
        assert not clean.failed_over
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            failed_over = engine.authorize("u", QUERY)
        assert failed_over.error is None
        assert failed_over.backend_used == "python"
        assert failed_over.failed_over
        assert sorted(failed_over.delivered) == sorted(clean.delivered)
        assert failed_over.mask == clean.mask
        assert failed_over.permits == clean.permits

    def test_audit_records_the_reroute(self):
        engine = make_engine(backend="sqlite")
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            engine.authorize("u", QUERY)
        record = engine.audit.records()[-1]
        assert record.backend_used == "python"
        assert "retry exhausted" in record.failover_reason
        assert engine.audit.failover_count() == 1
        assert "[failover:python]" in engine.audit.report()

    def test_transient_fault_is_absorbed_by_retry(self):
        engine = make_engine(backend="sqlite")
        with faults.inject(
            {"backend.execute": faults.Fault("raise", times=1)}
        ) as plan:
            answer = engine.authorize("u", QUERY)
        assert plan.trips["backend.execute"] == 1
        assert answer.backend_used == "sqlite"
        assert not answer.failed_over
        assert answer.error is None

    def test_batch_memo_carries_failover_fields(self):
        engine = make_engine(backend="sqlite")
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            answers = engine.authorize_batch("u", [QUERY, QUERY])
        assert all(a.backend_used == "python" for a in answers)
        assert all(a.failed_over for a in answers)
        assert answers[1].cache_hit

    def test_failover_execute_fault_fails_closed(self):
        # Break the safety net itself: the oracle re-evaluation
        # faults too, and the engine falls back to the fail-closed
        # denial — never an unsound answer.
        engine = make_engine(backend="sqlite")
        with faults.inject({
            "backend.execute": faults.Fault("raise"),
            "failover.execute": faults.Fault("raise"),
        }):
            answer = engine.authorize("u", QUERY)
        assert answer.error is not None
        assert answer.delivered == ()

    def test_python_primary_does_not_pretend_to_fail_over(self):
        engine = make_engine(backend="python")
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            answer = engine.authorize("u", QUERY)
        # Primary *is* the oracle: exhaustion fails closed instead of
        # re-running identical code under a failover banner.
        assert answer.error is not None
        assert answer.delivered == ()

    def test_unknown_backend_still_fails_construction(self):
        with pytest.raises(BackendUnavailableError):
            AuthorizationEngine(
                small_database(),
                config=DEFAULT_CONFIG.but(backend="mystery"),
            )

    def test_retry_sleep_site_is_part_of_the_machinery(self):
        engine = make_engine(backend="sqlite")
        with faults.inject({
            "backend.execute": faults.Fault("raise", times=1),
            "retry.sleep": faults.Fault("raise"),
        }):
            answer = engine.authorize("u", QUERY)
        # The backoff itself faulted; the executor treats that as the
        # end of the retry schedule and the engine still fails closed
        # or over — never raises to the caller.
        assert answer is not None

    def test_breaker_probe_site_fires_on_half_open(self):
        executor_engine = make_engine(
            backend="sqlite",
            breaker_failure_threshold=1,
            breaker_recovery_ms=0.0,
        )
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            executor_engine.authorize("u", QUERY)  # trips breaker
        assert executor_engine.executor.breaker.opened_count >= 1
        with faults.inject(
            {"breaker.probe": faults.Fault("raise")}
        ) as plan:
            answer = executor_engine.authorize("u", QUERY)
        # recovery_ms=0 means the very next call probes; the injected
        # probe fault is retried/failed over like a backend fault.
        assert plan.visits["breaker.probe"] >= 1
        assert answer.error is None


class TestBackendDisappearsMidFlight:
    """Satellite: a lazily-imported driver vanishing between engine
    construction and first execute."""

    def make_vanishing_engine(self, **config_changes):
        engine = AuthorizationEngine(
            small_database(),
            config=DEFAULT_CONFIG.but(
                backend="sqlite", **config_changes
            ),
            audit=AuditLog(),
        )
        engine.define_view("view V (EMP.NAME, EMP.DEPT)")
        engine.permit("V", "u")

        class GoneBackend:
            name = "duckdb"

            def load(self, database):
                pass

            def execute(self, plan):
                raise BackendUnavailableError(
                    "duckdb", "driver disappeared after construction"
                )

        gone = GoneBackend()
        engine.backend = gone
        engine.executor.primary = gone
        return engine

    def test_failover_enabled_answers_with_the_oracle(self):
        engine = self.make_vanishing_engine()
        answer = engine.authorize("u", QUERY)
        assert answer.error is None
        assert answer.backend_used == "python"
        assert "disappeared" in answer.failover_reason
        assert answer.delivered

    def test_failover_disabled_raises_typed_error(self):
        # The satellite's contract: a vanished backend is a typed
        # BackendUnavailableError from authorize, not a bare denial —
        # even though fail_closed is on.
        engine = self.make_vanishing_engine(backend_failover=False)
        with pytest.raises(BackendUnavailableError) as exc:
            engine.authorize("u", QUERY)
        assert "disappeared" in str(exc.value)

    def test_failover_disabled_raises_in_batch_too(self):
        engine = self.make_vanishing_engine(backend_failover=False)
        with pytest.raises(BackendUnavailableError):
            engine.authorize_batch("u", [QUERY])


class TestConstructionFailover:
    def test_known_unavailable_backend_runs_on_the_oracle(self):
        # Simulate duckdb's driver being absent by asking make_backend
        # for it only when the driver is genuinely missing; otherwise
        # exercise the same path through a monkeypatched factory.
        try:
            make_backend("duckdb")
            pytest.skip("duckdb driver installed; construction "
                        "failover exercised in environments without it")
        except BackendUnavailableError:
            pass
        engine = AuthorizationEngine(
            small_database(),
            config=DEFAULT_CONFIG.but(backend="duckdb"),
        )
        engine.define_view("view V (EMP.NAME, EMP.DEPT)")
        engine.permit("V", "u")
        answer = engine.authorize("u", QUERY)
        assert answer.error is None
        assert answer.backend_used == "python"
        assert "unavailable at construction" in answer.failover_reason

    def test_known_unavailable_backend_raises_without_failover(self):
        try:
            make_backend("duckdb")
            pytest.skip("duckdb driver installed")
        except BackendUnavailableError:
            pass
        with pytest.raises(BackendUnavailableError):
            AuthorizationEngine(
                small_database(),
                config=DEFAULT_CONFIG.but(
                    backend="duckdb", backend_failover=False,
                ),
            )
