"""The fail-closed resilience layer: budgets, ladder, faults.

Covers the resource budget in isolation (with a fake clock), the
degradation ladder's rung configurations, the engine-level behaviour
under budget exhaustion and injected faults, the ladder walk and the
EMPTY floor of shed requests, masks that fail to compile,
cache-corruption transparency, and the per-element boundary of
``authorize_batch``.
The cross-cutting soundness properties (subset chains across rungs,
delivery under random faults) live in
``tests/property/test_degradation_ladder.py`` and
``tests/property/test_fault_injection.py``.
"""

from __future__ import annotations

import pytest

import repro.metaalgebra.ladder as ladder_module
from repro.config import DEFAULT_CONFIG
from repro.core.audit import AuditLog
from repro.core.mask import MASKED
from repro.errors import (
    BudgetExceededError,
    DerivationTimeout,
    FaultInjected,
    ParseError,
    ReproError,
)
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.ladder import (
    DEGRADATION_LEVELS,
    EMPTY_LEVEL,
    rung_config,
)
from repro.serving import AuthorizationServer, ServerConfig
from repro.testing.faults import (
    Fault,
    FaultPlan,
    active,
    inject,
    install,
    plan_from_spec,
    uninstall,
)
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_engine,
)
from tests.property.test_compiled_mask import masks_never_compile


def visible_cells(answer):
    """Position-indexed unmasked cells; delivered rows align with the
    raw answer, so positions are comparable across configurations."""
    return {
        (i, j, cell)
        for i, row in enumerate(answer.delivered)
        for j, cell in enumerate(row)
        if cell is not MASKED
    }


# ----------------------------------------------------------------------
# the budget, in isolation
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestBudget:
    def test_row_cap_enforced(self):
        budget = Budget(max_rows=10)
        budget.charge_rows(10, "product")  # at the cap: fine
        with pytest.raises(BudgetExceededError) as info:
            budget.charge_rows(11, "product")
        assert info.value.resource == "mask-rows"
        assert info.value.stage == "product"
        assert info.value.observed == 11
        assert info.value.limit == 10

    def test_selfjoin_cap_enforced(self):
        budget = Budget(max_selfjoin_pool=4)
        budget.charge_selfjoin(4, "EMPLOYEE")
        with pytest.raises(BudgetExceededError):
            budget.charge_selfjoin(5, "EMPLOYEE")

    def test_zero_limits_mean_unlimited(self):
        budget = Budget()
        budget.charge_rows(10**9, "product")
        budget.charge_selfjoin(10**9, "EMPLOYEE")
        budget.check_deadline("prune")  # no deadline set

    def test_deadline_with_fake_clock(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=100.0, clock=clock)
        budget.check_deadline("plan")
        clock.now = 0.099
        budget.check_deadline("plan")
        clock.now = 0.101
        with pytest.raises(DerivationTimeout) as info:
            budget.check_deadline("plan")
        assert info.value.stage == "plan"
        assert info.value.deadline_ms == 100.0

    def test_tick_polls_the_deadline_sparsely(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=50.0, clock=clock)
        clock.now = 1.0  # deadline long past
        # The first CHECK_EVERY - 1 ticks never read the clock.
        for _ in range(Budget.CHECK_EVERY - 1):
            budget.tick("selection")
        with pytest.raises(DerivationTimeout):
            budget.tick("selection")

    def test_elapse_simulates_slowness(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=100.0, clock=clock)
        budget.elapse(1.0)  # a "slow" fault charges simulated seconds
        with pytest.raises(DerivationTimeout):
            budget.check_deadline("product")

    def test_from_config_is_none_without_limits(self):
        assert Budget.from_config(DEFAULT_CONFIG) is None

    def test_from_config_picks_up_limits(self):
        config = DEFAULT_CONFIG.but(max_mask_rows=7,
                                    max_selfjoin_pool=3,
                                    derivation_deadline_ms=250.0)
        budget = Budget.from_config(config)
        assert budget is not None
        assert budget.max_rows == 7
        assert budget.max_selfjoin_pool == 3
        assert budget.deadline_ms == 250.0


# ----------------------------------------------------------------------
# rung configurations
# ----------------------------------------------------------------------


class TestRungConfig:
    def test_level_zero_is_identity(self):
        assert rung_config(DEFAULT_CONFIG, 0) is DEFAULT_CONFIG

    def test_empty_level_has_no_config(self):
        assert rung_config(DEFAULT_CONFIG, EMPTY_LEVEL) is None

    def test_out_of_range_levels_rejected(self):
        with pytest.raises(ValueError):
            rung_config(DEFAULT_CONFIG, -1)
        with pytest.raises(ValueError):
            rung_config(DEFAULT_CONFIG, EMPTY_LEVEL + 1)

    def test_rungs_only_disable_switches(self):
        previous = DEFAULT_CONFIG
        for level in range(1, EMPTY_LEVEL):
            rung = rung_config(DEFAULT_CONFIG, level)
            for switch in ("self_joins", "existential_closure",
                           "product_padding", "refine_selection"):
                # Monotone: once off at rung N, still off at rung N+1.
                assert getattr(rung, switch) <= getattr(previous, switch)
            previous = rung

    def test_ladder_names_match_levels(self):
        assert len(DEGRADATION_LEVELS) == EMPTY_LEVEL + 1
        assert DEGRADATION_LEVELS[0] == "full"
        assert DEGRADATION_LEVELS[EMPTY_LEVEL] == "empty"


# ----------------------------------------------------------------------
# the engine under budget pressure
# ----------------------------------------------------------------------


class TestBudgetDegradation:
    def test_unbudgeted_engine_is_at_full_fidelity(self):
        answer = build_paper_engine().authorize("Klein", EXAMPLE_2_QUERY)
        assert answer.degradation_level == 0
        assert answer.degradation == "full"
        assert not answer.degraded
        assert answer.error is None

    # Budget tests below drive Brown's Example 3: the streaming product
    # meters only rows that survive its folded-in pruning and dedupe,
    # and Klein's Example 2 survives on a single row at every rung, so
    # it can no longer exhaust a row cap.  Brown's self-join-heavy
    # derivation still materializes 7 rows at full fidelity.

    def test_tight_row_budget_degrades_not_fails(self):
        baseline = build_paper_engine().authorize("Brown",
                                                  EXAMPLE_3_QUERY)
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=3))
        answer = engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert answer.degraded
        assert answer.degradation == "no-padding"
        assert answer.error is None  # a rung succeeded: not a denial
        assert visible_cells(answer) <= visible_cells(baseline)

    def test_starved_budget_falls_to_empty(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=1))
        answer = engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert answer.degradation == "empty"
        assert visible_cells(answer) == set()
        assert answer.error is not None
        assert "BudgetExceededError" in answer.error

    def test_streaming_survives_budgets_materializing_blows(self):
        # The point of the streaming product: rows destined for the
        # dangling-reference pruning never count against the budget.
        # Klein's Example 2 product has 15 materialized rows but only
        # one survivor, so a cap of 3 degrades the materializing
        # derivation (the display path behind trace()) while the
        # streaming one stays at full fidelity — with an identical mask.
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=3))
        streaming = engine.authorize("Klein", EXAMPLE_2_QUERY)
        materializing = engine.trace("Klein", EXAMPLE_2_QUERY)
        assert not streaming.degraded
        assert materializing.degradation_level > 0
        unbudgeted = build_paper_engine().authorize(
            "Klein", EXAMPLE_2_QUERY
        )
        assert visible_cells(streaming) == visible_cells(unbudgeted)

    def test_selfjoin_pool_budget_degrades(self):
        # Brown's EST closure blows a pool cap of 1 immediately.
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(max_selfjoin_pool=1)
        )
        answer = engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert answer.degraded
        baseline = build_paper_engine().authorize("Brown",
                                                  EXAMPLE_3_QUERY)
        assert visible_cells(answer) <= visible_cells(baseline)

    def test_generous_budget_changes_nothing(self):
        baseline = build_paper_engine().authorize("Brown",
                                                  EXAMPLE_1_QUERY)
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(max_mask_rows=10_000,
                               max_selfjoin_pool=10_000,
                               derivation_deadline_ms=60_000.0)
        )
        answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.degradation_level == 0
        assert visible_cells(answer) == visible_cells(baseline)

    def test_degraded_derivations_are_not_cached(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=3))
        first = engine.authorize("Brown", EXAMPLE_3_QUERY)
        second = engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert first.degraded and second.degraded
        assert not second.cache_hit
        assert engine.stats().hits == 0

    def test_full_fidelity_derivations_still_cached(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=50))
        engine.authorize("Klein", EXAMPLE_2_QUERY)
        second = engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert second.degradation_level == 0
        assert second.cache_hit


# ----------------------------------------------------------------------
# the ladder walk and the EMPTY floor of a shed
# ----------------------------------------------------------------------


def spy_on_executor(engine, monkeypatch):
    """Record every plan ``engine`` hands its executor to evaluate."""
    plans = []
    execute = engine.executor.execute

    def spied(plan):
        plans.append(plan)
        return execute(plan)

    monkeypatch.setattr(engine.executor, "execute", spied)
    return plans


def audit_errors(engine):
    return [record.error for record in engine.audit.records()]


class TestLadderWalk:
    @pytest.mark.parametrize("floor", range(EMPTY_LEVEL))
    def test_failing_rungs_are_each_derived_once(self, floor,
                                                 monkeypatch):
        # Brown's Example 3 exhausts a one-row budget on every rung,
        # so a shed to ``floor`` walks down to the empty mask: rungs
        # floor..3 once each, never a rung twice.
        config = DEFAULT_CONFIG.but(max_mask_rows=1,
                                    derivation_cache_size=0)
        derived = []
        derive = ladder_module.derive_mask

        def counting(psj, schema, views, rung, **kwargs):
            derived.append(rung)
            return derive(psj, schema, views, rung, **kwargs)

        monkeypatch.setattr(ladder_module, "derive_mask", counting)
        engine = build_paper_engine(config)
        answer = engine.authorize_degraded("Brown", EXAMPLE_3_QUERY, floor)
        assert derived == [rung_config(config, level)
                           for level in range(floor, EMPTY_LEVEL)]
        assert answer.degradation_level == EMPTY_LEVEL
        assert answer.delivered == ()
        assert answer.error is not None

    def test_empty_floor_is_a_denial_with_a_warm_cache(self, monkeypatch):
        engine = build_paper_engine()
        engine.audit = AuditLog()
        warm = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert warm.delivered
        plans = spy_on_executor(engine, monkeypatch)
        with inject({}) as plan:
            answer = engine.authorize_degraded(
                "Brown", EXAMPLE_1_QUERY, EMPTY_LEVEL, reason="shed")
        assert answer.delivered == ()
        assert answer.error == "shed"
        assert answer.degradation_level == EMPTY_LEVEL
        assert not answer.cache_hit
        assert plans == []
        # Decided before the snapshot: not even a cache lookup.
        assert plan.visits["cache.get"] == 0
        assert audit_errors(engine) == [None, "shed"]

    def test_expired_server_request_is_a_denial_with_a_warm_cache(
            self, monkeypatch):
        engine = build_paper_engine()
        assert engine.authorize("Brown", EXAMPLE_1_QUERY).delivered
        plans = spy_on_executor(engine, monkeypatch)
        config = ServerConfig(workers=1, request_deadline_ms=1e-4)
        assert config.deadline_floor == EMPTY_LEVEL
        with AuthorizationServer(config) as server:
            server.adopt_tenant("paper", engine)
            answer = server.authorize("paper", "Brown", EXAMPLE_1_QUERY)
            expired = server.telemetry().admission.deadline_sheds
        assert expired == 1
        assert answer.delivered == ()
        assert answer.error == "request deadline exceeded"
        assert plans == []


# ----------------------------------------------------------------------
# the engine under injected faults
# ----------------------------------------------------------------------


class TestFailClosed:
    @pytest.mark.parametrize("site", [
        "plan", "selfjoin", "product", "prune", "selection",
        "projection", "closure",
    ])
    def test_derivation_faults_never_raise(self, site):
        baseline = build_paper_engine().authorize("Klein",
                                                  EXAMPLE_2_QUERY)
        engine = build_paper_engine()
        with inject({site: "raise"}) as plan:
            answer = engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert visible_cells(answer) <= visible_cells(baseline)
        if plan.trips[site]:
            # The fault actually fired on this path, so the answer
            # must be degraded (possibly all the way to empty).
            assert answer.degraded

    def test_persistent_plan_fault_yields_error_answer(self):
        engine = build_paper_engine()
        with inject({"plan": "raise"}) as plan:
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.degradation == "empty"
        assert answer.error is not None
        assert "FaultInjected" in answer.error
        assert visible_cells(answer) == set()
        # One trip per non-empty rung: the ladder really walked down.
        assert plan.trips["plan"] == EMPTY_LEVEL

    def test_empty_rung_is_a_denial_at_floor_zero(self):
        # A ladder that failed closed leaves nothing to deliver: the
        # answer is a denial that never evaluates the query, and it
        # matches the stream for the same request row for row.
        engine = build_paper_engine()
        with inject({"product": "raise"}) as plan:
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
            stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
            streamed = tuple(row for chunk in stream for row in chunk)
        assert answer.degradation_level == EMPTY_LEVEL
        assert "FaultInjected" in answer.error
        assert answer.delivered == ()
        assert streamed == answer.delivered
        assert plan.visits["engine.evaluate"] == 0

    def test_transient_fault_degrades_one_rung(self):
        engine = build_paper_engine()
        with inject({"plan": Fault("raise", times=1)}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.degradation == "no-selfjoins"
        assert answer.error is None

    @pytest.mark.parametrize("mode", [
        "authorize", "authorize_batch", "authorize_degraded",
        "authorize_stream",
    ])
    def test_mask_that_fails_to_compile_fails_closed(self, mode):
        engine = build_paper_engine()
        engine.audit = AuditLog()
        with masks_never_compile() as compile_attempts:
            if mode == "authorize_stream":
                stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
                rows = tuple(row for chunk in stream for row in chunk)
                error = stream.error
            else:
                answer = {
                    "authorize": lambda: engine.authorize(
                        "Brown", EXAMPLE_1_QUERY),
                    "authorize_batch": lambda: engine.authorize_batch(
                        "Brown", [EXAMPLE_1_QUERY])[0],
                    "authorize_degraded": lambda: engine.authorize_degraded(
                        "Brown", EXAMPLE_1_QUERY, 1),
                }[mode]()
                rows, error = answer.delivered, answer.error
        assert compile_attempts.called
        assert rows == ()
        assert error is not None
        assert "mask compilation unavailable" in error
        assert audit_errors(engine) == [error]

    def test_evaluate_fault_is_caught_at_the_boundary(self):
        engine = build_paper_engine()
        with inject({"engine.evaluate": "raise"}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.error is not None
        assert answer.delivered == ()
        assert answer.permits == ()
        assert answer.degradation_level == EMPTY_LEVEL

    def test_slow_fault_times_out_each_rung(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(derivation_deadline_ms=50.0)
        )
        with inject({"plan": Fault("slow", seconds=10.0)}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.degradation == "empty"
        assert visible_cells(answer) == set()

    def test_slow_selfjoin_closure_times_out_its_rung(self):
        # The closure runs inside the derivation, under the rung's
        # budget: a slow closure trips the deadline and the request
        # degrades to the rung without self-joins instead of being
        # served at full fidelity.
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(derivation_deadline_ms=50.0)
        )
        with inject({"selfjoin": Fault("slow", seconds=10.0)}) as plan:
            answer = engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert plan.trips["selfjoin"] >= 1
        assert answer.degradation == "no-selfjoins"
        assert answer.error is None

    def test_slow_fault_without_deadline_is_harmless(self):
        engine = build_paper_engine()
        with inject({"plan": Fault("slow", seconds=10.0)}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.degradation_level == 0

    def test_dev_mode_reraises(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(fail_closed=False))
        with inject({"product": "raise"}):
            with pytest.raises(FaultInjected):
                engine.authorize("Brown", EXAMPLE_1_QUERY)

    def test_parse_errors_still_raise(self):
        engine = build_paper_engine()
        with pytest.raises(ReproError):
            engine.authorize("Brown", "retrieve this is not a statement")
        with pytest.raises(ParseError):
            engine.authorize("Brown", "permit SAE to Klein")

    def test_batch_boundary_is_per_element(self):
        engine = build_paper_engine()
        with inject({"engine.evaluate": Fault("raise", times=1)}):
            answers = engine.authorize_batch(
                "Brown", [EXAMPLE_1_QUERY, EXAMPLE_3_QUERY]
            )
        assert answers[0].error is not None
        assert answers[0].delivered == ()
        assert answers[1].error is None
        assert answers[1].degradation_level == 0

    def test_batch_failures_are_not_memoized(self):
        engine = build_paper_engine()
        with inject({"engine.evaluate": Fault("raise", times=1)}):
            answers = engine.authorize_batch(
                "Brown", [EXAMPLE_1_QUERY, EXAMPLE_1_QUERY]
            )
        # Same statement twice: the first hits the fault, the retry of
        # the identical plan must not replay the failure from the memo.
        assert answers[0].error is not None
        assert answers[1].error is None
        assert visible_cells(answers[1]) == visible_cells(
            build_paper_engine().authorize("Brown", EXAMPLE_1_QUERY)
        )

    def test_batch_repeats_keep_the_error(self):
        # A repeated plan reuses the whole first answer: when the
        # ladder failed closed for the first element, the repeat must
        # carry the same error (and audit it), not pass for a clean
        # answer that merely happens to sit at the empty rung.
        audit = AuditLog()
        engine = build_paper_engine()
        engine.audit = audit
        with inject({"product": "raise"}):
            answers = engine.authorize_batch(
                "Brown", [EXAMPLE_1_QUERY, EXAMPLE_1_QUERY]
            )
        first, repeat = answers
        assert first.error is not None
        assert "FaultInjected" in first.error
        assert repeat.error == first.error
        assert repeat.degradation_level == EMPTY_LEVEL
        assert repeat.cache_hit
        assert [r.error for r in audit.records()] == [first.error] * 2

    def test_audit_records_degradation_and_failure(self):
        audit = AuditLog()
        engine = build_paper_engine(DEFAULT_CONFIG.but(max_mask_rows=3))
        engine.audit = audit
        engine.authorize("Brown", EXAMPLE_3_QUERY)
        with inject({"engine.evaluate": "raise"}):
            engine.authorize("Brown", EXAMPLE_1_QUERY)
        records = audit.records()
        assert records[0].degradation_level == 2
        assert records[0].error is None
        assert records[1].error is not None
        assert audit.degraded_count() == 2
        report = audit.report()
        assert "[degraded:2]" in report
        assert "[fail-closed]" in report


class TestCacheResilience:
    def test_corrupted_entry_is_never_served(self):
        engine = build_paper_engine()
        clean = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert not clean.cache_hit
        with inject({"cache.entry": "corrupt"}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        # The corrupted value fails structural validation, so the
        # engine re-derives; the delivery is byte-identical.
        assert answer.delivered == clean.delivered
        assert answer.error is None

    def test_lookup_fault_degrades_to_fresh_derivation(self):
        engine = build_paper_engine()
        clean = engine.authorize("Brown", EXAMPLE_1_QUERY)
        with inject({"cache.get": "raise"}):
            answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.delivered == clean.delivered
        assert not answer.cache_hit

    def test_store_fault_loses_only_future_hits(self):
        engine = build_paper_engine()
        with inject({"cache.put": "raise"}):
            first = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert first.error is None
        second = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert not second.cache_hit  # the store never happened
        assert second.delivered == first.delivered

    def test_cache_faults_reraise_in_dev_mode(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(fail_closed=False))
        with inject({"cache.get": "raise"}):
            with pytest.raises(FaultInjected):
                engine.authorize("Brown", EXAMPLE_1_QUERY)


# ----------------------------------------------------------------------
# the fault-injection harness itself
# ----------------------------------------------------------------------


class TestFaultHarness:
    def test_inject_restores_previous_plan(self):
        outer = install({"plan": "raise"})
        try:
            with inject({"product": "raise"}) as inner:
                assert active() is inner
            assert active() is outer
        finally:
            uninstall()
        assert active() is None

    def test_fault_times_limits_firing(self):
        fault = Fault("raise", times=2)
        plan = FaultPlan({"plan": fault})
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.visit("plan")
        plan.visit("plan")  # exhausted: passes through
        assert plan.visits["plan"] == 3
        assert plan.trips["plan"] == 2

    def test_plan_rejects_unknown_sites(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultPlan({"not.a.site": Fault("raise")})

    def test_plan_from_spec_round_trip(self):
        plan = plan_from_spec(
            "selfjoin:raise:1,product:slow:0.5,cache.entry:corrupt"
        )
        assert plan.faults["selfjoin"].action == "raise"
        assert plan.faults["selfjoin"].times == 1
        assert plan.faults["product"].action == "slow"
        assert plan.faults["product"].seconds == 0.5
        assert plan.faults["cache.entry"].action == "corrupt"

    @pytest.mark.parametrize("spec", [
        "plan", "plan:explode", "plan:raise:many", "plan:raise:1:2",
    ])
    def test_plan_from_spec_rejects_garbage(self, spec):
        with pytest.raises(ReproError):
            plan_from_spec(spec)

    def test_error_types_are_repro_errors(self):
        assert issubclass(BudgetExceededError, ReproError)
        assert issubclass(DerivationTimeout, ReproError)
        assert issubclass(FaultInjected, ReproError)
