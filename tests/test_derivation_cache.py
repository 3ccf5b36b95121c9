"""Differential tests: the derivation cache is transparent.

For every workload scenario, every user, and a battery of retrieve
statements, ``authorize()`` with the cache on and with the cache off
must produce identical delivered relations and inferred permits — the
cache may change *when* a mask is computed, never *what* is delivered.
``authorize_batch`` must equal a loop of ``authorize``.  The suite
also pins the cache mechanics: hit/miss/invalidation/eviction
accounting, and keys that name the plan and the definition serials of
the admissible views, so a grant or definition change yields another
key while an unrelated one leaves the entry live.
"""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.cache import DerivationCache
from repro.workloads.scenarios import corporate_scenario, hospital_scenario

CACHE_OFF = DEFAULT_CONFIG.but(derivation_cache_size=0)

#: Statement batteries per scenario: a mix of full-view matches,
#: partial overlaps, joins, paraphrases, and denials.
HOSPITAL_QUERIES = [
    "retrieve (PATIENT.PID, PATIENT.NAME, PATIENT.WARD)",
    "retrieve (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, "
    "PATIENT.DIAGNOSIS)",
    "retrieve (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)",
    "retrieve (TREATMENT.PID, TREATMENT.COST) "
    "where TREATMENT.COST >= 1000",
    # Paraphrase of the previous statement (flipped comparison).
    "retrieve (TREATMENT.PID, TREATMENT.COST) "
    "where 1000 <= TREATMENT.COST",
    "retrieve (PATIENT.NAME, TREATMENT.DRUG) "
    "where PATIENT.PID = TREATMENT.PID",
    "retrieve (PATIENT.NAME, TREATMENT.DRUG, TREATMENT.COST) "
    "where PATIENT.PID = TREATMENT.PID and TREATMENT.DOC = house",
    "retrieve (PHYSICIAN.DOC, PHYSICIAN.SPECIALTY)",
]

CORPORATE_QUERIES = [
    "retrieve (EMP.ENO, EMP.ENAME, EMP.DEPT)",
    "retrieve (EMP.ENO, EMP.ENAME, EMP.DEPT, EMP.SALARY)",
    "retrieve (EMP.ENO, EMP.SALARY) where EMP.SALARY <= 100,000",
    "retrieve (EMP.ENO, EMP.SALARY) where EMP.DEPT = eng",
    # Conjunct reordering of the cap + department query.
    "retrieve (EMP.ENO, EMP.SALARY) "
    "where EMP.SALARY <= 100,000 and EMP.DEPT = eng",
    "retrieve (EMP.ENO, EMP.SALARY) "
    "where EMP.DEPT = eng and EMP.SALARY <= 100,000",
    "retrieve (DEPT.DNAME, DEPT.BUDGET)",
    "retrieve (EMP.ENAME, DEPT.BUDGET) where EMP.DEPT = DEPT.DNAME",
]

SCENARIOS = [
    pytest.param(hospital_scenario, HOSPITAL_QUERIES, id="hospital"),
    pytest.param(corporate_scenario, CORPORATE_QUERIES, id="corporate"),
]


def observable(answer):
    """Everything a client can see of one authorization."""
    return (
        answer.labels,
        answer.delivered,
        tuple(str(p) for p in answer.permits),
    )


@pytest.mark.parametrize("build, queries", SCENARIOS)
class TestCacheTransparency:
    def test_cache_on_equals_cache_off(self, build, queries):
        hot = build()
        cold = build(CACHE_OFF)
        for user in hot.users:
            for statement in queries:
                # Twice per statement: the second pass is served from
                # the cache on the hot engine.
                for _ in range(2):
                    a = hot.engine.authorize(user, statement)
                    b = cold.engine.authorize(user, statement)
                    assert observable(a) == observable(b), (
                        f"user={user} query={statement}"
                    )
        stats = hot.engine.stats()
        assert stats.hits > 0
        assert cold.engine.stats().lookups == 0

    def test_batch_equals_loop(self, build, queries):
        for config in (DEFAULT_CONFIG, CACHE_OFF):
            batch_side = build(config)
            loop_side = build(config)
            for user in batch_side.users:
                stream = list(queries) + list(queries)  # repetition
                batch = batch_side.engine.authorize_batch(user, stream)
                loop = [
                    loop_side.engine.authorize(user, statement)
                    for statement in stream
                ]
                assert len(batch) == len(loop)
                for a, b in zip(batch, loop):
                    assert observable(a) == observable(b)

    def test_revoke_is_visible_immediately(self, build, queries):
        hot = build()
        for user in hot.users:
            for statement in queries:
                hot.engine.authorize(user, statement)  # populate cache
        catalog = hot.engine.catalog
        user = hot.users[0]
        for view_name in catalog.views_of(user):
            catalog.revoke(view_name, user)
        fresh = build(CACHE_OFF)
        fresh_catalog = fresh.engine.catalog
        for view_name in fresh_catalog.views_of(user):
            fresh_catalog.revoke(view_name, user)
        for statement in queries:
            a = hot.engine.authorize(user, statement)
            b = fresh.engine.authorize(user, statement)
            assert not a.cache_hit or a.delivered == b.delivered
            assert observable(a) == observable(b)


class TestCacheMechanics:
    def test_repeat_hits_and_stats(self):
        engine = hospital_scenario().engine
        statement = HOSPITAL_QUERIES[0]
        first = engine.authorize("nurse", statement)
        second = engine.authorize("nurse", statement)
        assert not first.cache_hit
        assert second.cache_hit
        stats = engine.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_equivalent_plans_share_an_entry(self):
        engine = corporate_scenario().engine
        engine.authorize("engmgr", CORPORATE_QUERIES[4])
        reordered = engine.authorize("engmgr", CORPORATE_QUERIES[5])
        assert reordered.cache_hit

    def test_users_never_share_entries(self):
        engine = corporate_scenario().engine
        statement = "retrieve (EMP.ENO, EMP.ENAME, EMP.DEPT, EMP.SALARY)"
        hr = engine.authorize("hr", statement)        # full salary view
        staff = engine.authorize("staff", statement)  # directory only
        assert not staff.cache_hit
        assert hr.delivered != staff.delivered

    def test_disabled_cache_never_hits(self):
        scenario = hospital_scenario(CACHE_OFF)
        engine = scenario.engine
        for _ in range(3):
            answer = engine.authorize("nurse", HOSPITAL_QUERIES[0])
            assert not answer.cache_hit
        assert engine.stats().lookups == 0

    def test_lru_eviction(self):
        scenario = hospital_scenario(
            DEFAULT_CONFIG.but(derivation_cache_size=1)
        )
        engine = scenario.engine
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        engine.authorize("nurse", HOSPITAL_QUERIES[1])  # evicts the first
        engine.authorize("nurse", HOSPITAL_QUERIES[0])  # miss again
        stats = engine.stats()
        assert stats.evictions >= 1
        assert stats.hits == 0

    def test_invalidation_counted_on_grant_change(self):
        # A grant change moves the user to another key: the next
        # lookup misses without discarding anything, and permitting
        # the view back makes the old key, and its entry, current.
        engine = hospital_scenario().engine
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        engine.revoke("NURSE_VIEW", "nurse")
        assert not engine.authorize("nurse", HOSPITAL_QUERIES[0]).cache_hit
        engine.permit("NURSE_VIEW", "nurse")
        assert engine.authorize("nurse", HOSPITAL_QUERIES[0]).cache_hit
        assert engine.stats().invalidations == 0

    def test_grant_to_other_user_keeps_entries_live(self):
        engine = hospital_scenario().engine
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        engine.permit("BILLING", "research")  # unrelated user
        answer = engine.authorize("nurse", HOSPITAL_QUERIES[0])
        assert answer.cache_hit
        assert engine.stats().invalidations == 0

    def test_redefinition_invalidates_only_keys_citing_it(self):
        engine = hospital_scenario().engine
        patients, billing = HOSPITAL_QUERIES[0], HOSPITAL_QUERIES[2]
        engine.authorize("nurse", patients)
        engine.authorize("billing", billing)
        # Same name, another body: a new serial, so a new key.
        catalog = engine.catalog
        catalog.drop_view("NURSE_VIEW")
        catalog.define_view("view NURSE_VIEW (PATIENT.PID, PATIENT.NAME)")
        catalog.permit("NURSE_VIEW", "nurse")
        redefined = engine.authorize("nurse", patients)
        assert not redefined.cache_hit
        assert engine.authorize("billing", billing).cache_hit
        assert engine.stats().invalidations == 0
        fresh = hospital_scenario(CACHE_OFF).engine
        fresh.catalog.drop_view("NURSE_VIEW")
        fresh.catalog.define_view(
            "view NURSE_VIEW (PATIENT.PID, PATIENT.NAME)"
        )
        fresh.catalog.permit("NURSE_VIEW", "nurse")
        assert observable(redefined) == \
            observable(fresh.authorize("nurse", patients))

    def test_permit_during_derivation_cannot_widen_a_shared_entry(
            self, monkeypatch):
        # nurse and research hold the same admissible views for this
        # query, so they share one key.  A permit that lands after
        # nurse's key was taken but before the derivation ran must not
        # reach the derivation: the entry stored under the pre-permit
        # key is what research is then served.
        import repro.core.engine as engine_module

        engine = hospital_scenario().engine
        engine.define_view(
            "view ALL_PATIENTS (PATIENT.PID, PATIENT.NAME, PATIENT.WARD)"
        )
        derive = engine_module.derive_mask_resilient

        def racing(*args, **kwargs):
            engine.permit("ALL_PATIENTS", "nurse")
            return derive(*args, **kwargs)

        monkeypatch.setattr(engine_module, "derive_mask_resilient", racing)
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        monkeypatch.undo()
        shared = engine.authorize("research", HOSPITAL_QUERIES[0])
        assert shared.cache_hit
        cold = hospital_scenario(CACHE_OFF).engine
        assert observable(shared) == \
            observable(cold.authorize("research", HOSPITAL_QUERIES[0]))

    def test_audit_records_cache_hits(self):
        from repro.core.audit import AuditLog

        scenario = hospital_scenario()
        engine = scenario.engine
        engine.audit = AuditLog()
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        engine.authorize("nurse", HOSPITAL_QUERIES[0])
        records = engine.audit.records()
        assert [r.cache_hit for r in records] == [False, True]
        assert engine.audit.cached_count() == 1
        assert "[cached]" in engine.audit.report()
        assert "1 served from the derivation cache" in engine.audit.report()

    def test_cli_stats_command(self):
        from repro.cli import Repl
        from repro.workloads.scenarios import hospital_scenario as build

        repl = Repl(build().engine, user="nurse")
        repl.process_line(HOSPITAL_QUERIES[0])
        repl.process_line(HOSPITAL_QUERIES[0])
        output = repl.process_line(".stats")
        assert "1 hits" in output

        off = Repl(build(CACHE_OFF).engine, user="nurse")
        assert "disabled" in off.process_line(".stats")


class TestDerivationCacheUnit:
    def test_capacity_zero_is_inert(self):
        cache = DerivationCache(0)
        assert not cache.enabled
        assert cache.get(("k", (1,))) is None
        cache.put(("k", (1,)), object())
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_token_mismatch_is_invalidation(self):
        # Other serials are another key: a plain miss that discards
        # nothing, and the old entry still answers its own key.
        cache = DerivationCache(4)
        marker = object()
        cache.put(("k", (1,)), marker)
        assert cache.get(("k", (1,))) is marker
        assert cache.get(("k", (1, 2))) is None
        assert (cache.stats.misses, cache.stats.invalidations) == (1, 0)
        assert cache.get(("k", (1,))) is marker

    def test_keys_are_scoped_by_user(self):
        # Keys name no user: requests are told apart by the serials
        # of their admissible views, and equal serials share.
        cache = DerivationCache(4)
        mine, yours = object(), object()
        cache.put(("k", (1,)), mine)
        cache.put(("k", (2,)), yours)
        assert cache.get(("k", (1,))) is mine
        assert cache.get(("k", (2,))) is yours
        assert len(cache) == 2

    def test_lru_order(self):
        cache = DerivationCache(2)
        a, b, c = object(), object(), object()
        cache.put(("a", ()), a)
        cache.put(("b", ()), b)
        cache.get(("a", ()))      # refresh a
        cache.put(("c", ()), c)   # evicts b
        assert cache.get(("a", ())) is a
        assert cache.get(("b", ())) is None
        assert cache.stats.evictions == 1

    def test_invalidate_user_and_clear(self):
        # clear() is the one way to invalidate, and what it counts.
        cache = DerivationCache(8)
        cache.put(("k", (1,)), object())
        cache.put(("k", (2,)), object())
        cache.put_compiled(("k", (1,)), object())
        cache.clear()
        assert len(cache) == 0
        assert cache.get_compiled(("k", (1,))) is None
        assert cache.stats.invalidations == 2
