# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Unit tests for the pluggable execution backends.

The property suite (``tests/property/test_backend_parity.py``) covers
parity in bulk; these tests pin the edges by hand: the factory, the
SQL compiler's literals and self-join aliasing, mutation sync,
atomic bulk loads, fail-closed behaviour at the ``backend.execute``
fault site, and the serving layer's per-tenant backend override.
"""

from __future__ import annotations

import importlib.util

import pytest

from repro.algebra.database import build_database
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.schema import make_schema
from repro.algebra.to_sql import plan_to_sql, sql_literal, table_name
from repro.algebra.types import INTEGER, STRING
from repro.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    PythonBackend,
    SQLiteBackend,
    make_backend,
)
from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.errors import (
    BackendError,
    BackendUnavailableError,
    FaultInjected,
)
from repro.predicates.comparators import Comparator
from repro.serving import AuthorizationServer, ServerConfig
from repro.testing import faults
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec


def small_database():
    emp = make_schema(
        "EMP", [("NAME", STRING), ("DEPT", STRING), ("SAL", INTEGER)],
        key=["NAME"],
    )
    dept = make_schema(
        "DEPT", [("DNAME", STRING), ("BUDGET", INTEGER)], key=["DNAME"],
    )
    return build_database([emp, dept], {
        "EMP": [("amy", "toys", 30), ("bob", "tools", 45),
                ("cal", "toys", 52), ("o'hara", "tools", 39)],
        "DEPT": [("toys", 100), ("tools", 200)],
    })


def emp_scan(output=(0, 1, 2), conditions=()):
    return PSJQuery(
        (Occurrence("EMP"),), tuple(conditions), tuple(output)
    )


class TestFactory:
    def test_known_names(self):
        database = small_database()
        assert isinstance(make_backend("python", database),
                          PythonBackend)
        assert isinstance(make_backend("sqlite", database),
                          SQLiteBackend)
        assert "python" in BACKEND_NAMES

    def test_backends_satisfy_protocol(self):
        database = small_database()
        for name in ("python", "sqlite"):
            assert isinstance(make_backend(name, database),
                              ExecutionBackend)

    def test_unknown_name_is_refused(self):
        with pytest.raises(BackendUnavailableError):
            make_backend("oracle9i")

    def test_duckdb_without_driver_is_unavailable(self):
        if importlib.util.find_spec("duckdb") is not None:
            pytest.skip("duckdb driver installed")
        with pytest.raises(BackendUnavailableError):
            make_backend("duckdb", small_database())

    def test_execute_before_load_fails(self):
        for name in ("python", "sqlite"):
            backend = make_backend(name)
            with pytest.raises(BackendError):
                backend.execute(emp_scan())


class TestSqlCompiler:
    def test_literals(self):
        assert sql_literal(7) == "7"
        assert sql_literal(2.5) == "2.5"
        assert sql_literal("o'hara") == "'o''hara'"
        with pytest.raises(BackendError):
            sql_literal(True)

    def test_plan_sql_shape(self):
        database = small_database()
        plan = emp_scan(
            output=(0, 2),
            conditions=[AtomicCondition(Col(2), Comparator.GE,
                                        Const(40))],
        )
        sql = plan_to_sql(plan, database.schema)
        assert sql.startswith("SELECT DISTINCT ")
        assert 't0.c0 AS a0' in sql and 't0.c2 AS a1' in sql
        assert 'FROM "EMP" AS t0' in sql
        assert "WHERE t0.c2 >= 40" in sql

    def test_full_projection_selects_without_distinct(self):
        # Every product column kept, in any order: the filtered product
        # of deduplicated tables is a set, so DISTINCT is left out and
        # SQLite returns exactly the oracle's rows, no repeats.
        database = small_database()
        plan = PSJQuery(
            (Occurrence("EMP", 1), Occurrence("EMP", 2)),
            (AtomicCondition(Col(1), Comparator.EQ, Col(4)),),
            (3, 4, 5, 0, 1, 2),
        )
        sql = plan_to_sql(plan, database.schema)
        assert sql.startswith("SELECT t1.c0 AS a0, ")
        rows = SQLiteBackend(database).execute(plan).rows
        expected = PythonBackend(database).execute(plan).rows
        assert sorted(rows) == sorted(expected)
        assert len(rows) == len(expected) > 0

    def test_quoted_string_roundtrip(self):
        database = small_database()
        plan = emp_scan(
            output=(0, 1),
            conditions=[AtomicCondition(Col(0), Comparator.EQ,
                                        Const("o'hara"))],
        )
        python = PythonBackend(database)
        sqlite = SQLiteBackend(database)
        assert python.execute(plan) == sqlite.execute(plan)
        assert sqlite.execute(plan).rows == (("o'hara", "tools"),)


class TestSelfJoins:
    def test_self_join_with_occurrence_relabels(self):
        # EMP:1 x EMP:2 joined on DEPT, projecting NAME:1, NAME:2 —
        # the positional aliasing must not care about ATTR:k labels.
        database = small_database()
        plan = PSJQuery(
            (Occurrence("EMP", 1), Occurrence("EMP", 2)),
            (AtomicCondition(Col(1), Comparator.EQ, Col(4)),
             AtomicCondition(Col(0), Comparator.NE, Col(3))),
            (0, 3),
        )
        python = PythonBackend(database)
        sqlite = SQLiteBackend(database)
        result = sqlite.execute(plan)
        assert result == python.execute(plan)
        assert result.labels() == ("NAME:1", "NAME:2")
        assert ("amy", "cal") in result.rows


class TestMutationSync:
    def test_insert_delete_load_are_observed(self):
        database = small_database()
        plan = emp_scan()
        python = PythonBackend(database)
        sqlite = SQLiteBackend(database)
        assert sqlite.execute(plan) == python.execute(plan)
        database.insert("EMP", ("dee", "toys", 61))
        assert sqlite.execute(plan) == python.execute(plan)
        database.delete("EMP", [("amy", "toys", 30)])
        assert sqlite.execute(plan) == python.execute(plan)
        database.load("EMP", [("solo", "toys", 1)])
        result = sqlite.execute(plan)
        assert result == python.execute(plan)
        assert result.rows == (("solo", "toys", 1),)

    def test_untouched_relations_are_not_reloaded(self):
        database = small_database()
        sqlite = SQLiteBackend(database)
        before = dict(sqlite._loaded)
        database.insert("DEPT", ("io", 5))
        sqlite.execute(emp_scan())  # touches EMP only
        assert sqlite._loaded["EMP"] == before["EMP"]
        assert sqlite._loaded["DEPT"] == before["DEPT"]  # not synced
        plan = PSJQuery((Occurrence("DEPT"),), (), (0, 1))
        sqlite.execute(plan)
        assert sqlite._loaded["DEPT"] == before["DEPT"] + 1


class TestBulkLoadAtomicity:
    def test_mid_load_fault_rolls_back_to_previous_rows(self):
        database = small_database()
        backend = SQLiteBackend(database)
        old = sorted(backend.execute(emp_scan()).rows)
        database.load("EMP", [("zed", "glue", 9)])
        with faults.inject({"backend.load": faults.Fault("raise",
                                                         times=1)}):
            with pytest.raises(FaultInjected):
                backend.execute(emp_scan())
            # The DELETE rolled back with the transaction: the store
            # still holds every pre-mutation row, not an empty or
            # half-loaded table.
            with backend._lock:
                raw = backend._fetch_locked(
                    f"SELECT * FROM {table_name('EMP')}"
                )
            assert sorted(tuple(r) for r in raw) == old
        # The staleness counter was not advanced, so the next execute
        # re-syncs and observes the mutation.
        after = backend.execute(emp_scan())
        assert sorted(after.rows) == [("zed", "glue", 9)]

    def test_mid_create_fault_rolls_back_ddl(self):
        database = small_database()
        backend = SQLiteBackend()
        backend._chunk_rows = 2  # EMP's 4 rows span two chunks
        with faults.inject({"backend.load": faults.Fault("raise",
                                                         times=1)}):
            with pytest.raises(FaultInjected):
                backend.load(database)
        assert not backend._created  # CREATE TABLE rolled back too
        # A clean reload succeeds from scratch: were the DDL left
        # behind, the retried CREATE TABLE would fail.
        backend.load(database)
        assert backend.execute(emp_scan()) \
            == PythonBackend(database).execute(emp_scan())

    def test_chunked_load_commits_once(self):
        database = small_database()
        backend = SQLiteBackend()
        backend._chunk_rows = 1  # one executemany per row
        with faults.inject({}) as plan:
            backend.load(database)
        # 4 EMP rows + 2 DEPT rows, one site visit per chunk.
        assert plan.visits["backend.load"] == 6
        assert backend.execute(emp_scan()) \
            == PythonBackend(database).execute(emp_scan())


class TestEngineIntegration:
    def test_engine_builds_configured_backend(self):
        engine = AuthorizationEngine(
            small_database(),
            config=DEFAULT_CONFIG.but(backend="sqlite"),
        )
        assert engine.backend.name == "sqlite"

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(BackendUnavailableError):
            AuthorizationEngine(
                small_database(),
                config=DEFAULT_CONFIG.but(backend="nope"),
            )

    def test_backend_fault_fails_over_to_oracle(self):
        # PR 8 semantics: a persistent backend fault no longer denies
        # the request — the executor retries, exhausts, and soundly
        # re-evaluates on the Python oracle with identical delivery.
        engine = AuthorizationEngine(
            small_database(),
            config=DEFAULT_CONFIG.but(backend="sqlite"),
        )
        engine.define_view("view V (EMP.NAME, EMP.DEPT)")
        engine.permit("V", "u")
        query = "retrieve (EMP.NAME, EMP.DEPT)"
        clean = engine.authorize("u", query)
        assert clean.delivered
        assert clean.backend_used == "sqlite"
        assert clean.failover_reason is None
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            faulted = engine.authorize("u", query)
        assert faulted.error is None
        assert faulted.backend_used == "python"
        assert "retry exhausted" in faulted.failover_reason
        assert sorted(faulted.delivered) == sorted(clean.delivered)
        # And cleanly on the primary again afterwards.
        after = engine.authorize("u", query)
        assert after.backend_used == "sqlite"
        assert after.delivered == clean.delivered

    def test_backend_fault_fails_closed_without_failover(self):
        # With the safety net off, PR 7 semantics are preserved:
        # retry exhaustion fails the request closed.
        engine = AuthorizationEngine(
            small_database(),
            config=DEFAULT_CONFIG.but(
                backend="sqlite", backend_failover=False,
            ),
        )
        engine.define_view("view V (EMP.NAME, EMP.DEPT)")
        engine.permit("V", "u")
        query = "retrieve (EMP.NAME, EMP.DEPT)"
        clean = engine.authorize("u", query)
        assert clean.delivered
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            faulted = engine.authorize("u", query)
        assert faulted.error is not None
        assert faulted.delivered == ()
        # And cleanly again afterwards.
        assert engine.authorize("u", query).delivered \
            == clean.delivered


class TestServingIntegration:
    def test_per_tenant_backend_override(self):
        server = AuthorizationServer(ServerConfig(workers=2))
        try:
            tenant_py = server.add_tenant("alpha", small_database())
            tenant_sq = server.add_tenant(
                "beta", small_database(), backend="sqlite"
            )
            assert tenant_py.backend.name == "python"
            assert tenant_sq.backend.name == "sqlite"
            for tenant in (tenant_py, tenant_sq):
                tenant.engine.define_view("view V (EMP.NAME, EMP.SAL)")
                tenant.engine.permit("V", "u")
            query = "retrieve (EMP.NAME, EMP.SAL)"
            a = server.submit("alpha", "u", query).result(timeout=10)
            b = server.submit("beta", "u", query).result(timeout=10)
            assert sorted(a.delivered, key=repr) \
                == sorted(b.delivered, key=repr)
        finally:
            server.close()


class TestWorkloadBulkLoad:
    def test_scaled_instance_loads_into_backend(self):
        generator = WorkloadGenerator(7)
        spec = WorkloadSpec(seed=7, relations=2)
        db_schema = generator.schema(spec)
        backend = SQLiteBackend()
        database = generator.scaled_instance(
            spec, db_schema, {"R0": 500, "R1": 20}, backend=backend
        )
        # Dedupe may shrink below the requested counts, never grow.
        assert 0 < database.instance("R0").cardinality <= 500
        plan = PSJQuery((Occurrence("R0"),), (),
                        tuple(range(db_schema.get("R0").arity)))
        assert backend.execute(plan) \
            == PythonBackend(database).execute(plan)

    def test_scaled_instance_uniform_count(self):
        generator = WorkloadGenerator(11)
        spec = WorkloadSpec(seed=11, relations=2)
        db_schema = generator.schema(spec)
        database = generator.scaled_instance(spec, db_schema, 64)
        for rel in db_schema:
            assert 0 < database.instance(rel.name).cardinality <= 64
