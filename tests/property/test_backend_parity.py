"""Differential parity: SQL backends ≡ the PythonBackend oracle.

The SQL backends (``repro.backends.sqlite.SQLiteBackend``, and DuckDB
when its driver is installed) compile plans into statements for an
embedded engine.  They must stay identical to
``repro.backends.python.PythonBackend``, the in-process reference
evaluator, on two surfaces:

* ``execute`` — the unmasked answer, as a set of rows, and the rows
  it delivers under a derived mask, whether the interpreted
  ``Mask.apply`` or the compiled kernel applies it;
* the whole engine — a sqlite-backed engine delivers the rows, permits
  and delivery tally of a python-backed one, through ``authorize``
  (with and without ``drop_fully_masked_rows``), ``authorize_degraded``
  at every rung of the ladder, and a drained ``authorize_stream``.

The engine masks every backend's answer with the same compiled-mask
kernel, so a difference on the second surface is the SQL evaluation's.
Soundlint rule SL008 pins each backend to this suite.  Row *order* is
backend-specific by design (Relation equality is set equality), so
every comparison of rows here sorts first.
"""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.python import PythonBackend
from repro.backends.sqlite import SQLiteBackend
from repro.calculus.to_algebra import compile_query
from repro.config import DEFAULT_CONFIG
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
from repro.core.engine import AuthorizationEngine
from repro.core.mask import Mask
from repro.metaalgebra.ladder import EMPTY_LEVEL
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.property.test_chunked_apply import raw_plans

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "20"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def make_workload(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=8)
    return generator, spec, generator.workload(spec)


def sorted_rows(rows):
    """Canonical order for cross-backend comparison.

    ``repr`` as the key because delivered rows mix values with the
    (unorderable) ``MASKED`` sentinel.
    """
    return sorted(rows, key=repr)


def oracle_pair(database):
    return (PythonBackend(database), SQLiteBackend(database))


def engine_pair(workload, backend="sqlite", **config):
    """A python-backed engine and a ``backend``-backed one, alike in
    every other setting, over one workload."""
    config = DEFAULT_CONFIG.but(**config)
    return (
        AuthorizationEngine(workload.database, workload.catalog, config),
        AuthorizationEngine(workload.database, workload.catalog,
                            config.but(backend=backend)),
    )


def delivery(answer, rows=None):
    """What a user sees of an answer or a drained stream — its rows in
    canonical order, its tally and its permits — and the backend that
    evaluated it (None for a denial, which evaluates nothing)."""
    rows = answer.delivered if rows is None else rows
    return (sorted_rows(rows), answer.stats(),
            [str(p) for p in answer.permits], answer.backend_used)


def assert_same_delivery(expect, got, backend, context):
    """``got`` shows what ``expect`` shows, and ran on ``backend``
    whenever ``expect`` ran at all: a silent failover to the oracle
    cannot pass for parity."""
    *expect_seen, expect_used = expect
    *got_seen, got_used = got
    assert got_seen == expect_seen, context
    assert got_used == (backend if expect_used else None), context


class TestExecuteParity:
    @SLOW
    @given(seeds)
    def test_answers_are_set_identical(self, seed):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        python, sqlite = oracle_pair(workload.database)
        for _ in range(3):
            plan = compile_query(generator.query(spec, schema), schema)
            assert python.execute(plan) == sqlite.execute(plan), \
                f"seed={seed} plan={plan.describe(schema)}"

    @SLOW
    @given(seeds)
    def test_parity_survives_mutation(self, seed):
        # Version-counter sync: inserting, deleting, and reloading
        # relations must be observed by the SQL backend's store.
        generator, spec, workload = make_workload(seed)
        database = workload.database
        schema = database.schema
        python, sqlite = oracle_pair(database)
        plan = compile_query(generator.query(spec, schema), schema)
        assert python.execute(plan) == sqlite.execute(plan)
        mutated = generator.mutate(spec, database)
        python.load(mutated)
        sqlite.load(mutated)
        plan2 = compile_query(generator.query(spec, schema), schema)
        assert python.execute(plan2) == sqlite.execute(plan2)
        # In-place mutation of the already-loaded database.
        name = next(iter(plan.relation_names()))
        rel_schema = schema.get(name)
        new_row = next(iter(generator.iter_rows(spec, rel_schema, 1)))
        mutated.insert(name, new_row)
        assert python.execute(plan) == sqlite.execute(plan), \
            f"seed={seed} stale after insert into {name}"


class TestRawPlanParity:
    # Ten times the shared budget: raw plans are cheap, and a dropped
    # column over repeated values is what a missing DISTINCT needs.
    @settings(SLOW, max_examples=10 * MAX_EXAMPLES)
    @given(raw_plans())
    def test_each_answer_row_arrives_once(self, case):
        # Raw plans include self-joins and projections that keep every
        # column, which compile without DISTINCT.  Every SQL result is
        # read into a Relation, which dedupes, so equal row sets are
        # the whole check: no delivery can see a repeated row.
        plan, database = case
        python, sqlite = oracle_pair(database)
        assert python.execute(plan) == sqlite.execute(plan), \
            plan.describe(database.schema)


class TestMaskedParity:
    @SLOW
    @given(seeds, st.booleans(), st.booleans())
    def test_delivered_rows_agree(self, seed, use_compiled, drop):
        # Masking happens after evaluation, the same way for every
        # backend: the SQL answer delivers what the oracle's does.
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        engine = AuthorizationEngine(workload.database, workload.catalog)
        python, sqlite = oracle_pair(workload.database)
        for _ in range(2):
            query = generator.query(spec, schema)
            plan = compile_query(query, schema)
            for user in workload.users:
                derivation = engine.derive(user, query)
                assert derivation.mask is not None
                mask = Mask.from_table(derivation.mask)
                if use_compiled:
                    compiled = compile_mask(mask)
                    expect, got = (
                        apply_mask_columnar(compiled, backend.execute(plan),
                                            drop_fully_masked=drop)
                        for backend in (python, sqlite)
                    )
                else:
                    expect, got = (
                        mask.apply(backend.execute(plan),
                                   drop_fully_masked=drop)
                        for backend in (python, sqlite)
                    )
                assert sorted_rows(expect) == sorted_rows(got), (
                    f"seed={seed} user={user} drop={drop} "
                    f"compiled={use_compiled} plan={plan.describe(schema)}"
                )


class TestEngineParity:
    @SLOW
    @given(seeds, st.booleans())
    def test_authorize_delivers_identically(self, seed, drop):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        python, sqlite = engine_pair(workload,
                                     drop_fully_masked_rows=drop)
        assert isinstance(python.backend, PythonBackend)
        assert isinstance(sqlite.backend, SQLiteBackend)
        for _ in range(2):
            query = generator.query(spec, schema)
            for user in workload.users:
                via_python = python.authorize(user, query)
                via_sqlite = sqlite.authorize(user, query)
                assert via_python.answer == via_sqlite.answer
                assert_same_delivery(
                    delivery(via_python), delivery(via_sqlite), "sqlite",
                    f"seed={seed} drop={drop} user={user} query={query}",
                )

    @SLOW
    @given(seeds)
    def test_degraded_delivers_identically(self, seed):
        # Every rung of the ladder, the empty mask's denial included.
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        python, sqlite = engine_pair(workload)
        query = generator.query(spec, schema)
        for floor in range(EMPTY_LEVEL + 1):
            for user in workload.users:
                assert_same_delivery(
                    delivery(python.authorize_degraded(user, query, floor)),
                    delivery(sqlite.authorize_degraded(user, query, floor)),
                    "sqlite",
                    f"seed={seed} floor={floor} user={user} query={query}",
                )

    @SLOW
    @given(seeds, st.booleans(), st.integers(min_value=1, max_value=4))
    def test_drained_stream_delivers_identically(self, seed, drop,
                                                 chunk_size):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        python, sqlite = engine_pair(workload,
                                     drop_fully_masked_rows=drop)
        query = generator.query(spec, schema)
        for user in workload.users:
            streams = [
                engine.authorize_stream(user, query, chunk_size=chunk_size)
                for engine in (python, sqlite)
            ]
            expect, got = (
                delivery(stream, [row for chunk in stream for row in chunk])
                for stream in streams
            )
            assert_same_delivery(
                expect, got, "sqlite",
                f"seed={seed} drop={drop} user={user} query={query}",
            )


@pytest.mark.skipif(
    importlib.util.find_spec("duckdb") is None,
    reason="optional duckdb driver not installed",
)
class TestDuckDBParity:
    """Runs only when the optional duckdb driver is installed.

    DuckDBBackend shares the SQL compiler with SQLiteBackend; this
    repeats the core parity checks against PythonBackend so an
    installed driver is actually exercised (SL008's registered suite
    for ``repro.backends.duckdb.DuckDBBackend``).
    """

    @SLOW
    @given(seeds, st.booleans())
    def test_execute_and_engine_parity(self, seed, drop):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        python, duck = engine_pair(workload, backend="duckdb",
                                   drop_fully_masked_rows=drop)
        query = generator.query(spec, schema)
        plan = compile_query(query, schema)
        assert python.backend.execute(plan) == duck.backend.execute(plan)
        for user in workload.users:
            assert_same_delivery(
                delivery(python.authorize(user, query)),
                delivery(duck.authorize(user, query)), "duckdb",
                f"seed={seed} drop={drop} user={user} query={query}",
            )
