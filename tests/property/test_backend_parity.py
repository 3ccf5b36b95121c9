"""Differential parity: SQL backends ≡ the PythonBackend oracle.

The SQL backends (``repro.backends.sqlite.SQLiteBackend``, and DuckDB
when its driver is installed) compile plans — and SQL-extractable
masks — into statements for an embedded engine.  They must stay
*sorted-row identical* to ``repro.backends.python.PythonBackend``, the
in-process reference evaluator, on three surfaces:

* ``execute`` — the unmasked answer, as a set of rows;
* ``execute_masked`` — delivered tuples with ``MASKED`` cells, with
  and without a compiled mask, with and without ``drop_fully_masked``,
  including degraded-ladder masks and the ``covers_everything`` fast
  path;
* the whole engine — ``authorize`` through a sqlite-backed engine
  delivers the same multiset of tuples as through the default one.

Soundlint rule SL008 pins each backend to this suite.  Row *order* is
backend-specific by design (Relation equality is set equality), so
every comparison here sorts first.
"""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import make_backend
from repro.backends.python import PythonBackend
from repro.backends.sqlite import SQLiteBackend
from repro.calculus.to_algebra import compile_query
from repro.config import DEFAULT_CONFIG
from repro.core.compiled_mask import compile_mask
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
        # column, which compile without DISTINCT.  Under a mask that
        # hides every cell the masked statement returns one row per
        # answer row, so equal counts (with equal row sets) mean equal
        # multisets.
        plan, database = case
        python, sqlite = oracle_pair(database)
        assert python.execute(plan) == sqlite.execute(plan)
        hidden = Mask(plan.output_columns(database.schema), ())
        assert len(sqlite.execute_masked(plan, hidden)) \
            == len(python.execute_masked(plan, hidden)), \
            plan.describe(database.schema)


class TestMaskedParity:
    @SLOW
    @given(seeds, st.booleans(), st.booleans())
    def test_delivered_rows_agree(self, seed, use_compiled, drop):
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
                compiled = compile_mask(mask) if use_compiled else None
                expect = python.execute_masked(
                    plan, mask, compiled, drop_fully_masked=drop
                )
                got = sqlite.execute_masked(
                    plan, mask, compiled, drop_fully_masked=drop
                )
                assert sorted_rows(expect) == sorted_rows(got), (
                    f"seed={seed} user={user} drop={drop} "
                    f"pushdown={compile_mask(mask).pushdown} "
                    f"plan={plan.describe(schema)}"
                )

    @SLOW
    @given(seeds, st.integers(min_value=0, max_value=EMPTY_LEVEL))
    def test_degraded_ladder_masks_agree(self, seed, floor):
        # Masks from every degradation rung — including the empty
        # mask — must push down (or fall back) identically.
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        engine = AuthorizationEngine(workload.database, workload.catalog)
        python, sqlite = oracle_pair(workload.database)
        query = generator.query(spec, schema)
        plan = compile_query(query, schema)
        for user in workload.users:
            answer = engine.authorize_degraded(user, query, floor)
            mask = answer.mask
            expect = python.execute_masked(plan, mask)
            got = sqlite.execute_masked(plan, mask)
            assert sorted_rows(expect) == sorted_rows(got), \
                f"seed={seed} floor={floor} user={user}"


class TestEngineParity:
    @SLOW
    @given(seeds)
    def test_authorize_delivers_identically(self, seed):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        default_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        sqlite_engine = AuthorizationEngine(
            workload.database, workload.catalog,
            DEFAULT_CONFIG.but(backend="sqlite"),
        )
        assert isinstance(default_engine.backend, PythonBackend)
        assert isinstance(sqlite_engine.backend, SQLiteBackend)
        for _ in range(2):
            query = generator.query(spec, schema)
            for user in workload.users:
                via_python = default_engine.authorize(user, query)
                via_sqlite = sqlite_engine.authorize(user, query)
                assert via_python.answer == via_sqlite.answer
                assert sorted_rows(via_python.delivered) \
                    == sorted_rows(via_sqlite.delivered), \
                    f"seed={seed} user={user} query={query}"
                assert [str(p) for p in via_python.permits] \
                    == [str(p) for p in via_sqlite.permits]


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
    @given(seeds)
    def test_execute_and_masked_parity(self, seed):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        engine = AuthorizationEngine(workload.database, workload.catalog)
        python = PythonBackend(workload.database)
        duck = make_backend("duckdb", workload.database)
        query = generator.query(spec, schema)
        plan = compile_query(query, schema)
        assert python.execute(plan) == duck.execute(plan)
        for user in workload.users:
            derivation = engine.derive(user, query)
            assert derivation.mask is not None
            mask = Mask.from_table(derivation.mask)
            assert sorted_rows(python.execute_masked(plan, mask)) \
                == sorted_rows(duck.execute_masked(plan, mask))
