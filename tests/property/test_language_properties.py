"""Property tests: the surface language round-trips, and masks agree
with per-row materialization."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED, materialize_meta_tuple
from repro.lang.parser import parse_statement
from repro.lang.printer import format_statement
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


class TestLanguageRoundTrip:
    @SLOW
    @given(seeds)
    def test_generated_views_roundtrip(self, seed):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed)
        schema = generator.schema(spec)
        for i in range(5):
            view = generator.view(spec, schema, f"V{i}")
            assert parse_statement(str(view)) == view
            assert parse_statement(format_statement(view)) == view

    @SLOW
    @given(seeds)
    def test_generated_queries_roundtrip(self, seed):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed)
        schema = generator.schema(spec)
        for _ in range(5):
            query = generator.query(spec, schema)
            assert parse_statement(str(query)) == query


class TestMaskSemantics:
    @SLOW
    @given(seeds)
    def test_apply_agrees_with_materialization(self, seed):
        """A cell is delivered iff some mask row's materialized subview
        of the answer contains it (the two mask semantics used in the
        codebase must coincide)."""
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3, views=3, users=1,
                            rows_per_relation=7)
        workload = generator.workload(spec)
        engine = AuthorizationEngine(workload.database, workload.catalog)
        query = generator.query(spec, workload.database.schema)
        answer = engine.authorize(workload.users[0], query)

        # Per-row materialization of every mask row over the answer.
        visible_by_row = {
            row_values: set() for row_values in answer.answer.rows
        }
        for mask_row in answer.mask.rows:
            starred = mask_row.meta.starred_positions()
            materialized = materialize_meta_tuple(
                mask_row.meta, mask_row.store, answer.answer
            )
            allowed = set(materialized.rows)
            for row_values in answer.answer.rows:
                projected = tuple(row_values[i] for i in starred)
                if projected in allowed:
                    # The projection may collide; double-check via the
                    # matching predicate (the authoritative semantics).
                    if answer.mask.row_matches(mask_row, row_values):
                        visible_by_row[row_values].update(starred)

        for delivered, raw in zip(answer.delivered, answer.answer.rows):
            expected_visible = visible_by_row[raw]
            for position, cell in enumerate(delivered):
                if cell is MASKED:
                    assert position not in expected_visible
                else:
                    assert position in expected_visible
