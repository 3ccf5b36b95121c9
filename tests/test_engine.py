"""Unit tests for the authorization engine."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.errors import ParseError, UnknownViewError
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
)


class TestAuthorize:
    def test_accepts_text_or_ast(self, paper_engine):
        from repro.lang.parser import parse_query

        by_text = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        by_ast = paper_engine.authorize(
            "Brown", parse_query(EXAMPLE_1_QUERY)
        )
        assert by_text.delivered == by_ast.delivered

    def test_rejects_non_retrieve(self, paper_engine):
        with pytest.raises(ParseError):
            paper_engine.authorize("Brown", "permit SAE to Brown")

    def test_unknown_user_gets_nothing(self, paper_engine):
        answer = paper_engine.authorize("stranger", EXAMPLE_1_QUERY)
        assert answer.mask.is_empty
        assert answer.is_fully_masked

    def test_answer_carries_raw_and_masked(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.answer.cardinality == 2  # bq-45, sv-72
        assert len(answer.delivered) == 2

    def test_stats(self, paper_engine):
        stats = paper_engine.authorize("Brown", EXAMPLE_1_QUERY).stats()
        assert stats.total_cells == 4
        assert stats.delivered_cells == 2
        assert stats.full_rows == 1
        assert stats.masked_rows == 1
        assert stats.partial_rows == 0
        assert stats.delivered_fraction == 0.5

    def test_drop_fully_masked_config(self):
        from repro.workloads.paperdb import build_paper_engine

        engine = build_paper_engine(
            DEFAULT_CONFIG.but(drop_fully_masked_rows=True)
        )
        answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.delivered == (("bq-45", "Acme"),)

    def test_render_contains_table_and_permits(self, paper_engine):
        text = paper_engine.authorize("Brown", EXAMPLE_1_QUERY).render()
        assert "NUMBER" in text
        assert "permit (NUMBER, SPONSOR) where SPONSOR = Acme" in text

    def test_render_full_delivery_notes_no_permits(self, paper_engine):
        text = paper_engine.authorize("Brown", EXAMPLE_3_QUERY).render()
        assert "no permit statements" in text


class TestGrantManagement:
    def test_define_permit_revoke_cycle(self, paper_db):
        engine = AuthorizationEngine(paper_db)
        engine.define_view("view V (PROJECT.NUMBER, PROJECT.SPONSOR)")
        engine.permit("V", "u")
        first = engine.authorize(
            "u", "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)"
        )
        assert first.is_fully_delivered
        engine.revoke("V", "u")
        second = engine.authorize(
            "u", "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)"
        )
        assert second.is_fully_masked

    def test_permit_unknown_view(self, paper_engine):
        with pytest.raises(UnknownViewError):
            paper_engine.permit("NOPE", "Brown")


class TestSelfJoinCache:
    """The self-join closure is part of each derivation and is cached
    with it, under the definition serials of the admissible views."""

    def test_cache_is_populated_and_reused(self, paper_engine):
        first = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert len(first.derivation.selfjoin_added["EMPLOYEE"]) == 2
        # A second call reuses the same derivation, closure included.
        second = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert second.cache_hit
        assert second.derivation is first.derivation

    def test_other_users_grants_do_not_invalidate(self, paper_engine):
        first = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        # A grant mutation for a *different* user must not flush
        # Brown's closure.
        paper_engine.permit("PSA", "Klein")
        paper_engine.revoke("PSA", "Klein")
        again = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert again.derivation is first.derivation
        # Nor does a view Brown does not hold; granting it to Brown
        # changes Brown's admissible views, and so the key.
        paper_engine.define_view(
            "view SCRATCH (EMPLOYEE.NAME, EMPLOYEE.TITLE)"
        )
        assert paper_engine.authorize("Brown", EXAMPLE_3_QUERY).cache_hit
        paper_engine.permit("SCRATCH", "Brown")
        widened = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert not widened.cache_hit
        assert "SCRATCH" in widened.derivation.admissible_views

    def test_cache_invalidated_on_grant_changes(self, paper_engine):
        paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        paper_engine.revoke("EST", "Brown")
        answer = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        # Without EST the self-join disappears and salaries of pairs
        # can no longer be combined with the same-title selection.
        assert not answer.is_fully_delivered

    def test_masks_identical_with_and_without_cache(self, paper_engine):
        from repro.calculus.to_algebra import compile_query
        from repro.experiments.tables import meta_tuple_cells
        from repro.lang.parser import parse_query
        from repro.metaalgebra.plan import derive_mask

        plan = compile_query(
            parse_query(EXAMPLE_3_QUERY), paper_engine.database.schema
        )
        paper_engine.derive("Brown", EXAMPLE_3_QUERY)  # populate
        cached = paper_engine.derive("Brown", EXAMPLE_3_QUERY)
        uncached = derive_mask(
            plan, paper_engine.database.schema,
            paper_engine.catalog.snapshot("Brown", plan.relation_names()),
            paper_engine.config,
        )
        assert [meta_tuple_cells(r.meta) for r in cached.mask.rows] == \
            [meta_tuple_cells(r.meta) for r in uncached.mask.rows]


class TestCrossUserIsolation:
    def test_brown_cannot_use_kleins_views(self, paper_engine):
        # Example 2's query needs ELP, which Brown lacks.
        answer = paper_engine.authorize("Brown", EXAMPLE_2_QUERY)
        assert answer.is_fully_masked

    def test_klein_cannot_use_browns_views(self, paper_engine):
        # Example 1's query needs PSA, which Klein lacks.
        answer = paper_engine.authorize("Klein", EXAMPLE_1_QUERY)
        assert answer.is_fully_masked

    def test_masked_cells_use_sentinel(self, paper_engine):
        answer = paper_engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert all(
            value is MASKED or value == "Brown"
            for row in answer.delivered for value in row
        )
