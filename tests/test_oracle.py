"""Unit tests for the soundness oracle."""

import pytest

from repro.baselines.oracle import (
    check_non_interference,
    delivered_rows,
    delivered_view,
    materialize_view,
    materialize_views,
    views_agree,
)
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    build_paper_database,
)


class TestMaterialization:
    def test_psa(self, paper_db, paper_catalog):
        psa = materialize_view(paper_catalog, "PSA", paper_db)
        assert set(psa.rows) == {("bq-45", "Acme", 300_000)}

    def test_elp(self, paper_db, paper_catalog):
        elp = materialize_view(paper_catalog, "ELP", paper_db)
        assert all(row[3] >= 250_000 for row in elp.rows)
        assert elp.cardinality == 4

    def test_materialize_views(self, paper_db, paper_catalog):
        views = materialize_views(
            paper_catalog, ["SAE", "PSA"], paper_db
        )
        assert set(views) == {"SAE", "PSA"}


class TestViewsAgree:
    def test_identical_instances_agree(self, paper_db, paper_catalog):
        other = build_paper_database()
        assert views_agree(paper_catalog, "Brown", paper_db, other)

    def test_invisible_change_agrees(self, paper_catalog, paper_db):
        # Brown's views (SAE, PSA, EST) never expose TITLE values of
        # distinct-title employees beyond equality; changing Summit's
        # budget is invisible to all three.
        other = build_paper_database()
        other.load("PROJECT", [
            ("bq-45", "Acme", 300_000),
            ("sv-72", "Apex", 450_000),
            ("vg-13", "Summit", 99),
        ])
        assert views_agree(paper_catalog, "Brown", paper_db, other)

    def test_visible_change_disagrees(self, paper_catalog, paper_db):
        other = build_paper_database()
        other.load("EMPLOYEE", [
            ("Jones", "manager", 1),
            ("Smith", "technician", 22_000),
            ("Brown", "engineer", 32_000),
        ])
        # SAE exposes salaries.
        assert not views_agree(paper_catalog, "Brown", paper_db, other)


class TestNonInterference:
    def test_agreeing_instances_deliver_equally(self, paper_catalog,
                                                paper_db):
        other = build_paper_database()
        other.load("PROJECT", [
            ("bq-45", "Acme", 300_000),
            ("sv-72", "Apex", 450_000),
            ("vg-13", "Summit", 99),  # invisible to Brown's views
        ])
        ok, message = check_non_interference(
            paper_catalog, "Brown", EXAMPLE_1_QUERY, paper_db, other
        )
        assert ok, message

    def test_vacuous_when_views_disagree(self, paper_catalog, paper_db):
        other = build_paper_database()
        other.load("PROJECT", [("xx-1", "Acme", 1)])
        ok, message = check_non_interference(
            paper_catalog, "Brown", EXAMPLE_1_QUERY, paper_db, other
        )
        assert ok and "vacuous" in message

    def test_delivered_view_drops_fully_masked_rows(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        view = delivered_view(answer)
        assert view == frozenset({("bq-45", "Acme")})

    def test_delivered_view_marks_partial_cells(self, paper_engine):
        from repro.workloads.paperdb import EXAMPLE_2_QUERY

        answer = paper_engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert delivered_view(answer) == frozenset({("Brown", "#")})


def summit_budget_raised():
    """The paper database with vg-13's budget raised from 150,000 to
    260,000: Brown's views (SAE, PSA, EST) cannot tell the two apart,
    but EXAMPLE_1_QUERY's answer grows by one row."""
    other = build_paper_database()
    other.load("PROJECT", [
        ("bq-45", "Acme", 300_000),
        ("sv-72", "Apex", 450_000),
        ("vg-13", "Summit", 260_000),
    ])
    return other


class TestStrictNonInterference:
    def test_delivered_rows_keep_fully_masked_rows(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert delivered_rows(answer) == {
            ("bq-45", "Acme"): 1, ("#", "#"): 1,
        }

    def test_set_oracle_passes_the_masked_row_count(self, paper_catalog,
                                                    paper_db):
        other = summit_budget_raised()
        assert views_agree(paper_catalog, "Brown", paper_db, other)
        ok, message = check_non_interference(
            paper_catalog, "Brown", EXAMPLE_1_QUERY, paper_db, other
        )
        assert ok, message

    @pytest.mark.xfail(strict=True, reason=(
        "known leak, ROADMAP.md item 1: fully masked rows are "
        "delivered, so Brown gets one (#####, #####) row on one "
        "instance and two on the other"
    ))
    def test_masked_rows_do_not_reveal_the_answer_size(self, paper_catalog,
                                                       paper_db):
        ok, message = check_non_interference(
            paper_catalog, "Brown", EXAMPLE_1_QUERY, paper_db,
            summit_budget_raised(), strict=True,
        )
        assert ok, message
