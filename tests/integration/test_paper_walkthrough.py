"""Integration: the full Section 5 walkthrough at the engine level.

The experiment modules assert the paper's tables in detail; these tests
retell the three examples through the public API only, the way a user
of the library would, and add cross-cutting assertions (sound deliveries
against materialized views, permit statements, revocation effects).
"""


from repro.baselines.oracle import materialize_view
from repro.core.mask import MASKED
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
)


class TestExample1:
    def test_delivery(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert set(answer.delivered) == {
            ("bq-45", "Acme"), (MASKED, MASKED),
        }

    def test_permit_statement(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert [str(p) for p in answer.permits] == [
            "permit (NUMBER, SPONSOR) where SPONSOR = Acme",
        ]

    def test_delivered_rows_within_psa(self, paper_engine, paper_catalog,
                                       paper_db):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        psa = materialize_view(paper_catalog, "PSA", paper_db)
        psa_pairs = {(row[0], row[1]) for row in psa.rows}
        for row in answer.delivered:
            if MASKED not in row:
                assert row in psa_pairs


class TestExample2:
    def test_salary_masked_name_delivered(self, paper_engine):
        answer = paper_engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert answer.delivered == (("Brown", MASKED),)

    def test_permit_statement(self, paper_engine):
        answer = paper_engine.authorize("Klein", EXAMPLE_2_QUERY)
        assert [str(p) for p in answer.permits] == ["permit (NAME)"]

    def test_name_within_elp(self, paper_engine, paper_catalog, paper_db):
        answer = paper_engine.authorize("Klein", EXAMPLE_2_QUERY)
        elp = materialize_view(paper_catalog, "ELP", paper_db)
        elp_names = {row[0] for row in elp.rows}
        for row in answer.delivered:
            if row[0] is not MASKED:
                assert row[0] in elp_names


class TestExample3:
    def test_full_delivery_without_permits(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert answer.is_fully_delivered
        assert answer.permits == ()

    def test_klein_gets_names_only(self, paper_engine):
        # Klein holds EST but not SAE: same-title *names* are fine,
        # salaries are not.
        answer = paper_engine.authorize("Klein", EXAMPLE_3_QUERY)
        for row in answer.delivered:
            name1, salary1, name2, salary2 = row
            assert salary1 is MASKED and salary2 is MASKED
            assert name1 is not MASKED and name2 is not MASKED


class TestRevocationFlows:
    def test_revoking_psa_kills_example1(self, paper_engine):
        paper_engine.revoke("PSA", "Brown")
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert answer.is_fully_masked
        assert answer.permits == ()

    def test_regranting_restores(self, paper_engine):
        paper_engine.revoke("PSA", "Brown")
        paper_engine.permit("PSA", "Brown")
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert ("bq-45", "Acme") in answer.delivered

    def test_example3_degrades_without_sae(self, paper_engine):
        full = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        paper_engine.revoke("SAE", "Brown")
        reduced = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)
        assert reduced.stats().delivered_cells < \
            full.stats().delivered_cells
        # names still flow through EST
        assert any(
            row[0] is not MASKED for row in reduced.delivered
        )


class TestQueryVariations:
    def test_narrower_budget_still_authorized(self, paper_engine):
        """Klein's query for budgets over 500,000 is a view of ELP and
        should be fully authorized on the name/title columns."""
        answer = paper_engine.authorize("Klein", (
            "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
            "and PROJECT.BUDGET > 400,000"
        ))
        assert answer.is_fully_delivered

    def test_budget_below_threshold_masked(self, paper_engine):
        """Budgets under 250,000 contradict ELP's comparison: nothing
        may be delivered."""
        answer = paper_engine.authorize("Klein", (
            "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
            "and PROJECT.BUDGET < 200,000"
        ))
        assert answer.is_fully_masked

    def test_elp_columns_beyond_name_title(self, paper_engine):
        """ELP also projects NUMBER and BUDGET; Klein may see them."""
        answer = paper_engine.authorize("Klein", (
            "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER, PROJECT.BUDGET) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
            "and PROJECT.BUDGET >= 250,000"
        ))
        assert answer.is_fully_delivered

    def test_sponsor_never_leaks_to_klein(self, paper_engine):
        """SPONSOR is in no view of Klein's; it must always mask."""
        answer = paper_engine.authorize("Klein", (
            "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
            "and PROJECT.BUDGET >= 250,000"
        ))
        for row in answer.delivered:
            assert row[1] is MASKED
