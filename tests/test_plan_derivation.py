"""Unit tests for the mask-derivation pipeline (metaalgebra.plan)."""

import pytest

from repro.calculus.to_algebra import compile_query
from repro.config import DEFAULT_CONFIG
from repro.experiments.tables import meta_tuple_cells
from repro.lang.parser import parse_query
from repro.metaalgebra.plan import derive_mask
from repro.workloads.paperdb import (
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_catalog,
    build_paper_database,
)


@pytest.fixture
def setup():
    database = build_paper_database()
    catalog = build_paper_catalog(database)
    return database, catalog


def derive(setup, user, query_text, config=DEFAULT_CONFIG, **kwargs):
    database, catalog = setup
    plan = compile_query(parse_query(query_text), database.schema)
    views = catalog.snapshot(user, plan.relation_names())
    return derive_mask(plan, database.schema, views, config, **kwargs)


class TestStageOne:
    def test_admissible_views_recorded(self, setup):
        derivation = derive(
            setup, "Klein", EXAMPLE_2_QUERY.replace("\n", " ")
        )
        assert set(derivation.admissible_views) == {"ELP", "EST"}

    def test_unknown_user_yields_empty_everything(self, setup):
        derivation = derive(setup, "nobody", "retrieve (EMPLOYEE.NAME)")
        assert derivation.admissible_views == ()
        assert derivation.raw_product.cardinality == 0
        assert derivation.mask is not None
        assert derivation.mask.cardinality == 0


class TestTraceStages:
    def test_selection_steps_recorded_in_order(self, setup):
        derivation = derive(
            setup, "Klein", EXAMPLE_2_QUERY.replace("\n", " ")
        )
        # Four conditions; the two budget/title constants group per
        # column, the joins stay separate: 4 steps total here.
        assert len(derivation.after_selections) == 4

    def test_projected_stage_before_cleanup(self, setup):
        derivation = derive(
            setup, "Brown", EXAMPLE_3_QUERY.replace("\n", " ")
        )
        assert derivation.projected is not None
        assert derivation.mask is not None
        # Cleanup only ever removes rows.
        assert derivation.mask.cardinality <= \
            derivation.projected.cardinality


class TestConfigurationEffects:
    def test_selfjoin_pool_filtering(self, setup):
        """Combinations involving non-admissible views must not enter
        the product: the closure ranges over the admissible views
        only, so a permitted view outside the query's relations never
        joins in."""
        database, catalog = setup
        # GHOST would combine with SAE on EMPLOYEE (both star the key
        # NAME), but it also spans PROJECT.
        catalog.define_view(
            "view GHOST (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER)"
        )
        catalog.permit("GHOST", "Brown")
        narrow = derive(setup, "Brown",
                        "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)")
        assert "GHOST" not in narrow.admissible_views
        for rows in narrow.selfjoin_added.values():
            assert all("GHOST" not in t.views for t in rows)
        wide = derive(setup, "Brown",
                      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY, "
                      "PROJECT.NUMBER)")
        assert any(t.views == {"SAE", "GHOST"}
                   for t in wide.selfjoin_added["EMPLOYEE"])

    def test_mask_columns_follow_output(self, setup):
        derivation = derive(
            setup, "Brown",
            "retrieve (PROJECT.SPONSOR, PROJECT.NUMBER) "
            "where PROJECT.BUDGET >= 250,000",
        )
        assert derivation.mask is not None
        assert derivation.mask.labels() == ("SPONSOR", "NUMBER")
        assert [meta_tuple_cells(r.meta) for r in derivation.mask.rows] \
            == [("Acme*", "*")]
