"""Unit tests for the permission catalog (Section 3's storage)."""

import pytest

from repro.errors import DuplicateViewError, UnknownViewError
from repro.meta.catalog import PermissionCatalog


class TestViewDefinition:
    def test_encode_figure1(self, paper_catalog):
        rows = paper_catalog.meta_relation_rows("EMPLOYEE")
        assert [view for view, _ in rows] == ["SAE", "ELP", "EST", "EST"]

    def test_global_variable_numbering(self, paper_catalog):
        # Figure 1: ELP uses x1..x3, EST uses x4.
        elp_vars = paper_catalog.view("ELP").variables()
        est_vars = paper_catalog.view("EST").variables()
        assert set(elp_vars) == {"x1", "x2", "x3"}
        assert set(est_vars) == {"x4"}

    def test_duplicate_name_rejected(self, paper_catalog):
        with pytest.raises(DuplicateViewError):
            paper_catalog.define_view("view SAE (EMPLOYEE.NAME)")

    def test_unknown_view(self, paper_catalog):
        with pytest.raises(UnknownViewError):
            paper_catalog.view("NOPE")

    def test_define_from_text_or_ast(self, paper_db):
        from repro.lang.parser import parse_view

        catalog = PermissionCatalog(paper_db.schema)
        catalog.define_view("view A (EMPLOYEE.NAME)")
        catalog.define_view(parse_view("view B (EMPLOYEE.TITLE)"))
        assert catalog.view_names() == ("A", "B")

    def test_drop_view_cascades_grants(self, paper_catalog):
        paper_catalog.drop_view("EST")
        assert not paper_catalog.has_view("EST")
        assert "EST" not in paper_catalog.views_of("Brown")
        assert "EST" not in paper_catalog.views_of("Klein")

    def test_drop_unknown(self, paper_catalog):
        with pytest.raises(UnknownViewError):
            paper_catalog.drop_view("NOPE")


class TestPermissions:
    def test_figure1_grants(self, paper_catalog):
        assert paper_catalog.views_of("Brown") == ("SAE", "PSA", "EST")
        assert paper_catalog.views_of("Klein") == ("ELP", "EST")

    def test_permit_idempotent(self, paper_catalog):
        before = paper_catalog.version
        paper_catalog.permit("SAE", "Brown")
        assert paper_catalog.views_of("Brown").count("SAE") == 1
        assert paper_catalog.version == before

    def test_permit_unknown_view(self, paper_catalog):
        with pytest.raises(UnknownViewError):
            paper_catalog.permit("NOPE", "Brown")

    def test_revoke(self, paper_catalog):
        paper_catalog.revoke("EST", "Brown")
        assert paper_catalog.views_of("Brown") == ("SAE", "PSA")
        assert paper_catalog.is_permitted("Klein", "EST")

    def test_revoke_absent_is_noop(self, paper_catalog):
        before = paper_catalog.version
        paper_catalog.revoke("ELP", "Brown")
        assert paper_catalog.version == before

    def test_users(self, paper_catalog):
        assert set(paper_catalog.users()) == {"Brown", "Klein"}

    def test_version_bumps_on_changes(self, paper_catalog):
        v0 = paper_catalog.version
        paper_catalog.define_view("view X (EMPLOYEE.NAME)")
        v1 = paper_catalog.version
        paper_catalog.permit("X", "Brown")
        v2 = paper_catalog.version
        paper_catalog.revoke("X", "Brown")
        v3 = paper_catalog.version
        assert v0 < v1 < v2 < v3


class TestPruningServices:
    def test_admissible_views_example1(self, paper_catalog):
        assert paper_catalog.snapshot("Brown", ["PROJECT"]).names == \
            ("PSA",)

    def test_admissible_views_example2(self, paper_catalog):
        admissible = paper_catalog.snapshot(
            "Klein", ["EMPLOYEE", "ASSIGNMENT", "PROJECT"]
        ).names
        assert set(admissible) == {"ELP", "EST"}

    def test_admissible_views_example3(self, paper_catalog):
        admissible = paper_catalog.snapshot("Brown", ["EMPLOYEE"]).names
        assert set(admissible) == {"SAE", "EST"}

    def test_tuples_for(self, paper_catalog):
        views = paper_catalog.snapshot_of(["SAE", "EST"])
        assert len(views.tuples_for("EMPLOYEE")) == 3  # SAE once, EST twice

    def test_store_for(self, paper_catalog):
        store = paper_catalog.snapshot_of(["ELP"]).store()
        assert store.interval_for("x3").contains(250_000)
        assert paper_catalog.snapshot_of(["SAE"]).store().is_empty()

    def test_defining_tuples(self, paper_catalog):
        defining = paper_catalog.snapshot_of(["ELP", "EST"]).defining_tuples()
        assert defining["x1"] == frozenset({("ELP", 0), ("ELP", 2)})
        assert defining["x4"] == frozenset({("EST", 0), ("EST", 1)})
        # x3 appears in one meta-tuple only (plus COMPARISON).
        assert defining["x3"] == frozenset({("ELP", 1)})


class TestDisplayRows:
    def test_comparison_rows(self, paper_catalog):
        assert paper_catalog.comparison_rows() == \
            (("ELP", "x3", ">=", "250,000"),)

    def test_permission_rows_order(self, paper_catalog):
        rows = paper_catalog.permission_rows()
        assert rows[0] == ("Brown", "SAE")
        assert rows[-1] == ("Klein", "EST")

    def test_meta_relation_rows_filtered(self, paper_catalog):
        rows = paper_catalog.meta_relation_rows("EMPLOYEE", ["EST"])
        assert [view for view, _ in rows] == ["EST", "EST"]
