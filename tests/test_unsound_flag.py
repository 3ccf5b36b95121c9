"""The experimental ``require_star_for_selection=False`` flag.

The flag enables INGRES-flavoured delivery of query-predicate-selected
subsets of views.  These tests document both what it buys (the
Section 6(3)-style reductions) and what it costs: a demonstrable
non-interference violation — which is exactly why it is off by default.
"""


from repro.baselines.oracle import check_non_interference
from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.meta.catalog import PermissionCatalog
from repro.workloads.paperdb import build_paper_database

EXPERIMENTAL = DEFAULT_CONFIG.but(require_star_for_selection=False)


def catalog_with_names_view(database):
    catalog = PermissionCatalog(database.schema)
    # Names of employees; SALARY is neither projected nor constrained.
    catalog.define_view("view N (EMPLOYEE.NAME)")
    catalog.permit("N", "eve")
    return catalog


QUERY = "retrieve (EMPLOYEE.NAME) where EMPLOYEE.SALARY > 30,000"


class TestWhatItBuys:
    def test_sound_default_masks(self):
        database = build_paper_database()
        engine = AuthorizationEngine(
            database, catalog_with_names_view(database), DEFAULT_CONFIG
        )
        assert engine.authorize("eve", QUERY).is_fully_masked

    def test_flag_delivers_the_selected_subset(self):
        database = build_paper_database()
        engine = AuthorizationEngine(
            database, catalog_with_names_view(database), EXPERIMENTAL
        )
        answer = engine.authorize("eve", QUERY)
        assert ("Brown",) in answer.delivered  # salary 32k > 30k


class TestWhatItCosts:
    def test_non_interference_violation_is_demonstrable(self):
        """Two instances agreeing on view N (same names) but differing
        in hidden salaries produce different deliveries under the flag
        — the leak the sound default prevents."""
        first = build_paper_database()
        second = build_paper_database()
        second.load("EMPLOYEE", [
            ("Jones", "manager", 26_000),
            ("Smith", "technician", 22_000),
            ("Brown", "engineer", 29_000),   # now below the probe
        ])
        catalog = catalog_with_names_view(first)

        ok_default, _ = check_non_interference(
            catalog, "eve", QUERY, first, second, config=DEFAULT_CONFIG
        )
        assert ok_default

        ok_flag, message = check_non_interference(
            catalog, "eve", QUERY, first, second, config=EXPERIMENTAL
        )
        assert not ok_flag
        assert "VIOLATION" in message
