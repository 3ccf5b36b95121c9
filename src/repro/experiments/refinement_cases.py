"""E6 — the Section 4.2 selection case analysis.

"Assume a meta-tuple that defines the projects whose budgets are
between $300,000 and $600,000, and consider the following four queries
that select the projects whose budgets are (1) between $200,000 and
$400,000, (2) between $200,000 and $700,000, (3) between $400,000 and
$500,000, and (4) under $300,000."

Expected outcomes, per the paper: (1) modify the view to budgets
between $300,000 and $400,000; (2) retain unmodified; (3) clear the
budget restriction; (4) discard.

The experiment checks the classifier directly *and* end to end through
the engine: a user granted the 300k-600k view issues each probe query,
and the resulting mask (and its inferred permit statement) must reflect
the case.  The meta-selection decides every one-column selection with
the same ``classify``, so the classifier check tests the engine's own
decision.
"""

from __future__ import annotations

from typing import Tuple

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.core.engine import AuthorizationEngine
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import ascii_table
from repro.meta.catalog import PermissionCatalog
from repro.predicates.implication import SelectionCase, classify
from repro.predicates.intervals import Interval

#: (label, lower bound or None, upper bound or None, expected case,
#:  expected budget clauses in the inferred permit statement)
PROBES: Tuple[Tuple[str, int, int, SelectionCase, Tuple[str, ...]], ...] = (
    ("between 200,000 and 400,000", 200_000, 400_000,
     SelectionCase.CONJOIN,
     ("BUDGET >= 300,000", "BUDGET <= 400,000")),
    ("between 200,000 and 700,000", 200_000, 700_000,
     SelectionCase.RETAIN,
     ("BUDGET >= 300,000", "BUDGET <= 600,000")),
    ("between 400,000 and 500,000", 400_000, 500_000,
     SelectionCase.CLEAR, ()),
    ("under 300,000", None, 299_999, SelectionCase.DISCARD, ()),
)


def _engine() -> AuthorizationEngine:
    project = make_schema(
        "PROJECT",
        [("NUMBER", STRING), ("SPONSOR", STRING), ("BUDGET", INTEGER)],
        key=["NUMBER"],
    )
    database = build_database([project], {
        "PROJECT": [
            ("p-lo", "A", 250_000),
            ("p-in1", "B", 350_000),
            ("p-in2", "C", 450_000),
            ("p-hi", "D", 650_000),
        ],
    })
    catalog = PermissionCatalog(database.schema)
    catalog.define_view(
        "view MID (PROJECT.NUMBER, PROJECT.BUDGET) "
        "where PROJECT.BUDGET >= 300,000 and PROJECT.BUDGET <= 600,000"
    )
    catalog.permit("MID", "analyst")
    return AuthorizationEngine(database, catalog)


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E6",
        title="Four-case selection refinement",
        paper_artifact="Section 4.2, selection case analysis",
    )
    mu = Interval(lo=300_000, hi=600_000, discrete=True)
    engine = _engine()

    rows = []
    for label, lo, hi, expected_case, expected_clauses in PROBES:
        lam = Interval(lo=lo, hi=hi, discrete=True)
        case = classify(mu, lam)
        result.check_equal(
            f"classifier: budgets {label} -> {expected_case}",
            case, expected_case,
        )

        conditions = []
        if lo is not None:
            conditions.append(f"PROJECT.BUDGET >= {lo:,}")
        if hi is not None:
            conditions.append(f"PROJECT.BUDGET <= {hi:,}")
        query = (
            "retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where "
            + " and ".join(conditions)
        )
        answer = engine.authorize("analyst", query)

        if expected_case is SelectionCase.DISCARD:
            result.add_check(
                f"end-to-end: {label} delivers nothing",
                answer.mask.is_empty,
            )
            description = "(discarded)"
        else:
            budget_clauses = tuple(
                clause
                for permit in answer.permits
                for clause in permit.clauses
                if "BUDGET" in clause
            )
            result.check_equal(
                f"end-to-end: {label} describes the view as expected",
                budget_clauses, expected_clauses,
            )
            description = " and ".join(expected_clauses) or "(unrestricted)"
        rows.append((label, str(case), description))

    result.add_section(
        "Stored view: budgets between 300,000 and 600,000",
        ascii_table(
            ("query selects budgets", "case", "resulting view restriction"),
            rows,
        ),
    )
    return result
