"""The ladder's soundness: every rung delivers a subset of the rung above.

This is the acceptance property of the resilience layer, checked on
every bundled scenario: for each user and query, the visible cells at
ladder rung N+1 are a subset of the visible cells at rung N (rungs only
ever disable refinements, and by ablation dominance refinements only
ever widen the mask).  A second block checks the *dynamic* path: an
engine forced down the ladder by a budget delivers a subset of the
unbudgeted engine, whichever rung it lands on.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.metaalgebra.ladder import (
    DEGRADATION_LEVELS,
    EMPTY_LEVEL,
    rung_config,
)
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_catalog,
    build_paper_database,
)
from repro.workloads.scenarios import corporate_scenario, hospital_scenario

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "10"))

SHED = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def paper_case():
    database = build_paper_database()
    catalog = build_paper_catalog(database)
    queries = (EXAMPLE_1_QUERY, EXAMPLE_2_QUERY, EXAMPLE_3_QUERY)
    return database, catalog, ("Brown", "Klein"), queries


def hospital_case():
    scenario = hospital_scenario()
    queries = (
        "retrieve (PATIENT.NAME, PATIENT.WARD)",
        "retrieve (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST) "
        "where TREATMENT.COST >= 1000",
        """retrieve (PATIENT.NAME, TREATMENT.DRUG, TREATMENT.COST)
           where PATIENT.PID = TREATMENT.PID""",
        "retrieve (PATIENT.PID, PATIENT.DIAGNOSIS)",
    )
    return (scenario.engine.database, scenario.engine.catalog,
            scenario.users, queries)


def corporate_case():
    scenario = corporate_scenario()
    queries = (
        "retrieve (EMP.ENAME, EMP.DEPT)",
        "retrieve (EMP.ENAME, EMP.SALARY) where EMP.DEPT = eng",
        """retrieve (EMP.ENAME, DEPT.BUDGET)
           where EMP.DEPT = DEPT.DNAME""",
    )
    return (scenario.engine.database, scenario.engine.catalog,
            scenario.users, queries)


CASES = {
    "paper": paper_case,
    "hospital": hospital_case,
    "corporate": corporate_case,
}


def visible_cells(answer):
    return {
        (i, j, cell)
        for i, row in enumerate(answer.delivered)
        for j, cell in enumerate(row)
        if cell is not MASKED
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_rung_delivers_a_subset_of_the_rung_above(name):
    database, catalog, users, queries = CASES[name]()
    engines = [
        AuthorizationEngine(database, catalog,
                            rung_config(DEFAULT_CONFIG, level))
        for level in range(EMPTY_LEVEL)
    ]
    for user in users:
        for query in queries:
            answers = [engine.authorize(user, query)
                       for engine in engines]
            for level in range(1, EMPTY_LEVEL):
                below = visible_cells(answers[level])
                above = visible_cells(answers[level - 1])
                assert below <= above, (
                    f"{name}: rung {DEGRADATION_LEVELS[level]} delivered"
                    f" cells rung {DEGRADATION_LEVELS[level - 1]} did"
                    f" not, for {user}: {query}"
                )


@pytest.mark.parametrize("name", sorted(CASES))
def test_rungs_preserve_answer_shape(name):
    """Degradation shrinks the mask, never the raw answer relation."""
    database, catalog, users, queries = CASES[name]()
    for level in range(EMPTY_LEVEL):
        engine = AuthorizationEngine(database, catalog,
                                     rung_config(DEFAULT_CONFIG, level))
        for user in users:
            for query in queries:
                answer = engine.authorize(user, query)
                assert len(answer.delivered) == answer.answer.cardinality


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("cap", [1, 2, 4, 8])
def test_budgeted_engine_delivers_a_subset(name, cap):
    """Wherever the ladder lands, delivery stays inside the baseline."""
    database, catalog, users, queries = CASES[name]()
    baseline = AuthorizationEngine(database, catalog, DEFAULT_CONFIG)
    budgeted = AuthorizationEngine(
        database, catalog, DEFAULT_CONFIG.but(max_mask_rows=cap)
    )
    for user in users:
        for query in queries:
            full = baseline.authorize(user, query)
            capped = budgeted.authorize(user, query)
            assert visible_cells(capped) <= visible_cells(full), (
                f"{name} cap={cap} {user}: {query} delivered beyond"
                f" the unbudgeted baseline at rung {capped.degradation}"
            )
            if capped.degradation_level == 0:
                assert visible_cells(capped) == visible_cells(full)


@pytest.mark.slow
class TestAdmissionShedding:
    """The serving layer's shed path (``authorize_degraded``) obeys
    the ladder: whatever floor admission control imposes, the shed
    answer's visible cells are a subset of the unshed answer's — on
    random workloads, not just the bundled scenarios."""

    @SHED
    @given(st.integers(min_value=0, max_value=2_000))
    def test_shed_answers_stay_inside_the_unshed_mask(self, seed):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                            rows_per_relation=6)
        workload = generator.workload(spec)
        queries = [
            generator.query(spec, workload.database.schema)
            for _ in range(3)
        ]
        unshed = AuthorizationEngine(workload.database,
                                     workload.catalog)
        # Cache off so every floor genuinely re-derives at its rung
        # (a live cached hit would trivially serve the full mask).
        shed_engine = AuthorizationEngine(
            workload.database, workload.catalog,
            DEFAULT_CONFIG.but(derivation_cache_size=0),
        )
        for user in workload.users:
            for query in queries:
                full = visible_cells(unshed.authorize(user, query))
                previous = full
                for floor in range(1, EMPTY_LEVEL + 1):
                    shed = shed_engine.authorize_degraded(
                        user, query, floor,
                        reason="admission shed (property test)",
                    )
                    assert shed.degradation_level >= floor
                    cells = visible_cells(shed)
                    assert cells <= full, (
                        f"seed={seed} floor={floor} {user}: shed "
                        f"answer delivered outside the unshed mask"
                    )
                    assert cells <= previous, (
                        f"seed={seed} floor={floor} {user}: deeper "
                        f"shed delivered more than shallower shed"
                    )
                    previous = cells
                assert previous == set(), (
                    f"seed={seed} {user}: the EMPTY floor delivered"
                )


@pytest.mark.parametrize("name", sorted(CASES))
def test_empty_rung_delivers_nothing(name):
    # Reached two ways: a budget that every rung exhausts, and a shed
    # to the EMPTY floor (which every case reaches).
    database, catalog, users, queries = CASES[name]()
    engine = AuthorizationEngine(
        database, catalog,
        DEFAULT_CONFIG.but(max_mask_rows=1),
    )
    for user in users:
        for query in queries:
            answers = (engine.authorize(user, query),
                       engine.authorize_degraded(user, query, EMPTY_LEVEL))
            for answer in answers:
                if answer.degradation_level == EMPTY_LEVEL:
                    assert visible_cells(answer) == set()
                    assert answer.permits == ()
            assert answers[1].degradation_level == EMPTY_LEVEL
