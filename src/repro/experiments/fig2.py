"""E2 — Figure 2: the commutative diagram, validated empirically.

Figure 2 claims query processing extended to the meta-relations
commutes: deriving A' through the meta-operators describes exactly the
permitted views of the answer A.  Two executable readings:

1. **Propositions 1-3** (the diagram's edges): for seeded random
   meta-tuples, the meta-product/-selection/-projection of Definitions
   1-3 materialize to the product/selection/projection of the operand
   materializations.
2. **Non-interference** (the diagram's global consequence): on seeded
   random workloads, instances agreeing on a user's permitted views
   yield identical deliveries — the user learns nothing beyond the
   views.  This is the Theorem's semantic content, checked end to end
   with all refinements enabled.
"""

from __future__ import annotations

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.baselines.oracle import check_non_interference
from repro.config import BASE_MODEL_CONFIG
from repro.core.mask import materialize_meta_tuple
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import ascii_table
from repro.metaalgebra.projection import meta_project
from repro.metaalgebra.selection import meta_select
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.comparators import Comparator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: Workload seeds for the non-interference sweep.
SEEDS = (7, 11, 23)
QUERIES_PER_SEED = 12
MUTATIONS_PER_QUERY = 3


def _proposition_checks(result: ExperimentResult) -> None:
    """Propositions 1-3 on the paper database's own meta-tuples."""
    from repro.workloads.paperdb import (
        build_paper_catalog,
        build_paper_database,
    )

    database = build_paper_database()
    catalog = build_paper_catalog(database)

    employee = database.instance("EMPLOYEE")
    project = database.instance("PROJECT")

    checked = failures = 0
    for view_name in catalog.view_names():
        encoded = catalog.view(view_name)
        store = encoded.store
        for (rel_a, meta_a), (rel_b, meta_b) in zip(
            encoded.tuples, encoded.tuples[1:]
        ):
            # Proposition 1: q(D) = r(D) x s(D) — for meta-tuples whose
            # variables are private to each operand (shared variables
            # make q a *selection* of the product, which is Prop. 2's
            # territory).
            if set(meta_a.variables()) & set(meta_b.variables()):
                continue
            left = database.instance(rel_a)
            right = database.instance(rel_b)
            q = meta_a.concat(meta_b)
            combined = materialize_meta_tuple(q, store, left.product(right))
            separate = materialize_meta_tuple(meta_a, store, left).product(
                materialize_meta_tuple(meta_b, store, right)
            )
            checked += 1
            if not combined.same_rows(separate):
                failures += 1

    # Proposition 2 on concrete selections (base Definition 2, which the
    # proposition is stated for).
    psa_view = catalog.view("PSA")
    (_, psa), store = psa_view.tuples[0], psa_view.store
    table = MaskTable(
        tuple(project.columns), (MaskRow(psa, store),)
    )
    for op, bound in ((Comparator.GE, 250_000), (Comparator.LT, 400_000)):
        condition = AtomicCondition(Col(2), op, Const(bound))
        selected = meta_select(table, condition, BASE_MODEL_CONFIG)
        meta_side = (
            materialize_meta_tuple(
                selected.rows[0].meta, selected.rows[0].store, project
            )
            if selected.rows else project.select(lambda r: False).project(
                psa.starred_positions()
            )
        )
        data_side = materialize_meta_tuple(psa, store, project).select(
            lambda row: op.evaluate(row[2], bound)
        )
        checked += 1
        if not meta_side.same_rows(data_side):
            failures += 1

    # Proposition 3: projecting away a blank attribute commutes.
    sae_view = catalog.view("SAE")
    (_, sae), sae_store = sae_view.tuples[0], sae_view.store
    table = MaskTable(
        tuple(employee.columns), (MaskRow(sae, sae_store),),
    )
    projected = meta_project(table, (0, 2))
    meta_side = materialize_meta_tuple(
        projected.rows[0].meta, projected.rows[0].store,
        employee.project((0, 2)),
    )
    data_side = materialize_meta_tuple(sae, sae_store, employee)
    checked += 1
    if not meta_side.same_rows(data_side):
        failures += 1

    result.add_check(
        f"Propositions 1-3 hold on {checked} operator instances",
        failures == 0,
        detail=f"{failures} failures",
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E2",
        title="The commutative diagram, empirically",
        paper_artifact="Figure 2 / Propositions 1-3 / Theorem",
    )

    _proposition_checks(result)

    rows = []
    total_applicable = total_violations = 0
    for seed in SEEDS:
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed)
        workload = generator.workload(spec)
        applicable = violations = vacuous = 0
        for _ in range(QUERIES_PER_SEED):
            query = generator.query(spec, workload.database.schema)
            for _ in range(MUTATIONS_PER_QUERY):
                mutated = generator.mutate(spec, workload.database)
                for user in workload.users:
                    ok, message = check_non_interference(
                        workload.catalog, user, query,
                        workload.database, mutated,
                    )
                    if "vacuous" in message:
                        vacuous += 1
                        continue
                    applicable += 1
                    if not ok:
                        violations += 1
        rows.append((seed, applicable, vacuous, violations))
        total_applicable += applicable
        total_violations += violations

    result.add_section(
        "Non-interference sweep (mutations invisible to the user's "
        "views must not change deliveries)",
        ascii_table(
            ("seed", "applicable checks", "vacuous", "violations"), rows
        ),
    )
    result.add_check(
        f"no non-interference violations in {total_applicable} "
        "applicable checks",
        total_violations == 0 and total_applicable > 0,
        detail=f"{total_violations} violations",
    )
    return result
