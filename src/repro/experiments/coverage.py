"""E10 — coverage comparison: Motro vs INGRES vs System R.

The quantitative harness Section 6 promises.  On seeded workloads, all
three models receive *the same* permissions, translated to what each
can express:

* Motro: the views as granted.
* INGRES: only the single-relation views (its structural limit); for
  those it receives the identical attribute set and qualification.
* System R: READ on a base relation only when some granted view covers
  the whole relation unconditionally (its all-or-nothing limit for
  queries addressed at base relations).

Every query is a base-relation query (the paper's usage model: "users
direct queries at the actual database").  The expected shape: Motro
delivers at least as many cells as INGRES, which delivers at least as
many as System R; Motro's surplus is exactly the partial-delivery
capability the paper contributes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.ingres import IngresModel
from repro.baselines.motro import MotroModel
from repro.baselines.system_r import SystemRModel
from repro.calculus.ast import Query
from repro.core.engine import AuthorizationEngine
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import ascii_table
from repro.workloads.generator import (
    Workload,
    WorkloadGenerator,
    WorkloadSpec,
)

SEEDS = (3, 17, 59)
PROBES_PER_VIEW = 2


def translate_to_ingres(workload: Workload,
                        model: IngresModel) -> int:
    """Grant each user's single-relation views to the INGRES model.

    Returns how many views were expressible.
    """
    expressible = 0
    for user in workload.users:
        for view_name in workload.catalog.views_of(user):
            view = workload.catalog.view(view_name).definition
            relations = {ref.relation for ref in view.attr_refs()}
            occurrences = {
                ref.occurrence_key() for ref in view.attr_refs()
            }
            if len(relations) != 1 or len(occurrences) != 1:
                continue  # not expressible in INGRES
            relation = next(iter(relations))
            attributes = sorted({
                ref.attribute for ref in view.attr_refs()
            })
            model.permit(user, relation, attributes, view.conditions)
            expressible += 1
    return expressible


def translate_to_system_r(workload: Workload,
                          model: SystemRModel) -> int:
    """Grant READ on relations fully covered by an unconditional view."""
    granted = 0
    for user in workload.users:
        for view_name in workload.catalog.views_of(user):
            view = workload.catalog.view(view_name).definition
            relations = {ref.relation for ref in view.attr_refs()}
            if len(relations) != 1 or view.conditions:
                continue
            relation = next(iter(relations))
            schema = workload.database.schema.get(relation)
            covered = {ref.attribute for ref in view.target}
            if covered >= set(schema.attribute_names):
                model.grant("_dba", user, relation)
                granted += 1
    return granted


def _probe_queries(workload: Workload,
                   generator: WorkloadGenerator,
                   spec: WorkloadSpec) -> List[Query]:
    queries: List[Query] = []
    for view in workload.views:
        queries.append(Query(view.target, view.conditions))
        # Wider request over the same relations (column reduction).
        first = view.target[0]
        schema = workload.database.schema.get(first.relation)
        full = tuple(
            type(first)(first.relation, name, first.occurrence)
            for name in schema.attribute_names
        )
        queries.append(Query(full, view.conditions))
    for _ in range(PROBES_PER_VIEW * len(workload.views)):
        queries.append(generator.query(spec, workload.database.schema))
    return queries


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E10",
        title="Coverage: delivered cells under equal permissions",
        paper_artifact="Section 6's promised experimentation harness",
    )

    rows = []
    totals: Dict[str, int] = {"Motro": 0, "INGRES": 0, "System R": 0}
    denials: Dict[str, int] = {"Motro": 0, "INGRES": 0, "System R": 0}
    query_count = 0

    for seed in SEEDS:
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, views=4, users=2)
        workload = generator.workload(spec)

        motro = MotroModel(
            AuthorizationEngine(workload.database, workload.catalog)
        )
        ingres = IngresModel(workload.database)
        system_r = SystemRModel(workload.database)
        translate_to_ingres(workload, ingres)
        translate_to_system_r(workload, system_r)

        queries = _probe_queries(workload, generator, spec)
        per_seed = {"Motro": 0, "INGRES": 0, "System R": 0}
        for query in queries:
            for user in workload.users:
                query_count += 1
                for name, model in (
                    ("Motro", motro), ("INGRES", ingres),
                    ("System R", system_r),
                ):
                    decision = model.authorize_query(user, query)
                    per_seed[name] += decision.delivered_cells
                    if decision.delivered_cells == 0:
                        denials[name] += 1
        for name in totals:
            totals[name] += per_seed[name]
        rows.append((
            seed, per_seed["Motro"], per_seed["INGRES"],
            per_seed["System R"],
        ))

    rows.append(("TOTAL", totals["Motro"], totals["INGRES"],
                 totals["System R"]))
    result.add_section(
        "Delivered cells per seed (same permissions, same queries)",
        ascii_table(("seed", "Motro", "INGRES", "System R"), rows),
    )
    result.add_section(
        "Requests delivering nothing",
        ascii_table(
            ("model", "empty deliveries", "requests"),
            [(name, denials[name], query_count) for name in totals],
        ),
    )

    result.add_check(
        "Motro delivers at least as much as INGRES",
        totals["Motro"] >= totals["INGRES"],
        detail=str(totals),
    )
    result.add_check(
        "INGRES delivers at least as much as System R",
        totals["INGRES"] >= totals["System R"],
        detail=str(totals),
    )
    result.add_check(
        "Motro's advantage is strict (the partial-delivery capability)",
        totals["Motro"] > totals["System R"],
        detail=str(totals),
    )
    result.add_check(
        "Motro denies outright no more often than the baselines",
        denials["Motro"] <= min(denials["INGRES"], denials["System R"]),
        detail=str(denials),
    )
    return result
