"""E9 + E11 — refinement ablations.

E9 reproduces Section 4.2's product-padding example: "assume that Q is
a product of R and S, followed by a projection that removes all the
attributes of S.  Obviously, Q is equivalent to R, and A' should retain
all the meta-tuples of R'.  However, these meta-tuples may be discarded
by the projection" — without padding, nothing is delivered; with it,
the subviews of R' survive.

E11 measures each refinement's contribution on the paper database and
on seeded random workloads: delivered cells under the full
configuration versus each refinement toggled off, versus the bare
Definitions 1-3 model.  Refinements only ever *add* delivered cells
(they are completeness devices; soundness is E2's department).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.calculus.ast import Query
from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG, EngineConfig
from repro.core.engine import AuthorizationEngine
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import ascii_table
from repro.meta.catalog import PermissionCatalog
from repro.workloads.generator import (
    Workload,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_engine,
)

CONFIGS: Tuple[Tuple[str, EngineConfig], ...] = (
    ("full model", DEFAULT_CONFIG),
    ("no product padding (R1 off)", DEFAULT_CONFIG.but(product_padding=False)),
    ("no four-case selection (R2 off)",
     DEFAULT_CONFIG.but(refine_selection=False)),
    ("no self-joins (R3 off)", DEFAULT_CONFIG.but(self_joins=False)),
    ("base Definitions 1-3 only", BASE_MODEL_CONFIG),
)


def _padding_example(result: ExperimentResult) -> None:
    """E9: Q = product of R and S, projected (essentially) back onto R.

    The paper's scenario requires the S-side meta-tuples to "contain
    restrictions in the attributes contributed by S'", so the S view
    carries a comparison on S.SV; the projection that removes S.SV then
    discards every combined row — unless padding preserved the pure
    R' subviews.
    """
    r = make_schema("R", [("RK", STRING), ("RV", INTEGER)], key=["RK"])
    s = make_schema("S", [("SK", STRING), ("SV", INTEGER)], key=["SK"])
    database = build_database([r, s], {
        "R": [("a", 1), ("b", 2)],
        "S": [("x", 10)],
    })
    catalog = PermissionCatalog(database.schema)
    catalog.define_view("view ALL_R (R.RK, R.RV)")
    catalog.define_view("view SOME_S (S.SK, S.SV) where S.SV >= 5")
    catalog.permit("ALL_R", "user")
    catalog.permit("SOME_S", "user")

    # Q is a product of R and S whose projection removes S.SV (the
    # restricted attribute).  R's columns are exactly what ALL_R grants.
    query = "retrieve (R.RK, R.RV, S.SK)"

    rows = []
    r_cells: Dict[str, int] = {}
    for label, padding in (("with padding", True),
                           ("without padding", False)):
        engine = AuthorizationEngine(
            database, catalog, DEFAULT_CONFIG.but(product_padding=padding)
        )
        answer = engine.authorize("user", query)
        from repro.core.mask import MASKED

        delivered_r = sum(
            1 for row in answer.delivered
            for value in row[:2] if value is not MASKED
        )
        rows.append((label, delivered_r,
                     answer.stats().delivered_cells,
                     answer.stats().total_cells))
        r_cells[label] = delivered_r

    result.add_section(
        "E9 — Q = R x S with the restricted S attribute projected away",
        ascii_table(
            ("configuration", "delivered R cells", "delivered cells",
             "total cells"),
            rows,
        ),
    )
    result.add_check(
        "without padding the projection discards every subview of R'",
        r_cells["without padding"] == 0,
        detail=f"delivered {r_cells['without padding']}",
    )
    result.add_check(
        "with padding the subviews of R' survive and R is delivered",
        r_cells["with padding"] > 0,
        detail=f"delivered {r_cells['with padding']}",
    )


def _probe_queries(workload: Workload) -> List["Query"]:
    """Queries derived from the workload's views.

    Random independent queries rarely touch the regions where the
    refinements matter; probes derived from the granted views do:
    the view itself (full-delivery check), a narrowed version (the
    four-case analysis), a column-extended version (column reduction
    via padding/clearing), and a projected version (Definition 3).
    """
    from repro.algebra.types import INTEGER
    from repro.calculus.ast import Condition, ConstTerm, Query
    from repro.predicates.comparators import Comparator

    schema = workload.database.schema
    queries: List[Query] = []
    for view in workload.views:
        queries.append(Query(view.target, view.conditions))

        # Narrow: tighten with a comparison on an integer target attr.
        int_targets = [
            ref for ref in view.target
            if schema.get(ref.relation).domain_of(ref.attribute) is INTEGER
        ]
        if int_targets:
            ref = int_targets[0]
            queries.append(Query(
                view.target,
                view.conditions + (
                    Condition(ref, Comparator.GE, ConstTerm(5)),
                    Condition(ref, Comparator.LE, ConstTerm(15)),
                ),
            ))

        # Extend: request every attribute of the first relation.
        first = view.target[0]
        rel_schema = schema.get(first.relation)
        extra = tuple(
            type(first)(first.relation, name, first.occurrence)
            for name in rel_schema.attribute_names
            if not any(
                t.relation == first.relation
                and t.occurrence == first.occurrence
                and t.attribute == name
                for t in view.target
            )
        )
        if extra:
            queries.append(Query(view.target + extra, view.conditions))

        # Project: the first target column only.
        queries.append(Query((view.target[0],), view.conditions))
    return queries


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E9+E11",
        title="Refinement ablations",
        paper_artifact="Section 4.2 (refinements)",
    )

    _padding_example(result)

    # -- paper-database ablation ---------------------------------------
    paper_queries = (
        ("Brown", EXAMPLE_1_QUERY),
        ("Klein", EXAMPLE_2_QUERY),
        ("Brown", EXAMPLE_3_QUERY),
    )
    rows = []
    full_cells = None
    per_config: Dict[str, int] = {}
    for label, config in CONFIGS:
        engine = build_paper_engine(config)
        delivered = sum(
            engine.authorize(user, query).stats().delivered_cells
            for user, query in paper_queries
        )
        per_config[label] = delivered
        if label == "full model":
            full_cells = delivered
        rows.append((label, delivered))
    result.add_section(
        "E11a — delivered cells over the three Section 5 examples",
        ascii_table(("configuration", "delivered cells"), rows),
    )
    assert full_cells is not None
    for label, delivered in per_config.items():
        result.add_check(
            f"'{label}' never delivers more than the full model",
            delivered <= full_cells,
            detail=f"{delivered} vs full {full_cells}",
        )
    # R1 (padding) does not influence the three worked examples — its
    # contribution is E9's scenario above; R2 and R3 must each matter.
    result.add_check(
        "disabling four-case selection (R2) strictly reduces delivery "
        "on the paper's examples",
        per_config["no four-case selection (R2 off)"] < full_cells,
        detail=str(per_config),
    )
    result.add_check(
        "disabling self-joins (R3) strictly reduces delivery on the "
        "paper's examples",
        per_config["no self-joins (R3 off)"] < full_cells,
        detail=str(per_config),
    )

    # -- random-workload ablation ---------------------------------------
    generator = WorkloadGenerator(101)
    spec = WorkloadSpec(seed=101, views=5, users=2,
                        comparison_probability=0.9)
    workload = generator.workload(spec)
    queries = _probe_queries(workload)
    rows = []
    random_cells: Dict[str, int] = {}
    for label, config in CONFIGS:
        engine = AuthorizationEngine(
            workload.database, workload.catalog, config
        )
        delivered = 0
        for query in queries:
            for user in workload.users:
                delivered += engine.authorize(user, query) \
                    .stats().delivered_cells
        random_cells[label] = delivered
        rows.append((label, delivered))
    result.add_section(
        f"E11b — delivered cells over {len(queries)} view-derived probe "
        "queries x 2 users (seed 101)",
        ascii_table(("configuration", "delivered cells"), rows),
    )
    for label, delivered in random_cells.items():
        result.add_check(
            f"random workload: '{label}' <= full model",
            delivered <= random_cells["full model"],
            detail=f"{delivered} vs {random_cells['full model']}",
        )
    result.add_check(
        "the probe workload separates the configurations "
        "(some ablation delivers strictly less)",
        any(
            delivered < random_cells["full model"]
            for label, delivered in random_cells.items()
            if label != "full model"
        ),
        detail=str(random_cells),
    )
    return result
