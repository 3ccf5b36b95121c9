"""E13 — quantifying the method's incompleteness.

Section 4.2 opens with a caveat: "the theorem guarantees that the
method for generating subviews is sound, but it does not guarantee that
it is complete.  That is, this method generates subviews of the result
that should indeed be authorized, but does not necessarily generate all
such subviews."

The paper never measures that gap; with the containment checker we can.
For a user granted exactly one view V, every request Q with a
containment certificate Q ⊆ V *should* (ideally) be delivered in full.
We generate certified requests of four structural kinds and record how
often the algebraic method actually delivers them:

* **defining** — V's own defining query;
* **narrowed** — extra comparisons on projected attributes (handled by
  the four-case refinement);
* **projected-free** — projections of V's target dropping only
  unconstrained attributes (handled by Definition 3);
* **projected-constrained** — projections dropping a *constrained*
  attribute.  The certificate exists, but the mask would have to be
  "expressed with additional attributes" — exactly the Section 6(3)
  future-work case, so the method is expected to fail here.

The experiment asserts full delivery for the first three kinds and
documents the measured failure of the fourth — the paper's known gap,
made quantitative.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.algebra.schema import DatabaseSchema
from repro.algebra.types import INTEGER
from repro.calculus.ast import Condition, ConstTerm, Query, ViewDefinition
from repro.calculus.containment import is_contained_in
from repro.core.answer import AuthorizedAnswer
from repro.core.engine import AuthorizationEngine
from repro.errors import ReproError
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import ascii_table
from repro.meta.catalog import PermissionCatalog
from repro.predicates.comparators import Comparator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.paperdb import build_paper_database

KINDS = ("defining", "narrowed", "projected-free",
         "projected-constrained")


def _probes_for_view(
    view: ViewDefinition, schema: DatabaseSchema,
) -> List[Tuple[str, Query, bool]]:
    """(kind, query, needs_containment_check) probes for ``view``.

    Same-arity probes (defining, narrowed) get their certificate from
    the containment checker.  Projection probes are views of V *by
    construction* — they are literally ``pi(V)`` with V's own
    conditions — so their certificate is syntactic and containment
    (which compares equal-arity tuple sets) does not apply.
    """
    probes: List[Tuple[str, Query, bool]] = [
        ("defining", Query(view.target, view.conditions), True),
    ]

    # Narrow on an integer target attribute.
    int_targets = [
        ref for ref in view.target
        if schema.get(ref.relation).domain_of(ref.attribute) is INTEGER
    ]
    if int_targets:
        ref = int_targets[0]
        probes.append(("narrowed", Query(
            view.target,
            view.conditions + (
                Condition(ref, Comparator.GE, ConstTerm(3)),
            ),
        ), True))

    # Which target attributes are constrained (appear in conditions)?
    constrained = set()
    for condition in view.conditions:
        for ref in condition.attr_refs():
            constrained.add((ref.relation, ref.occurrence, ref.attribute))

    free = [
        ref for ref in view.target
        if (ref.relation, ref.occurrence, ref.attribute) not in constrained
    ]
    bound = [
        ref for ref in view.target
        if (ref.relation, ref.occurrence, ref.attribute) in constrained
    ]

    if free and len(free) < len(view.target):
        probes.append(("projected-free",
                       Query(tuple(free), view.conditions), False))
    if bound and free:
        # Drop one constrained attribute AND the conditions that
        # mention it: the user asks for the plain projection.  pi(V)
        # remains derivable from V by construction, but the mask would
        # need the dropped attribute to express the row restriction —
        # the Section 6(3) case.
        dropped = bound[0]
        kept = tuple(r for r in view.target if r != dropped)
        reduced = tuple(
            c for c in view.conditions
            if all(
                (r.relation, r.occurrence, r.attribute)
                != (dropped.relation, dropped.occurrence,
                    dropped.attribute)
                for r in c.attr_refs()
            )
        )
        if kept:
            probes.append(("projected-constrained",
                           Query(kept, reduced), False))
    return probes


def _ideal_rows_delivered(
    engine: AuthorizationEngine, view: ViewDefinition,
    query: Query, answer: "AuthorizedAnswer",
) -> bool:
    """Does the delivery cover every row of pi_target(V)?"""
    from repro.algebra.optimize import evaluate_optimized
    from repro.calculus.to_algebra import compile_query
    from repro.core.mask import MASKED

    ideal_plan = compile_query(
        Query(query.target, view.conditions), engine.database.schema
    )
    ideal = set(evaluate_optimized(ideal_plan, engine.database).rows)
    visible = {
        row for row in answer.delivered
        if all(value is not MASKED for value in row)
    }
    return ideal <= visible


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E13",
        title="Completeness gap, measured via containment certificates",
        paper_artifact="Section 4.2's soundness-not-completeness caveat",
    )

    database = build_paper_database()
    generator = WorkloadGenerator(31)
    spec = WorkloadSpec(seed=31, relations=3, views=0,
                        comparison_probability=1.0)

    # Views: the paper's four plus generated ones with comparisons.
    from repro.lang.parser import parse_view
    from repro.workloads.paperdb import VIEW_STATEMENTS

    views = [parse_view(text) for text in VIEW_STATEMENTS]
    for i in range(8):
        views.append(generator.view(spec, database.schema, f"G{i}"))

    attempted: Dict[str, int] = {kind: 0 for kind in KINDS}
    certified: Dict[str, int] = {kind: 0 for kind in KINDS}
    delivered: Dict[str, int] = {kind: 0 for kind in KINDS}

    for view in views:
        catalog = PermissionCatalog(database.schema)
        try:
            catalog.define_view(view)
        except ReproError:
            continue
        catalog.permit(view.name, "probe")
        engine = AuthorizationEngine(database, catalog)

        for kind, query, check in _probes_for_view(view, database.schema):
            try:
                has_certificate = (
                    is_contained_in(query, view, database.schema)
                    if check else True  # pi(V) is a view of V syntactically
                )
            except ReproError:
                # e.g. a narrowing that makes the probe statically
                # empty; such probes carry no information here.
                continue
            attempted[kind] += 1
            if not has_certificate:
                continue  # no certificate: outside this experiment
            certified[kind] += 1
            answer = engine.authorize("probe", query)
            if kind == "projected-constrained":
                # Ideal delivery: every row of pi(V) visible in full
                # (rows outside V legitimately mask).
                if _ideal_rows_delivered(engine, view, query, answer):
                    delivered[kind] += 1
            elif answer.is_fully_delivered:
                delivered[kind] += 1

    rows = [
        (kind, attempted[kind], certified[kind], delivered[kind],
         f"{delivered[kind]}/{certified[kind]}"
         if certified[kind] else "n/a")
        for kind in KINDS
    ]
    result.add_section(
        "Certified requests (Q ⊆ granted V) delivered in full",
        ascii_table(
            ("request kind", "attempted", "certified", "fully delivered",
             "completeness"),
            rows,
        ),
    )

    for kind in ("defining", "narrowed", "projected-free"):
        result.add_check(
            f"every certified '{kind}' request is delivered in full",
            certified[kind] > 0 and delivered[kind] == certified[kind],
            detail=f"{delivered[kind]}/{certified[kind]}",
        )
    result.add_check(
        "the Section 6(3) gap is observed: some certified "
        "'projected-constrained' request is NOT fully delivered",
        certified["projected-constrained"] > 0
        and delivered["projected-constrained"]
        < certified["projected-constrained"],
        detail=(
            f"{delivered['projected-constrained']}/"
            f"{certified['projected-constrained']}"
        ),
    )
    return result
