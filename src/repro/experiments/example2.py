"""E4 — Example 2: Klein retrieves names and salaries of engineers on
very large projects.

Reproduces the pruned meta-relations, the three-way meta-product table
("the result of the product after replications are removed"), the
post-selection row with cleared variables, the final mask
``(NAME*, SALARY blank)``, the masked salaries, and ``permit (NAME)``.

The paper's printed product table predates the self-join refinement
(introduced only in Example 3), so the displayed trace is derived with
self-joins disabled; a check asserts the final mask is identical with
them enabled.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG
from repro.core.mask import MASKED
from repro.experiments.result import ExperimentResult
from repro.experiments.tables import (
    mask_table,
    meta_tuple_cells,
    pruned_meta_table,
)
from repro.workloads.paperdb import EXAMPLE_2_QUERY, build_paper_engine

#: The paper's product table (rows reachable without self-joins and
#: with padding), in our canonical rendering.  Variable names follow
#: Figure 1's catalog numbering.
EXPECTED_PRODUCT_ROWS = {
    ("x1*", "*", ".", "x1*", "x2*", "x2*", ".", "x3*"),
    ("x1*", "*", ".", "x1*", "x2*", ".", ".", "."),
    ("x1*", "*", ".", ".", ".", "x2*", ".", "x3*"),
    ("x1*", "*", ".", ".", ".", ".", ".", "."),
    ("*", "x4*", ".", "x1*", "x2*", "x2*", ".", "x3*"),
    ("*", "x4*", ".", "x1*", "x2*", ".", ".", "."),
    ("*", "x4*", ".", ".", ".", "x2*", ".", "x3*"),
    ("*", "x4*", ".", ".", ".", ".", ".", "."),
    (".", ".", ".", "x1*", "x2*", "x2*", ".", "x3*"),
    (".", ".", ".", "x1*", "x2*", ".", ".", "."),
    (".", ".", ".", ".", ".", "x2*", ".", "x3*"),
}


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E4",
        title="Example 2 — Klein: engineers of very large projects",
        paper_artifact="Section 5, Example 2",
    )
    # The paper's product table includes rows the dangling-reference
    # pruning later removes, and the streaming product never
    # materializes those: the tables come from the materializing trace.
    display_engine = build_paper_engine(
        DEFAULT_CONFIG.but(self_joins=False)
    )
    answer = display_engine.authorize("Klein", EXAMPLE_2_QUERY)
    derivation = display_engine.trace("Klein", EXAMPLE_2_QUERY)

    result.add_section("Query", EXAMPLE_2_QUERY)
    for relation, labels in (
        ("EMPLOYEE", ("NAME", "TITLE", "SALARY")),
        ("PROJECT", ("NUMBER", "SPONSOR", "BUDGET")),
        ("ASSIGNMENT", ("E_NAME", "P_NO")),
    ):
        result.add_section(
            f"Pruned {relation}' (Klein's admissible views)",
            pruned_meta_table(relation, labels,
                              derivation.pruned_meta[relation]),
        )
    result.add_section(
        "Meta-product after replications are removed",
        mask_table(derivation.raw_product, show_views=True),
    )
    final_condition, final_table = derivation.after_selections[-1]
    result.add_section(
        "A' after the selections (variables cleared)",
        mask_table(final_table, show_views=True),
    )
    assert derivation.mask is not None
    result.add_section("A' after the projection (the mask)",
                       mask_table(derivation.mask))
    result.add_section("Delivered answer", answer.render())

    # -- checks ----------------------------------------------------------
    result.check_equal(
        "stage-one pruning keeps ELP and EST",
        tuple(sorted(derivation.admissible_views)), ("ELP", "EST"),
    )
    actual_product = {
        meta_tuple_cells(r.meta) for r in derivation.raw_product.rows
    }
    result.check_equal(
        "the meta-product matches the paper's table",
        actual_product, EXPECTED_PRODUCT_ROWS,
    )
    # The paper prints the cleared row as (*, *, blank...); we preserve
    # the star on cleared fields (a starred blank), which Definition 3
    # treats identically under projection and which additionally lets a
    # query that outputs both join columns receive both.  See DESIGN.md
    # "Known deviations".
    result.check_equal(
        "only the full ELP row survives the selections, cleared "
        "(stars preserved on cleared fields)",
        tuple(meta_tuple_cells(r.meta) for r in final_table.rows),
        (("*", "*", ".", "*", "*", "*", ".", "*"),),
    )
    result.check_equal(
        "the final mask permits NAME only",
        tuple(meta_tuple_cells(r.meta) for r in derivation.mask.rows),
        (("*", "."),),
    )
    result.check_equal(
        "inferred statement matches the paper",
        tuple(str(p) for p in answer.permits),
        ("permit (NAME)",),
    )
    result.check_equal(
        "Brown's name is delivered, his salary masked",
        set(answer.delivered), {("Brown", MASKED)},
    )

    # The printed trace disabled self-joins for fidelity with the
    # paper's table; the mask must not depend on that choice.
    full_engine = build_paper_engine()
    full_answer = full_engine.authorize("Klein", EXAMPLE_2_QUERY)
    result.check_equal(
        "enabling self-joins leaves the mask unchanged",
        tuple(meta_tuple_cells(r.meta)
              for r in full_answer.derivation.mask.rows),
        tuple(meta_tuple_cells(r.meta) for r in derivation.mask.rows),
    )
    return result
