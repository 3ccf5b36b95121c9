"""Differential property tests: streaming product ≡ materialize-then-prune.

``meta_product_streaming`` folds Section 4.1's dangling-reference
pruning and the provenance-aware dedupe into the combination loop.
This suite pins the contract that makes that an *optimization* rather
than a semantics change:

* **row identity** — on generated workloads, with and without padding,
  with and without an excuse predicate, the streamed table equals
  ``prune_dangling(meta_product(...).deduped(provenance), ...)``
  row for row, in order;
* **pipeline identity** — ``derive_mask`` streamed and with
  ``materialize=True`` produces the same mask (and the same selection
  trace);
* **budget dominance** — streaming meters only surviving rows, so any
  row budget the materializing product survives, the streaming one
  survives too (never the other way around).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calculus.to_algebra import compile_query
from repro.errors import BudgetExceededError
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.plan import derive_mask
from repro.metaalgebra.product import meta_product, meta_product_streaming
from repro.metaalgebra.prune import prune_dangling
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "40"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def product_inputs(seed):
    """Generated product operands with their catalog context."""
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=4, users=2,
                        rows_per_relation=4)
    workload = generator.workload(spec)
    schema = workload.database.schema
    plan = compile_query(generator.query(spec, schema), schema)
    catalog = workload.catalog
    user = workload.users[0]
    views = catalog.snapshot(user, plan.relation_names())
    store = views.store()
    defining = views.defining_tuples()
    columns = plan.product_columns(schema)
    arities = [schema.get(o.relation).arity for o in plan.occurrences]
    operands = [
        list(views.tuples_for(o.relation)) for o in plan.occurrences
    ]
    return columns, operands, arities, store, defining, plan, workload, user


def reference(columns, operands, arities, store, defining,
              padding, excuse):
    table = meta_product(columns, operands, arities, store,
                         padding=padding)
    return prune_dangling(table, defining, excuse)


class TestRowIdentity:
    @SLOW
    @given(seeds, st.booleans())
    def test_streaming_equals_materialize_then_prune(self, seed, padding):
        columns, operands, arities, store, defining, *_ = \
            product_inputs(seed)
        want = reference(columns, operands, arities, store, defining,
                         padding, None)
        got = meta_product_streaming(
            columns, operands, arities, store, defining, padding=padding
        )
        assert got.rows == want.rows, f"seed={seed} padding={padding}"

    @SLOW
    @given(seeds, st.integers(min_value=0, max_value=3))
    def test_excused_pruning_agrees(self, seed, salt):
        # A deterministic, meta-dependent excuse: both paths must call
        # it with the same rows and honour the same verdicts.
        columns, operands, arities, store, defining, *_ = \
            product_inputs(seed)

        def excuse(meta, tuple_id):
            return (len(meta.variables()) + len(tuple_id) + salt) % 2 == 0

        want = reference(columns, operands, arities, store, defining,
                         True, excuse)
        got = meta_product_streaming(
            columns, operands, arities, store, defining, excuse=excuse
        )
        assert got.rows == want.rows, f"seed={seed} salt={salt}"


class TestPipelineIdentity:
    @SLOW
    @given(seeds)
    def test_derive_mask_agrees_across_modes(self, seed):
        columns, operands, arities, store, defining, plan, workload, \
            user = product_inputs(seed)
        schema = workload.database.schema
        views = workload.catalog.snapshot(user, plan.relation_names())
        streaming = derive_mask(plan, schema, views)
        materializing = derive_mask(plan, schema, views, materialize=True)
        assert streaming.mask.rows == materializing.mask.rows, \
            f"seed={seed}"
        assert [t.rows for _, t in streaming.after_selections] \
            == [t.rows for _, t in materializing.after_selections]
        assert streaming.streamed and not materializing.streamed


class TestBudgetDominance:
    @SLOW
    @given(seeds, st.integers(min_value=1, max_value=6))
    def test_streaming_never_admits_more_rows(self, seed, cap):
        columns, operands, arities, store, defining, *_ = \
            product_inputs(seed)

        def run(fn, **kwargs):
            try:
                return fn(columns, operands, arities, store,
                          budget=Budget(max_rows=cap), **kwargs), None
            except BudgetExceededError as error:
                return None, error

        materialized, mat_error = run(meta_product)
        streamed, stream_error = run(
            lambda c, o, a, s, budget: meta_product_streaming(
                c, o, a, s, defining, budget=budget
            )
        )
        if mat_error is None:
            # The streaming product meters a subset of what the
            # materializing one does: it must fit wherever that fits.
            assert stream_error is None, f"seed={seed} cap={cap}"
        if streamed is not None and materialized is not None:
            pruned = prune_dangling(materialized, defining, None)
            assert len(streamed) == len(pruned) <= len(materialized)
