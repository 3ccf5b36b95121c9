# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Stress property tests on wider workloads (3-relation views).

The default property workloads use views over at most two relations;
these push the generator to three-relation views and bigger schemas,
exercising the n-ary padded product, deeper dangling pruning, and
longer join chains — under the same soundness and agreement oracles.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate_naive
from repro.algebra.optimize import evaluate_optimized
from repro.baselines.oracle import check_non_interference
from repro.calculus.to_algebra import compile_query
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def wide_workload(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(
        seed=seed, relations=4, views=4, users=2,
        rows_per_relation=6, max_view_relations=3,
        comparison_probability=0.8,
    )
    return generator, spec, generator.workload(spec)


@SLOW
@given(seeds)
def test_non_interference_on_wide_views(seed):
    generator, spec, workload = wide_workload(seed)
    query = generator.query(spec, workload.database.schema)
    mutated = generator.mutate(spec, workload.database)
    for user in workload.users:
        ok, message = check_non_interference(
            workload.catalog, user, query, workload.database, mutated
        )
        assert ok, f"seed={seed} user={user}: {message}"


@SLOW
@given(seeds)
def test_evaluators_agree_on_wide_queries(seed):
    generator, spec, workload = wide_workload(seed)
    schema = workload.database.schema
    for _ in range(2):
        plan = compile_query(generator.query(spec, schema), schema)
        assert evaluate_naive(plan, workload.database).same_rows(
            evaluate_optimized(plan, workload.database)
        )


@SLOW
@given(seeds)
def test_delivery_shape_on_wide_queries(seed):
    generator, spec, workload = wide_workload(seed)
    engine = AuthorizationEngine(workload.database, workload.catalog)
    query = generator.query(spec, workload.database.schema)
    for user in workload.users:
        answer = engine.authorize(user, query)
        for delivered, raw in zip(answer.delivered, answer.answer.rows):
            for masked_cell, raw_cell in zip(delivered, raw):
                assert masked_cell is MASKED or masked_cell == raw_cell
