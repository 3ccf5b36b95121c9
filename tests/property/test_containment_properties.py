# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property test: containment certificates hold on random instances.

``is_contained_in`` is conservative by design; this test checks its
*soundness*: whenever it issues a certificate for Q1 ⊆ Q2, the
materialized extensions on random instances must be in subset relation.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate_naive
from repro.calculus.containment import is_contained_in
from repro.calculus.to_algebra import compile_query
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


@SLOW
@given(seeds)
def test_certificates_are_sound(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, rows_per_relation=8)
    schema = generator.schema(spec)
    database = generator.instance(spec, schema)

    queries = [generator.query(spec, schema) for _ in range(5)]
    extensions = []
    for query in queries:
        plan = compile_query(query, schema)
        extensions.append(set(evaluate_naive(plan, database).rows))

    for i, first in enumerate(queries):
        for j, second in enumerate(queries):
            if is_contained_in(first, second, schema):
                assert extensions[i] <= extensions[j], (
                    f"seed={seed}: {first}  vs  {second}"
                )


@SLOW
@given(seeds)
def test_reflexivity_on_generated_queries(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed)
    schema = generator.schema(spec)
    for _ in range(5):
        query = generator.query(spec, schema)
        assert is_contained_in(query, query, schema), str(query)
