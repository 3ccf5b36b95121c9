# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests on the engine: soundness and structural invariants.

These are the heavyweight checks:

* **non-interference** — the semantic content of the paper's Theorem:
  on randomly generated workloads, a mutation invisible to a user's
  permitted views never changes what that user receives;
* **one oracle for every delivery mode** — ``authorize``, each
  ``authorize_batch`` element, ``authorize_degraded`` at every floor
  and the concatenated ``authorize_stream`` chunks all deliver exactly
  what Figure 2 gives when run the slow way (at the floor's ladder
  rung; nothing at the EMPTY floor);
* **evaluator agreement** — naive and optimized data evaluation agree
  on random conjunctive queries;
* **delivery shape** — delivered rows always align with the raw answer
  (masking only ever replaces cells, never invents values);
* **grant monotonicity** — granting an additional view never shrinks a
  delivery; revoking never grows one;
* **ablation dominance** — disabling refinements never delivers more.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate_naive
from repro.algebra.optimize import evaluate_optimized
from repro.baselines.oracle import check_non_interference
from repro.calculus.to_algebra import compile_query
from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED, Mask
from repro.metaalgebra.ladder import EMPTY_LEVEL, rung_config
from repro.metaalgebra.plan import derive_mask
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def make_workload(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=8)
    return generator, spec, generator.workload(spec)


class TestNonInterference:
    @SLOW
    @given(seeds)
    def test_invisible_mutations_change_nothing(self, seed):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        for _ in range(2):
            mutated = generator.mutate(spec, workload.database)
            for user in workload.users:
                ok, message = check_non_interference(
                    workload.catalog, user, query,
                    workload.database, mutated,
                )
                assert ok, f"seed={seed} user={user} query={query}: {message}"

    @SLOW
    @given(seeds)
    def test_non_interference_of_base_model(self, seed):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        mutated = generator.mutate(spec, workload.database)
        for user in workload.users:
            ok, message = check_non_interference(
                workload.catalog, user, query,
                workload.database, mutated,
                config=BASE_MODEL_CONFIG,
            )
            assert ok, f"seed={seed}: {message}"


class TestDeliveryModesMatchOracle:
    """Every delivery mode against Figure 2 run the slow way.

    The oracle evaluates the answer by naive product-select-project
    (``evaluate_naive``), derives the mask through the materializing
    product (``derive_mask(..., materialize=True)``) and applies it
    with the interpreted ``Mask.apply``.  Each mode must deliver
    exactly those rows, in that order, with and without
    ``drop_fully_masked_rows``.  A shed to floor ``f`` must deliver
    the oracle run with ``rung_config(config, f)``; the engine that
    sheds has its cache off, since a live full-fidelity entry is
    served at any floor below EMPTY.
    """

    @SLOW
    @given(seeds, st.booleans())
    def test_every_mode_delivers_the_oracle_rows(self, seed, drop):
        generator, spec, workload = make_workload(seed)
        config = DEFAULT_CONFIG.but(drop_fully_masked_rows=drop)
        engine = AuthorizationEngine(workload.database, workload.catalog,
                                     config)
        shed = AuthorizationEngine(workload.database, workload.catalog,
                                   config.but(derivation_cache_size=0))
        schema = workload.database.schema
        queries = [generator.query(spec, schema) for _ in range(2)]
        for user in workload.users:
            # Each query twice: repeats are served from the batch memo.
            batch = engine.authorize_batch(user, queries + queries)
            for index, query in enumerate(queries):
                plan = compile_query(query, schema)
                views = workload.catalog.snapshot(
                    user, plan.relation_names()
                )
                answer = evaluate_naive(plan, workload.database)

                def oracle(rung):
                    mask = derive_mask(plan, schema, views, rung,
                                       materialize=True).mask
                    return Mask.from_table(mask).apply(
                        answer, drop_fully_masked=drop)

                want = oracle(config)
                for floor in range(1, EMPTY_LEVEL + 1):
                    rung = rung_config(config, floor)
                    shed_rows = shed.authorize_degraded(
                        user, query, floor).delivered
                    assert shed_rows == (
                        () if rung is None else oracle(rung)
                    ), (f"seed={seed} drop={drop} user={user} "
                        f"floor={floor} query={query}")
                got = {
                    "authorize": engine.authorize(user, query),
                    "batch": batch[index],
                    "batch repeat": batch[index + len(queries)],
                    "degraded floor 0": engine.authorize_degraded(
                        user, query, floor=0),
                }
                delivered = {
                    mode: answer.delivered for mode, answer in got.items()
                }
                for size in (1, 3, None):
                    stream = engine.authorize_stream(user, query,
                                                     chunk_size=size)
                    delivered[f"stream chunk_size={size}"] = tuple(
                        row for chunk in stream for row in chunk
                    )
                for mode, rows in delivered.items():
                    assert rows == want, (
                        f"seed={seed} drop={drop} user={user} "
                        f"mode={mode} query={query}"
                    )


class TestEvaluatorAgreement:
    @SLOW
    @given(seeds)
    def test_naive_equals_optimized(self, seed):
        generator, spec, workload = make_workload(seed)
        schema = workload.database.schema
        for _ in range(3):
            plan = compile_query(generator.query(spec, schema), schema)
            naive = evaluate_naive(plan, workload.database)
            fast = evaluate_optimized(plan, workload.database)
            assert naive.same_rows(fast), f"seed={seed}: {plan}"


class TestDeliveryShape:
    @SLOW
    @given(seeds)
    def test_masking_only_replaces_cells(self, seed):
        generator, spec, workload = make_workload(seed)
        engine = AuthorizationEngine(workload.database, workload.catalog)
        query = generator.query(spec, workload.database.schema)
        for user in workload.users:
            answer = engine.authorize(user, query)
            assert len(answer.delivered) == answer.answer.cardinality
            for delivered, raw in zip(answer.delivered,
                                      answer.answer.rows):
                for masked_cell, raw_cell in zip(delivered, raw):
                    assert masked_cell is MASKED or masked_cell == raw_cell

    @SLOW
    @given(seeds)
    def test_stats_are_consistent(self, seed):
        generator, spec, workload = make_workload(seed)
        engine = AuthorizationEngine(workload.database, workload.catalog)
        query = generator.query(spec, workload.database.schema)
        stats = engine.authorize(workload.users[0], query).stats()
        assert stats.full_rows + stats.partial_rows + stats.masked_rows \
            == stats.total_rows
        assert 0 <= stats.delivered_cells <= stats.total_cells


class TestMonotonicity:
    @SLOW
    @given(seeds)
    def test_granting_more_never_delivers_less(self, seed):
        generator, spec, workload = make_workload(seed)
        user = workload.users[0]
        engine = AuthorizationEngine(workload.database, workload.catalog)
        query = generator.query(spec, workload.database.schema)

        before = engine.authorize(user, query).stats().delivered_cells
        # Grant every remaining view.
        for view in workload.views:
            workload.catalog.permit(view.name, user)
        after = engine.authorize(user, query).stats().delivered_cells
        assert after >= before, f"seed={seed}"

    @SLOW
    @given(seeds)
    def test_refinements_only_add(self, seed):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        full_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        base_engine = AuthorizationEngine(
            workload.database, workload.catalog, BASE_MODEL_CONFIG
        )
        for user in workload.users:
            full = full_engine.authorize(user, query).stats()
            base = base_engine.authorize(user, query).stats()
            assert base.delivered_cells <= full.delivered_cells, \
                f"seed={seed} user={user} query={query}"
