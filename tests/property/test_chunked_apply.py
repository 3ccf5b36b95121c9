# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Differential property tests: chunk-streamed paths ≡ materializing.

Bounded-memory delivery streams both halves of Figure 2:

* chunked masking — ``iter_chunks`` regrouping plus
  ``CompiledMask.apply_rows`` per chunk, as ``authorize_stream`` masks
  — must concatenate to exactly what the interpreted ``Mask.apply``
  and the whole-relation ``apply_mask_columnar`` produce, for any
  chunk size including 1 and sizes larger than the row count;
* ``iter_evaluate_optimized`` — the streaming evaluator's chunks must
  concatenate to ``evaluate_optimized``'s rows exactly, including
  order (set semantics dedupe across chunk boundaries), and equal the
  naive oracle ``evaluate_naive`` row for row — the join steps keep
  the product's row order (soundlint SL005 pins this pair).

The composition — stream evaluation into chunked masking — is what
``AuthorizationEngine.authorize_stream`` runs; its end-to-end parity
with ``authorize`` and the oracle lives in ``tests/test_stream.py``
and ``tests/property/test_engine_properties.py``.
"""

from hypothesis import given, strategies as st

from repro.algebra.columnar import iter_chunks
from repro.algebra.evaluate import evaluate_naive
from repro.algebra.optimize import (
    evaluate_optimized,
    iter_evaluate_optimized,
)
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
from repro.lang.parser import parse_query
from repro.calculus.to_algebra import compile_query
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

from tests.property.test_compiled_mask import (
    SLOW,
    masks_and_answers,
    seeds,
)

# 1 (degenerate), small odd (chunk boundaries mid-answer), larger than
# any generated answer, and non-positive (degrades to 1 by contract).
chunk_sizes = st.sampled_from((1, 3, 7, 100, 0))


def concat(chunks):
    return tuple(row for chunk in chunks for row in chunk)


def mask_chunks(compiled, rows, size, drop=False):
    """Mask ``rows`` chunk by chunk, as ``authorize_stream`` does."""
    return [
        compiled.apply_rows(chunk, drop_fully_masked=drop)
        for chunk in iter_chunks(rows, size)
    ]


class TestChunkedApplyMatchesOracle:
    @SLOW
    @given(masks_and_answers(), chunk_sizes, st.booleans())
    def test_concatenation_is_byte_identical(self, case, size, drop):
        mask, answer = case
        compiled = compile_mask(mask)
        streamed = concat(mask_chunks(compiled, answer.rows, size, drop))
        assert streamed == mask.apply(answer, drop_fully_masked=drop)
        assert streamed == apply_mask_columnar(compiled, answer,
                                               drop_fully_masked=drop)

    @SLOW
    @given(masks_and_answers(), chunk_sizes)
    def test_chunk_shapes(self, case, size):
        # Without dropping, chunk sizes partition the answer exactly:
        # every chunk is full except possibly the last.
        mask, answer = case
        compiled = compile_mask(mask)
        chunks = mask_chunks(compiled, answer.rows, size)
        effective = max(size, 1)
        assert all(len(c) == effective for c in chunks[:-1])
        assert sum(len(c) for c in chunks) == len(answer.rows)


class TestIterChunks:
    @SLOW
    @given(st.lists(st.tuples(st.integers(), st.integers())),
           chunk_sizes)
    def test_regrouping_preserves_rows(self, rows, size):
        assert concat(iter_chunks(rows, size)) == tuple(rows)


class TestStreamingEvaluatorMatchesOracle:
    @SLOW
    @given(seeds, chunk_sizes)
    def test_chunks_concatenate_to_evaluate_optimized(self, seed, size):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3,
                            rows_per_relation=10)
        db_schema = generator.schema(spec)
        database = generator.instance(spec, db_schema)
        for _ in range(3):
            query = generator.query(spec, db_schema)
            plan = compile_query(query, db_schema)
            streamed = concat(iter_evaluate_optimized(
                plan, database, chunk_size=size,
            ))
            # Exact order: the streaming evaluator is a regrouping of
            # the materializing one, not a reordering.
            assert streamed == evaluate_optimized(plan, database).rows
            # And both are the naive product-select-project, in the
            # product's row order.
            assert streamed == evaluate_naive(plan, database).rows

    def test_paper_example_streams_identically(self, paper_db):
        plan = compile_query(
            parse_query(
                "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)"
            ),
            paper_db.schema,
        )
        for size in (1, 2, 100):
            assert concat(iter_evaluate_optimized(
                plan, paper_db, chunk_size=size,
            )) == evaluate_optimized(plan, paper_db).rows
