# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Differential property tests: chunk-streamed paths ≡ materializing.

Bounded-memory delivery streams both halves of Figure 2:

* chunked masking — ``iter_chunks`` regrouping plus
  ``CompiledMask.apply_rows`` per chunk, as ``authorize_stream`` masks
  — must concatenate to exactly what the interpreted ``Mask.apply``
  and the whole-relation ``apply_mask_columnar`` produce, for any
  chunk size including 1 and sizes larger than the row count, and the
  chunks' tallies must sum to the whole answer's;
* ``iter_evaluate_optimized`` — the streaming evaluator's chunks must
  concatenate to ``evaluate_optimized``'s rows exactly, including
  order (set semantics dedupe across chunk boundaries), and equal the
  naive oracle ``evaluate_naive`` row for row — the join steps keep
  the product's row order (soundlint SL005 pins this pair).  Plans
  come from the workload generator and, raw, from ``raw_plans``,
  which reaches every stage of the evaluator: several one-occurrence
  filters, composite and non-adjacent hash keys, theta residuals,
  emptied sides, and projections with and without a dedupe pass.

The composition — stream evaluation into chunked masking — is what
``AuthorizationEngine.authorize_stream`` runs; its end-to-end parity
with ``authorize`` and the oracle lives in ``tests/test_stream.py``
and ``tests/property/test_engine_properties.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.columnar import iter_chunks
from repro.algebra.database import build_database
from repro.algebra.evaluate import evaluate_naive
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.optimize import (
    evaluate_optimized,
    iter_evaluate_optimized,
)
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER
from repro.calculus.to_algebra import compile_query
from repro.core.answer import DeliveryStats
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
from repro.lang.parser import parse_query
from repro.predicates.comparators import Comparator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.property.test_compiled_mask import (
    MAX_EXAMPLES,
    SLOW,
    masks_and_answers,
    seeds,
)

# 1 (degenerate), small odd (chunk boundaries mid-answer), a fraction
# of the largest generated answers, larger than most of them, and
# non-positive (degrades to 1 by contract).
chunk_sizes = st.sampled_from((1, 3, 7, 64, 100, 0))


def concat(chunks):
    return tuple(row for chunk in chunks for row in chunk)


#: Relation name -> arity of the raw plans' schema.  Two columns or
#: more each, so a composite hash key can pair distinct columns on
#: both sides (a key that repeats a column is symmetric).
RAW_ARITIES = {"P": 2, "Q": 2, "R": 3}
#: Three values: columns repeat them, so hash buckets hold several
#: rows and projections that drop a column collapse rows.
RAW_VALUES = st.integers(min_value=0, max_value=2)
#: Constants reach one past the values on each side, so some filters
#: keep nothing.
RAW_CONSTANTS = st.integers(min_value=-1, max_value=3)
COMPARATORS = tuple(Comparator)


def either_way(draw, a, b):
    """``(a, b)`` or ``(b, a)``: conditions are not pre-oriented."""
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def raw_plans(draw):
    """A database of small integer relations and a raw plan over it.

    The plan has 1–3 occurrences (self-joins included, relations
    possibly empty).  Each occurrence gets up to three one-occurrence
    conjuncts over all six comparators, against constants or its own
    columns.  Each later occurrence gets a hash key of up to two
    equalities with columns bound before it, possibly in a
    non-adjacent occurrence, and up to two comparisons of any kind.
    Conjuncts come in a drawn order and either way round; the
    projection is a permutation of every column, or a drawn list that
    may drop and repeat columns.
    """
    schemas = [
        make_schema(name, [(f"A{i}", INTEGER) for i in range(arity)])
        for name, arity in RAW_ARITIES.items()
    ]
    # A drawn length, not a bare list: Hypothesis keeps bare lists
    # short, and joins of two-row relations rarely reach a bucket.
    sizes = st.integers(0, 16)
    database = build_database(schemas, {
        name: draw(sizes.flatmap(lambda n, arity=arity: st.lists(
            st.tuples(*[RAW_VALUES] * arity), min_size=n, max_size=n)))
        for name, arity in RAW_ARITIES.items()
    })
    names = [draw(st.sampled_from(sorted(RAW_ARITIES)))
             for _ in range(draw(st.sampled_from((1, 2, 3))))]
    occurrences = []
    spans = []
    width = 0
    for name in names:
        occurrences.append(Occurrence(
            name, 1 + sum(o.relation == name for o in occurrences)))
        spans.append(range(width, width + RAW_ARITIES[name]))
        width += RAW_ARITIES[name]
    conditions = []
    for span in spans:
        for _ in range(draw(st.integers(0, 3))):
            other = draw(st.one_of(RAW_CONSTANTS.map(Const),
                                   st.sampled_from(span).map(Col)))
            lhs, rhs = either_way(draw, Col(draw(st.sampled_from(span))),
                                  other)
            conditions.append(AtomicCondition(
                lhs, draw(st.sampled_from(COMPARATORS)), rhs))
    for span in spans[1:]:
        bound = range(span.start)
        keys = draw(st.integers(0, 2))
        pairs = [
            (new, old, Comparator.EQ) for new, old in zip(
                draw(st.lists(st.sampled_from(span), min_size=keys,
                              max_size=keys, unique=True)),
                draw(st.lists(st.sampled_from(bound), min_size=keys,
                              max_size=keys, unique=True)))
        ]
        for _ in range(draw(st.integers(0, 2))):
            pairs.append((draw(st.sampled_from(span)),
                          draw(st.sampled_from(bound)),
                          draw(st.sampled_from(COMPARATORS))))
        for new, old, op in pairs:
            lhs, rhs = either_way(draw, Col(new), Col(old))
            conditions.append(AtomicCondition(lhs, op, rhs))
    if draw(st.booleans()):
        output = draw(st.permutations(range(width)))
    else:
        output = draw(st.lists(st.integers(0, width - 1),
                               min_size=1, max_size=width))
    plan = PSJQuery(tuple(occurrences),
                    tuple(draw(st.permutations(conditions))),
                    tuple(output))
    return plan, database


def mask_chunks(compiled, rows, size, drop=False, tally=None):
    """Mask ``rows`` chunk by chunk, as ``authorize_stream`` does."""
    return [
        compiled.apply_rows(chunk, drop_fully_masked=drop, tally=tally)
        for chunk in iter_chunks(rows, size)
    ]


class TestChunkedApplyMatchesOracle:
    @SLOW
    @given(masks_and_answers(), chunk_sizes, st.booleans())
    def test_concatenation_is_byte_identical(self, case, size, drop):
        mask, answer = case
        compiled = compile_mask(mask)
        tallies, whole = [], []
        streamed = concat(mask_chunks(compiled, answer.rows, size, drop,
                                      tallies))
        assert streamed == mask.apply(answer, drop_fully_masked=drop)
        assert streamed == apply_mask_columnar(compiled, answer,
                                               drop_fully_masked=drop,
                                               tally=whole)
        # The chunks' tallies add up to the whole answer's.
        assert sum(tallies, DeliveryStats.of((), answer.arity)) \
            == whole[0]

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

    # Four times the shared budget: a plan reaches a composite key
    # with rows on both sides about once in thirty examples.
    @settings(SLOW, max_examples=4 * MAX_EXAMPLES)
    @given(raw_plans())
    def test_raw_plans_match_the_oracle_in_order(self, case):
        plan, database = case
        expected = evaluate_naive(plan, database).rows
        assert evaluate_optimized(plan, database).rows == expected
        for size in (1, 3, 100):
            assert concat(iter_evaluate_optimized(
                plan, database, chunk_size=size,
            )) == expected

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
