# soundlint: disable-file=SL006 -- exercises the algebra/evaluation layer directly, below the authorization boundary; nothing is user-delivered
"""Unit tests for the optimized evaluator: must match the naive one."""

import pytest

from repro.algebra.database import build_database
from repro.algebra.evaluate import evaluate_naive
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.optimize import evaluate_optimized, iter_evaluate_optimized
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.predicates.comparators import Comparator


@pytest.fixture
def db():
    r = make_schema("R", [("K", STRING), ("V", INTEGER)], key=["K"])
    s = make_schema("S", [("K", STRING), ("W", INTEGER)], key=["K"])
    t = make_schema("T", [("W", INTEGER)])
    u = make_schema("U", [("X", INTEGER), ("Y", INTEGER)])
    return build_database([r, s, t, u], {
        "R": [(f"k{i}", i) for i in range(8)],
        "S": [(f"k{i}", i * 10) for i in range(0, 8, 2)],
        "T": [(i,) for i in range(0, 80, 10)],
        "U": [(i, i % 3) for i in range(6)] + [(7, 7)],
    })


def both(plan, db):
    naive = evaluate_naive(plan, db)
    fast = evaluate_optimized(plan, db)
    # Exact order: the optimizer keeps the product's row order.
    assert fast.rows == naive.rows, (
        f"naive={naive.rows} optimized={fast.rows}"
    )
    assert naive.labels() == fast.labels()
    return fast


class TestEquivalence:
    def test_plain_scan(self, db):
        both(PSJQuery((Occurrence("R"),), (), (0, 1)), db)

    def test_selection_pushdown(self, db):
        both(PSJQuery(
            (Occurrence("R"), Occurrence("S")),
            (
                AtomicCondition(Col(1), Comparator.GE, Const(3)),
                AtomicCondition(Col(0), Comparator.EQ, Col(2)),
            ),
            (0, 3),
        ), db)

    def test_hash_join(self, db):
        result = both(PSJQuery(
            (Occurrence("R"), Occurrence("S")),
            (AtomicCondition(Col(0), Comparator.EQ, Col(2)),),
            (0, 1, 3),
        ), db)
        assert result.cardinality == 4

    def test_hash_join_with_constant_probe(self, db):
        both(PSJQuery(
            (Occurrence("R"),),
            (AtomicCondition(Col(0), Comparator.EQ, Const("k3")),),
            (1,),
        ), db)

    def test_theta_join_falls_back(self, db):
        both(PSJQuery(
            (Occurrence("R"), Occurrence("T")),
            (AtomicCondition(Col(1), Comparator.LT, Col(2)),),
            (0, 2),
        ), db)

    def test_three_way(self, db):
        both(PSJQuery(
            (Occurrence("R"), Occurrence("S"), Occurrence("T")),
            (
                AtomicCondition(Col(0), Comparator.EQ, Col(2)),
                AtomicCondition(Col(3), Comparator.EQ, Col(4)),
            ),
            (0, 4),
        ), db)

    def test_self_join(self, db):
        both(PSJQuery(
            (Occurrence("R", 1), Occurrence("R", 2)),
            (AtomicCondition(Col(1), Comparator.EQ, Col(3)),),
            (0, 2),
        ), db)

    def test_empty_result_short_circuits(self, db):
        result = both(PSJQuery(
            (Occurrence("R"), Occurrence("S")),
            (
                AtomicCondition(Col(1), Comparator.GT, Const(100)),
                AtomicCondition(Col(0), Comparator.EQ, Col(2)),
            ),
            (0,),
        ), db)
        assert result.cardinality == 0

    def test_inequality_equijoin_mix(self, db):
        both(PSJQuery(
            (Occurrence("R"), Occurrence("S")),
            (
                AtomicCondition(Col(0), Comparator.EQ, Col(2)),
                AtomicCondition(Col(3), Comparator.NE, Const(20)),
            ),
            (0, 3),
        ), db)

    def test_equijoin_between_new_columns_residual(self, db):
        # Both sides of the equality land in the occurrence being
        # added: must be handled as a residual, not a probe key.
        both(PSJQuery(
            (Occurrence("T"), Occurrence("U")),
            (AtomicCondition(Col(1), Comparator.EQ, Col(2)),),
            (0, 1),
        ), db)

    def test_every_local_conjunct_filters(self, db):
        # Three one-occurrence conjuncts on R, one of them a column
        # pair: each must cut rows.
        result = both(PSJQuery(
            (Occurrence("R"),),
            (
                AtomicCondition(Col(1), Comparator.GE, Const(2)),
                AtomicCondition(Const(6), Comparator.GT, Col(1)),
                AtomicCondition(Col(0), Comparator.NE, Const("k4")),
                AtomicCondition(Col(1), Comparator.EQ, Col(1)),
            ),
            (0,),
        ), db)
        assert result.rows == (("k2",), ("k3",), ("k5",))

    def test_composite_key_pairs_columns_in_order(self, db):
        # U:1.X = U:2.Y and U:2.X = U:1.Y: a two-column key whose
        # pairs cross over.  Probing with the pairs swapped would
        # match every row to itself instead.
        result = both(PSJQuery(
            (Occurrence("U", 1), Occurrence("U", 2)),
            (
                AtomicCondition(Col(0), Comparator.EQ, Col(3)),
                AtomicCondition(Col(2), Comparator.EQ, Col(1)),
            ),
            (0, 1, 2, 3),
        ), db)
        assert result.rows == ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2),
                               (7, 7, 7, 7))

    def test_key_to_a_non_adjacent_occurrence(self, db):
        both(PSJQuery(
            (Occurrence("R"), Occurrence("T"), Occurrence("S")),
            (
                AtomicCondition(Col(3), Comparator.EQ, Col(0)),
                AtomicCondition(Col(2), Comparator.LE, Col(4)),
            ),
            (0, 2, 4),
        ), db)

    def test_emptied_side_ends_the_chain(self, db):
        result = both(PSJQuery(
            (Occurrence("R"), Occurrence("T")),
            (AtomicCondition(Col(2), Comparator.LT, Const(0)),),
            (0, 1, 2),
        ), db)
        assert result.rows == ()


class TestStreamedDedupe:
    def test_dropping_a_column_dedupes_across_chunks(self, db):
        plan = PSJQuery((Occurrence("U"),), (), (1,))
        for size in (1, 2, 100):
            rows = tuple(row for chunk in iter_evaluate_optimized(
                plan, db, chunk_size=size) for row in chunk)
            assert rows == evaluate_naive(plan, db).rows
            assert rows == ((0,), (1,), (2,), (7,))

    def test_keeping_every_column_needs_no_dedupe(self, db):
        plan = PSJQuery((Occurrence("U"),), (), (1, 0))
        assert plan.keeps_every_column(db.schema)
        assert not PSJQuery((Occurrence("U"),), (), (1, 1)) \
            .keeps_every_column(db.schema)
        rows = tuple(row for chunk in iter_evaluate_optimized(
            plan, db, chunk_size=3) for row in chunk)
        assert rows == evaluate_naive(plan, db).rows
        assert len(rows) == db.instance("U").cardinality
