"""Property test: meta-selection preserves subview semantics over the
answer.

For a meta-tuple m (all cells starred, so every Definition 2 outcome is
in play) with predicate mu, and a query predicate lambda applied both
to the data (producing the answer A = sigma_lambda(R)) and to the
meta-tuple (producing m'), the delivered content must be exactly the
mu-subview of A:

    materialize(m', A)  ==  materialize(m, A)

— whichever of the four cases fired (clear, retain, conjoin, discard as
the empty mask).  This is the operator-level statement of the Theorem
under the refinement, checked against brute-force materialization on
random relations.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.relation import Column, Relation
from repro.algebra.types import INTEGER, STRING
from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG
from repro.core.mask import materialize_meta_tuple
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.selection import meta_select
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore

SLOW = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

COLUMNS = (
    Column("S", STRING),
    Column("N", INTEGER),
    Column("M", INTEGER),
)

seeds = st.integers(min_value=0, max_value=100_000)


def random_relation(rng):
    rows = [
        (f"s{rng.randrange(3)}", rng.randrange(8), rng.randrange(8))
        for _ in range(12)
    ]
    return Relation(COLUMNS, rows, validate=False)


def random_meta(rng):
    """An all-starred meta-tuple with a random mix of cell kinds."""
    store = ConstraintStore.empty()
    cells = []
    # String column: blank or constant.
    if rng.random() < 0.4:
        cells.append(MetaCell.constant(f"s{rng.randrange(3)}", True))
    else:
        cells.append(MetaCell.blank(True))
    # Two int columns: blank, constant, a constrained variable, or a
    # shared variable across both.
    shared = rng.random() < 0.25
    if shared:
        cells.append(MetaCell.variable("v", True))
        cells.append(MetaCell.variable("v", True))
    else:
        for _ in range(2):
            kind = rng.randrange(3)
            if kind == 0:
                cells.append(MetaCell.blank(True))
            elif kind == 1:
                cells.append(MetaCell.constant(rng.randrange(8), True))
            else:
                name = f"x{len(cells)}"
                cells.append(MetaCell.variable(name, True))
                op = rng.choice((Comparator.GE, Comparator.LE))
                store = store.constrain(name, op, rng.randrange(8),
                                        discrete=True)
    meta = MetaTuple(frozenset({"V"}), tuple(cells),
                     frozenset({("V", 0)}))
    return meta, store


def random_condition(rng):
    index = rng.randrange(3)
    if index == 0:
        op = rng.choice((Comparator.EQ, Comparator.NE))
        return AtomicCondition(Col(0), op, Const(f"s{rng.randrange(3)}"))
    op = rng.choice((Comparator.EQ, Comparator.NE, Comparator.LT,
                     Comparator.LE, Comparator.GT, Comparator.GE))
    return AtomicCondition(Col(index), op, Const(rng.randrange(8)))


@SLOW
@given(seeds, st.sampled_from([DEFAULT_CONFIG, BASE_MODEL_CONFIG]))
def test_selection_preserves_subview_of_answer(seed, config):
    rng = random.Random(seed)
    relation = random_relation(rng)
    meta, store = random_meta(rng)
    condition = random_condition(rng)

    answer = relation.select(condition.evaluate)

    table = MaskTable(COLUMNS, (MaskRow(meta, store),))
    selected = meta_select(table, condition, config)

    if selected.rows:
        row = selected.rows[0]
        delivered = materialize_meta_tuple(row.meta, row.store, answer)
    else:
        delivered = answer.select(lambda _: False)

    expected = materialize_meta_tuple(meta, store, answer)

    if config is DEFAULT_CONFIG:
        # The refined operator must deliver exactly the mu-subview of
        # the answer... except where the star policy forces a drop —
        # but all cells are starred here, so exactness is required
        # unless the row was dropped for provable emptiness.
        if selected.rows:
            assert delivered.same_rows(expected), (
                f"seed={seed} condition={condition} "
                f"meta={[str(c) for c in meta.cells]} store={store}"
            )
        else:
            assert expected.cardinality == 0
    else:
        # The base operator conjoins: never more than the mu-subview.
        assert set(delivered.rows) <= set(expected.rows)
