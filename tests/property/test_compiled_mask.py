"""Differential property tests: compiled masks ≡ the interpreted oracle.

A mask compiled by ``repro.core.compiled_mask.compile_mask`` and
applied by the columnar kernel must be *differentially identical* to
the interpreted ``Mask.apply`` — same delivered bytes, same
``drop_fully_masked`` behaviour — over masks with blanks, constants,
repeated variables, interval constraints and variable-to-variable
COMPARISON relations.  The interpreted path stays in the tree as the
reference oracle precisely so this suite can say "identical", not
"close".  ``TestEndToEnd`` runs the same comparison through the
engine: a mask that fails to compile is delivered by the interpreted
fallback, and must deliver what the compiled one does.  The check of
every engine delivery mode against the oracle lives in
``tests/property/test_engine_properties.py``.
"""

import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.relation import Column, Relation
from repro.algebra.types import INTEGER
from repro.core.compiled_mask import compile_mask
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED, Mask
from repro.errors import ReproError
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.table import MaskRow
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "60"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# A small value universe makes constant hits, repeated-variable
# agreement, and interval boundaries all likely.
VALUES = st.integers(min_value=0, max_value=4)
VARIABLES = ("x1", "x2", "x3")
COMPARATORS = tuple(Comparator)

cells = st.one_of(
    st.booleans().map(MetaCell.blank),
    st.tuples(VALUES, st.booleans()).map(
        lambda cv: MetaCell.constant(cv[0], cv[1])
    ),
    st.tuples(st.sampled_from(VARIABLES), st.booleans()).map(
        lambda nv: MetaCell.variable(nv[0], nv[1])
    ),
)

interval_constraints = st.lists(
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(COMPARATORS),
              VALUES),
    max_size=3,
)

# Variable equality is handled by unification in the store, never as a
# stored relation — so it is excluded here, as it is in derivations.
RELATORS = tuple(c for c in COMPARATORS if c is not Comparator.EQ)

relation_constraints = st.lists(
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(RELATORS),
              st.sampled_from(VARIABLES)),
    max_size=2,
)


@st.composite
def stores(draw):
    store = ConstraintStore.empty()
    for var, op, value in draw(interval_constraints):
        store = store.constrain(var, op, value)
    for left, op, right in draw(relation_constraints):
        if left != right:
            store = store.relate(left, op, right)
    return store


@st.composite
def masks_and_answers(draw):
    arity = draw(st.integers(min_value=1, max_value=4))
    columns = tuple(
        Column(f"C{i}", INTEGER) for i in range(arity)
    )
    nrows = draw(st.integers(min_value=0, max_value=5))
    rows = []
    for _ in range(nrows):
        meta = MetaTuple(
            frozenset({"V"}),
            tuple(draw(cells) for _ in range(arity)),
            frozenset(),
        )
        rows.append(MaskRow(meta, draw(stores())))
    mask = Mask(columns, tuple(rows))
    answer_rows = draw(st.lists(
        st.tuples(*[VALUES] * arity), max_size=8,
    ))
    answer = Relation(columns, answer_rows, validate=False)
    return mask, answer


class TestCompiledMatchesInterpreted:
    @SLOW
    @given(masks_and_answers(), st.booleans())
    def test_apply_is_byte_identical(self, case, drop):
        mask, answer = case
        compiled = compile_mask(mask)
        assert compiled.apply_rows(answer.rows, drop_fully_masked=drop) \
            == mask.apply(answer, drop_fully_masked=drop)

    @SLOW
    @given(masks_and_answers())
    def test_compilation_is_pure(self, case):
        # Compiling twice, or applying twice, never changes the result:
        # the matcher holds no per-application state.
        mask, answer = case
        compiled = compile_mask(mask)
        first = compiled.apply_rows(answer.rows)
        assert compiled.apply_rows(answer.rows) == first
        assert compile_mask(mask).apply_rows(answer.rows) == first


# ----------------------------------------------------------------------
# the two kinds of relation row the one lowering tells apart
# ----------------------------------------------------------------------

TRIPLE = tuple(Column(f"C{i}", INTEGER) for i in range(3))
ALL_TRIPLES = Relation(
    TRIPLE,
    [(a, b, c) for a in range(5) for b in range(5) for c in range(5)],
    validate=False,
)


def one_row_mask(cells, store):
    meta = MetaTuple(frozenset({"V"}), tuple(cells), frozenset())
    return Mask(TRIPLE, (MaskRow(meta, store),))


x1, x2 = MetaCell.variable("x1", True), MetaCell.variable("x2", True)

RELATION_ROWS = {
    # (a) every variable of the relation is bound by a cell: the
    # relation lowers to a direct comparison of two columns, which the
    # kernel and SQL evaluate alike.
    "bound, no constants": (
        one_row_mask((x1, x2, MetaCell.blank(True)),
                     ConstraintStore.empty()
                     .relate("x1", Comparator.LT, "x2")),
        True,
    ),
    "bound, with a constant": (
        one_row_mask((x1, x2, MetaCell.constant(3)),
                     ConstraintStore.empty()
                     .relate("x1", Comparator.NE, "x2")
                     .constrain("x2", Comparator.LE, 3)),
        True,
    ),
    # (b) the relation reaches x3, which no cell binds: the row keeps
    # its existential reading (x1 < x3 < 2 for some x3, i.e. x1 < 2)
    # as a residual store check, which SQL cannot express.
    "unbound, no constants": (
        one_row_mask((x1, MetaCell.blank(True), MetaCell.blank()),
                     ConstraintStore.empty()
                     .relate("x1", Comparator.LT, "x3")
                     .constrain("x3", Comparator.LT, 2)),
        False,
    ),
    "unbound, with a constant": (
        one_row_mask((x1, MetaCell.constant(1), x2),
                     ConstraintStore.empty()
                     .relate("x1", Comparator.LT, "x3")
                     .relate("x2", Comparator.GE, "x3")),
        False,
    ),
}


class TestRelationRows:
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("name", sorted(RELATION_ROWS))
    def test_kernel_matches_oracle(self, name, drop):
        mask, _ = RELATION_ROWS[name]
        # The relation decides visibility: some cells show, some don't.
        cells = [cell for row in mask.apply(ALL_TRIPLES) for cell in row]
        assert 0 < sum(cell is not MASKED for cell in cells) < len(cells)
        expect = mask.apply(ALL_TRIPLES, drop_fully_masked=drop)
        assert compile_mask(mask).apply_rows(
            ALL_TRIPLES.rows, drop_fully_masked=drop
        ) == expect

    @pytest.mark.parametrize("name", sorted(RELATION_ROWS))
    def test_pushdown_iff_every_relation_is_bound(self, name):
        mask, pushdown = RELATION_ROWS[name]
        compiled = compile_mask(mask)
        assert compiled.pushdown is pushdown
        (row,) = compiled.rows
        if pushdown:
            assert row.residual is None and row.relation_checks
        else:
            assert row.residual is not None and not row.relation_checks


seeds = st.integers(min_value=0, max_value=10_000)


@contextmanager
def masks_never_compile():
    """Make every mask compilation in the engine fail.

    The engine then delivers through its interpreted ``Mask.apply``
    fallback.  Yields the patched ``compile_mask`` so a test can check
    that compilation was attempted, i.e. that the fallback ran.
    """
    failure = ReproError("mask compilation unavailable")
    with mock.patch("repro.core.engine.compile_mask",
                    side_effect=failure) as patched:
        yield patched


class TestEndToEnd:
    @SLOW
    @given(seeds)
    def test_engines_agree_on_workloads(self, seed):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                            rows_per_relation=8)
        workload = generator.workload(spec)
        compiled_engine = AuthorizationEngine(workload.database,
                                              workload.catalog)
        interpreted_engine = AuthorizationEngine(workload.database,
                                                 workload.catalog)
        for _ in range(2):
            query = generator.query(spec, workload.database.schema)
            for user in workload.users:
                fast = compiled_engine.authorize(user, query)
                with masks_never_compile() as compile_attempts:
                    slow = interpreted_engine.authorize(user, query)
                assert compile_attempts.called
                assert fast.delivered == slow.delivered, \
                    f"seed={seed} user={user} query={query}"
                assert [str(p) for p in fast.permits] \
                    == [str(p) for p in slow.permits]
