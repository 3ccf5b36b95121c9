"""Differential property tests: compiled masks ≡ the interpreted oracle.

A mask compiled by ``repro.core.compiled_mask.compile_mask`` and
applied by the columnar kernel must be *differentially identical* to
the interpreted ``Mask.apply`` — same delivered bytes, same
``drop_fully_masked`` behaviour — over masks with blanks, constants,
repeated variables, interval constraints (strict, discrete and
excluded bounds) and variable-to-variable COMPARISON relations, on
INTEGER, REAL and STRING columns, answers of up to about 300 rows and
up to 10 columns.  The interpreted path stays in the tree as the
reference oracle precisely so this suite can say "identical", not
"close".  The kernel's tally must equal ``DeliveryStats.of`` over what
it delivered (chunk by chunk, in
``tests/property/test_chunked_apply.py``).  ``TestEndToEnd`` runs
the same comparison through the engine, whose only masker is the
kernel: each delivery must equal ``Mask.apply`` over the engine's own
answer and mask.  The check of every engine delivery mode against the oracle lives in
``tests/property/test_engine_properties.py``.
"""

import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.relation import Column, Relation
from repro.algebra.types import INTEGER, REAL, STRING
from repro.config import DEFAULT_CONFIG
from repro.core.answer import DeliveryStats
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
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

# Small value universes make constant hits, repeated-variable
# agreement, and interval boundaries all likely.  REAL columns hold
# floats, and their constants mix ints and floats, as views over a
# REAL attribute may.
UNIVERSES = {
    INTEGER: (0, 1, 2, 3, 4),
    REAL: (0.0, 0.5, 1.0, 1.5, 2.0),
    STRING: ("a", "b", "c", "d"),
}
CONSTANTS = {
    INTEGER: (0, 1, 2, 3, 4),
    REAL: (0, 0.5, 1.0, 1.5, 2),
    STRING: ("a", "b", "c", "d"),
}
DOMAINS = tuple(UNIVERSES)
# Variables are typed the way derivations type them: numeric ones may
# join INTEGER and REAL columns, string ones only STRING columns.
NUMERIC_VARIABLES = ("x1", "x2", "x3")
STRING_VARIABLES = ("s1", "s2")
COMPARATORS = tuple(Comparator)

# Variable equality is handled by unification in the store, never as a
# stored relation — so it is excluded here, as it is in derivations.
RELATORS = tuple(c for c in COMPARATORS if c is not Comparator.EQ)


def is_numeric(domain):
    return domain is not STRING


def cells_for(domain):
    variables = NUMERIC_VARIABLES if is_numeric(domain) \
        else STRING_VARIABLES
    return st.one_of(
        st.booleans().map(MetaCell.blank),
        st.tuples(st.sampled_from(CONSTANTS[domain]), st.booleans()).map(
            lambda cv: MetaCell.constant(cv[0], cv[1])
        ),
        st.tuples(st.sampled_from(variables), st.booleans()).map(
            lambda nv: MetaCell.variable(nv[0], nv[1])
        ),
    )


def interval_constraints(variables, constants):
    return st.lists(
        st.tuples(st.sampled_from(variables), st.sampled_from(COMPARATORS),
                  st.sampled_from(constants)),
        max_size=3,
    )


def relation_constraints(variables):
    return st.lists(
        st.tuples(st.sampled_from(variables), st.sampled_from(RELATORS),
                  st.sampled_from(variables)),
        max_size=2,
    )


@st.composite
def stores(draw):
    # ``discrete`` tightens strict integer bounds, as INTEGER columns do.
    discrete = draw(st.booleans())
    store = ConstraintStore.empty()
    for var, op, value in draw(interval_constraints(
            NUMERIC_VARIABLES, CONSTANTS[INTEGER] + CONSTANTS[REAL])):
        store = store.constrain(var, op, value, discrete)
    for var, op, value in draw(interval_constraints(
            STRING_VARIABLES, CONSTANTS[STRING])):
        store = store.constrain(var, op, value)
    for variables in (NUMERIC_VARIABLES, STRING_VARIABLES):
        for left, op, right in draw(relation_constraints(variables)):
            if left != right:
                store = store.relate(left, op, right)
    return store


@st.composite
def masks_and_answers(draw):
    arity = draw(st.integers(min_value=1, max_value=10))
    domains = draw(st.lists(st.sampled_from(DOMAINS),
                            min_size=arity, max_size=arity))
    columns = tuple(
        Column(f"C{i}", domain) for i, domain in enumerate(domains)
    )
    nrows = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for _ in range(nrows):
        meta = MetaTuple(
            frozenset({"V"}),
            tuple(draw(cells_for(domain)) for domain in domains),
            frozenset(),
        )
        rows.append(MaskRow(meta, draw(stores())))
    mask = Mask(columns, tuple(rows))
    # Answer rows come from a Hypothesis-controlled Random: hundreds
    # of rows would overrun the example buffer if drawn cell by cell.
    size = draw(st.integers(min_value=0, max_value=300))
    rng = draw(st.randoms(use_true_random=False))
    answer_rows = [
        tuple(rng.choice(UNIVERSES[domain]) for domain in domains)
        for _ in range(size)
    ]
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


class TestTally:
    @SLOW
    @given(masks_and_answers(), st.booleans())
    def test_tally_equals_delivery_stats(self, case, drop):
        # The lanes' popcounts must count exactly what DeliveryStats.of
        # counts over the delivered rows, dropped rows excluded.
        mask, answer = case
        compiled = compile_mask(mask)
        for apply in (
            lambda tally: compiled.apply_rows(
                answer.rows, drop_fully_masked=drop, tally=tally),
            lambda tally: apply_mask_columnar(
                compiled, answer, drop_fully_masked=drop, tally=tally),
        ):
            tally = []
            delivered = apply(tally)
            assert tally == [DeliveryStats.of(delivered, answer.arity)]


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
    # relation lowers to a direct comparison of two columns.
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
    # as a residual store check.
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
    def test_residual_iff_some_relation_is_unbound(self, name):
        mask, bound = RELATION_ROWS[name]
        (row,) = compile_mask(mask).rows
        # A bound relation lowers to an order or <> comparison of two
        # columns; an unbound one stays in the residual store.
        relations = [
            check for check in row.checks
            if isinstance(check.rhs, Col) and check.op is not Comparator.EQ
        ]
        if bound:
            assert row.residual is None and relations
        else:
            assert row.residual is not None and not relations

    def test_checks_keep_the_printed_order(self):
        # Constant cells, then intervals, then relations: the order
        # the module docstring of repro.core.compiled_mask lists.
        mask, _ = RELATION_ROWS["bound, with a constant"]
        (row,) = compile_mask(mask).rows
        assert row.checks == (
            AtomicCondition(Col(2), Comparator.EQ, Const(3)),
            AtomicCondition(Col(1), Comparator.LE, Const(3)),
            AtomicCondition(Col(0), Comparator.NE, Col(1)),
        )


# ----------------------------------------------------------------------
# interval rows: each kind of bound the lowering emits
# ----------------------------------------------------------------------

INTERVAL_STORES = {
    "strict bounds": ConstraintStore.empty()
    .constrain("x1", Comparator.GT, 1)
    .constrain("x1", Comparator.LT, 4),
    "discrete bounds": ConstraintStore.empty()
    .constrain("x1", Comparator.GT, 1, True)
    .constrain("x1", Comparator.LT, 4, True),
    "excluded point": ConstraintStore.empty()
    .constrain("x1", Comparator.NE, 2),
    "excluded point inside bounds": ConstraintStore.empty()
    .constrain("x1", Comparator.GE, 1)
    .constrain("x1", Comparator.NE, 3),
}


class TestIntervalRows:
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("name", sorted(INTERVAL_STORES))
    def test_kernel_matches_oracle(self, name, drop):
        mask = one_row_mask((x1, MetaCell.blank(True), MetaCell.blank()),
                            INTERVAL_STORES[name])
        expect = mask.apply(ALL_TRIPLES, drop_fully_masked=drop)
        # The bound decides visibility: some rows show, some don't.
        assert 0 < sum(row[0] is not MASKED for row in expect) \
            < len(ALL_TRIPLES.rows)
        tally = []
        assert compile_mask(mask).apply_rows(
            ALL_TRIPLES.rows, drop_fully_masked=drop, tally=tally
        ) == expect
        assert tally == [DeliveryStats.of(expect, 3)]


class TestDiscreteFloatBounds:
    def test_fractional_bounds_round_inward(self):
        # Found by TestCompiledMatchesInterpreted: x3 is discrete, and
        # no integer lies in (1.0, x1) for x1 <= 2.  compile_mask drops
        # the row as unsatisfiable, so the oracle must deliver nothing
        # either — also for x1 = 1.5, which leaves x3 in (1.0, 1.5):
        # the float bounds must round to integers before the interval
        # can read as empty.
        store = (ConstraintStore.empty()
                 .constrain("x1", Comparator.LE, 2, True)
                 .constrain("x3", Comparator.GT, 1.0, True)
                 .relate("x3", Comparator.LT, "x1"))
        columns = (Column("C0", REAL),)
        meta = MetaTuple(frozenset({"V"}),
                         (MetaCell.variable("x1", True),), frozenset())
        mask = Mask(columns, (MaskRow(meta, store),))
        answer = Relation(columns, [(1.5,), (2.0,)], validate=False)
        assert compile_mask(mask).rows == ()
        assert mask.apply(answer) == ((MASKED,), (MASKED,))
        assert compile_mask(mask).apply_rows(answer.rows) \
            == mask.apply(answer)


seeds = st.integers(min_value=0, max_value=10_000)


@contextmanager
def masks_never_compile():
    """Make every mask compilation in the engine fail.

    The engine then fails each request closed: a denial with ``error``
    set that delivers nothing.  Yields the patched ``compile_mask`` so
    a test can check that compilation was attempted.
    """
    failure = ReproError("mask compilation unavailable")
    with mock.patch("repro.core.engine.compile_mask",
                    side_effect=failure) as patched:
        yield patched


class TestEndToEnd:
    @SLOW
    @given(seeds, st.booleans())
    def test_engines_agree_on_workloads(self, seed, drop):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                            rows_per_relation=8)
        workload = generator.workload(spec)
        engine = AuthorizationEngine(
            workload.database, workload.catalog,
            DEFAULT_CONFIG.but(drop_fully_masked_rows=drop),
        )
        for _ in range(2):
            query = generator.query(spec, workload.database.schema)
            for user in workload.users:
                answer = engine.authorize(user, query)
                want = answer.mask.apply(answer.answer,
                                         drop_fully_masked=drop)
                assert answer.error is None
                assert answer.delivered == want, \
                    f"seed={seed} drop={drop} user={user} query={query}"
                assert answer.stats() == DeliveryStats.of(
                    want, answer.answer.arity)
