"""Unit tests for the extended meta-algebra operators (Definitions 1-3)."""


from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.relation import Column
from repro.algebra.types import INTEGER, STRING
from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.product import meta_product
from repro.metaalgebra.projection import meta_project
from repro.metaalgebra.selection import group_conditions, meta_select
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore


def tup(*cells, views=("V",), provenance=(("V", 0),)):
    return MetaTuple(frozenset(views), tuple(cells), frozenset(provenance))


def columns(*specs):
    return tuple(
        Column(name, INTEGER if numeric else STRING)
        for name, numeric in specs
    )


STR2 = columns(("A", False), ("B", False))
MIXED = columns(("A", False), ("N", True))


class TestMetaProduct:
    def test_concatenation(self):
        left = [tup(MetaCell.blank(True), views=("L",),
                    provenance=(("L", 0),))]
        right = [tup(MetaCell.constant("c", True), views=("R",),
                     provenance=(("R", 0),))]
        table = meta_product(
            columns(("A", False), ("B", False)),
            [left, right], [1, 1], ConstraintStore.empty(), padding=False,
        )
        assert table.cardinality == 1
        row = table.rows[0]
        assert row.meta.views == frozenset({"L", "R"})
        assert row.meta.cells[1].const_value == "c"

    def test_padding_adds_one_sided_rows(self):
        left = [tup(MetaCell.blank(True), views=("L",),
                    provenance=(("L", 0),))]
        right = [tup(MetaCell.constant("c", True), views=("R",),
                     provenance=(("R", 0),))]
        table = meta_product(
            STR2, [left, right], [1, 1],
            ConstraintStore.empty(), padding=True,
        )
        # (L, R), (L, pad), (pad, R); all-pads excluded.
        assert table.cardinality == 3

    def test_all_blank_rows_dropped(self):
        left = [tup(MetaCell.blank(), views=("L",), provenance=(("L", 0),))]
        table = meta_product(
            columns(("A", False)), [left], [1],
            ConstraintStore.empty(), padding=True,
        )
        assert table.cardinality == 0

    def test_row_store_restricted_to_row_vars(self):
        store = (ConstraintStore.empty()
                 .constrain("x1", Comparator.GE, 10)
                 .constrain("zz", Comparator.LE, 5))
        left = [tup(MetaCell.variable("x1", True))]
        table = meta_product(
            columns(("N", True)), [left], [1], store, padding=False
        )
        row_store = table.rows[0].store
        assert not row_store.interval_for("x1").is_top
        assert row_store.interval_for("zz").is_top

    def test_replications_removed_provenance_aware(self):
        a = tup(MetaCell.blank(True), provenance=(("V", 0),))
        b = tup(MetaCell.blank(True), provenance=(("V", 1),))
        table = meta_product(
            columns(("A", False)), [[a, b]], [1],
            ConstraintStore.empty(), padding=False,
        )
        # identical cells, different provenance: both kept here...
        assert table.cardinality == 2
        # ...and collapsed by the provenance-blind (display) dedupe.
        assert table.deduped().cardinality == 1


class TestMetaSelectionStrict:
    """Definition 2 without refinements (BASE_MODEL_CONFIG)."""

    def test_unstarred_cell_drops_row(self):
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.blank(False)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.GE, Const(5)),
            BASE_MODEL_CONFIG,
        )
        assert out.cardinality == 0

    def test_conjoin_introduces_query_variable(self):
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.blank(True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.GE, Const(5)),
            BASE_MODEL_CONFIG,
        )
        cell = out.rows[0].meta.cells[1]
        assert cell.is_variable
        assert out.rows[0].store.interval_for(cell.var_name).contains(5)

    def test_constant_cell_statically_decided(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.constant("Acme", True), MetaCell.blank(True)),
            ConstraintStore.empty(),
        ),))
        keep = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Const("Acme")),
            BASE_MODEL_CONFIG,
        )
        drop = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Const("Apex")),
            BASE_MODEL_CONFIG,
        )
        assert keep.cardinality == 1
        assert keep.rows[0].meta.cells[0].const_value == "Acme"
        assert drop.cardinality == 0

    def test_equality_pins_variable_everywhere(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.variable("x1", True),
                MetaCell.variable("x1", True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Const("v")),
            BASE_MODEL_CONFIG,
        )
        cells = out.rows[0].meta.cells
        assert cells[0].const_value == "v"
        assert cells[1].const_value == "v"

    def test_narrowing_to_empty_drops(self):
        store = ConstraintStore.empty().constrain("x1", Comparator.LE, 3)
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.GE, Const(10)),
            BASE_MODEL_CONFIG,
        )
        assert out.cardinality == 0

    def test_blank_blank_equality_shares_fresh_var(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.blank(True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            BASE_MODEL_CONFIG,
        )
        cells = out.rows[0].meta.cells
        assert cells[0].var_name == cells[1].var_name


class TestMetaSelectionRefined:
    """The Section 4.2 four-case behaviour (DEFAULT_CONFIG)."""

    def test_clear_single_occurrence_variable(self):
        store = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 250_000
        )
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table,
            AtomicCondition(Col(1), Comparator.GT, Const(300_000)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].meta.cells[1].is_blank
        assert out.rows[0].meta.cells[1].starred

    def test_clear_refused_for_linked_variable(self):
        # x1 joins two columns; a one-column lambda must not clear it.
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x1", True)),
                ConstraintStore.empty(),
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.GE, Const(0)),
            DEFAULT_CONFIG,
        )
        # retained unmodified (RETAIN fallback), never cleared
        assert out.rows[0].meta.cells[0].var_name == "x1"
        assert out.rows[0].meta.cells[1].var_name == "x1"

    def test_clear_refused_for_store_related_variable(self):
        store = ConstraintStore.empty().relate("x1", Comparator.LT, "x2")
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x2", True)),
                store,
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.GE, Const(-10**9)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].meta.cells[0].var_name == "x1"

    def test_retain(self):
        store = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 300_000
        ).constrain("x1", Comparator.LE, 600_000)
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.GE, Const(200_000)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].meta.cells[1].var_name == "x1"
        assert out.rows[0].store == store

    def test_discard(self):
        store = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 300_000
        )
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.LT, Const(100)),
            DEFAULT_CONFIG,
        )
        assert out.cardinality == 0

    def test_conjoin_narrows_interval(self):
        store = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 300_000
        ).constrain("x1", Comparator.LE, 600_000)
        table = MaskTable(MIXED, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table, AtomicCondition(Col(1), Comparator.LE, Const(400_000)),
            DEFAULT_CONFIG,
        )
        interval = out.rows[0].store.interval_for("x1")
        assert interval.contains(350_000)
        assert not interval.contains(500_000)

    def test_same_var_equality_clears_unconstrained_pair(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.variable("x1", True),
                MetaCell.variable("x1", True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        cells = out.rows[0].meta.cells
        assert cells[0].is_blank and cells[0].starred
        assert cells[1].is_blank and cells[1].starred

    def test_same_var_equality_retains_constrained_pair(self):
        store = ConstraintStore.empty().constrain("x1", Comparator.NE, "u")
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.variable("x1", True),
                MetaCell.variable("x1", True)),
            store,
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].meta.cells[0].var_name == "x1"

    def test_same_var_ne_is_contradiction(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.variable("x1", True),
                MetaCell.variable("x1", True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.NE, Col(1)),
            DEFAULT_CONFIG,
        )
        assert out.cardinality == 0

    def test_distinct_vars_unify_on_equality(self):
        store = (ConstraintStore.empty()
                 .constrain("x1", Comparator.GE, 10)
                 .constrain("x2", Comparator.LE, 20))
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x2", True)),
                store,
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        cells = out.rows[0].meta.cells
        assert cells[0].var_name == cells[1].var_name
        interval = out.rows[0].store.interval_for(cells[0].var_name)
        assert interval.contains(15)
        assert not interval.contains(5) and not interval.contains(25)

    def test_unification_contradiction_drops(self):
        store = (ConstraintStore.empty()
                 .constrain("x1", Comparator.GE, 100)
                 .constrain("x2", Comparator.LE, 10))
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x2", True)),
                store,
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        assert out.cardinality == 0

    def test_var_var_order_adds_relation(self):
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x2", True)),
                ConstraintStore.empty(),
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.LT, Col(1)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].store.relations_of("x1")

    def test_var_var_order_implied_is_retained(self):
        store = (ConstraintStore.empty()
                 .constrain("x1", Comparator.LE, 5)
                 .constrain("x2", Comparator.GE, 10))
        table = MaskTable(
            columns(("N", True), ("M", True)),
            (MaskRow(
                tup(MetaCell.variable("x1", True),
                    MetaCell.variable("x2", True)),
                store,
            ),),
        )
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.LT, Col(1)),
            DEFAULT_CONFIG,
        )
        # mu implies lambda: no relation added
        assert not out.rows[0].store.relations_of("x1")

    def test_blank_copies_var_on_equality(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.variable("x1", True), MetaCell.blank(True)),
            ConstraintStore.empty(),
        ),))
        out = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        assert out.rows[0].meta.cells[1].var_name == "x1"

    def test_const_vs_var_equality(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.constant("c", True),
                MetaCell.variable("x1", True)),
            ConstraintStore.empty(),
        ),))
        condition = AtomicCondition(Col(0), Comparator.EQ, Col(1))
        # Refined: lambda (col1 = c, given col0 = c) implies the free
        # mu on x1 — the variable cell clears.
        refined = meta_select(table, condition, DEFAULT_CONFIG)
        cell = refined.rows[0].meta.cells[1]
        assert cell.is_blank and cell.starred
        # Base Definition 2: mu AND lambda is represented by pinning.
        base = meta_select(table, condition, BASE_MODEL_CONFIG)
        assert base.rows[0].meta.cells[1].const_value == "c"

    def test_const_const_equality(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.constant("a", True), MetaCell.constant("a", True)),
            ConstraintStore.empty(),
        ),))
        same = meta_select(
            table, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        )
        assert same.cardinality == 1
        different = MaskTable(STR2, (MaskRow(
            tup(MetaCell.constant("a", True), MetaCell.constant("b", True)),
            ConstraintStore.empty(),
        ),))
        assert meta_select(
            different, AtomicCondition(Col(0), Comparator.EQ, Col(1)),
            DEFAULT_CONFIG,
        ).cardinality == 0

    def test_interval_decision_table(self):
        # E6's stored view (budgets 300,000-600,000) probed with one
        # lambda per Section 4.2 case, plus lambda equivalent to mu.
        mu = Interval(lo=300_000, hi=600_000, discrete=True)
        row = MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            ConstraintStore({"x1": mu}),
        )
        # Outcomes for (starred, require star), (starred, no require),
        # (unstarred, require star), (unstarred, no require).
        expected = {
            (200_000, 400_000): ("conjoined", "conjoined",
                                 "dropped", "dropped"),
            (200_000, 700_000): ("unchanged", "unchanged",
                                 "unchanged", "unchanged"),
            (400_000, 500_000): ("cleared", "cleared",
                                 "dropped", "cleared"),
            (None, 299_999): ("dropped", "dropped", "dropped", "dropped"),
            (300_000, 600_000): ("cleared", "cleared",
                                 "cleared", "cleared"),
        }
        observed = {}
        for lo, hi in expected:
            conditions = [
                AtomicCondition(Col(1), op, Const(bound))
                for op, bound in ((Comparator.GE, lo), (Comparator.LE, hi))
                if bound is not None
            ]
            (step,) = group_conditions(conditions, (False, True))
            outcomes = []
            for starred in (True, False):
                probed = MaskRow(row.meta.replace_cell(
                    1, MetaCell.variable("x1", starred)), row.store)
                for require_star in (True, False):
                    config = DEFAULT_CONFIG.but(
                        require_star_for_selection=require_star)
                    out = meta_select(
                        MaskTable(MIXED, (probed,)), step, config)
                    outcomes.append(
                        _outcome(out, probed, mu.intersect(step.interval)))
            observed[lo, hi] = tuple(outcomes)
        assert observed == expected


def _outcome(out, row, conjoined):
    """How one selection step treated the single ``row``."""
    if out.cardinality == 0:
        return "dropped"
    (got,) = out.rows
    if got == row:
        return "unchanged"
    cleared = row.meta.replace_cell(1, row.meta.cells[1].cleared())
    if got.meta == cleared and got.store == row.store:
        return "cleared"
    if got.meta == row.meta and got.store.interval_for("x1") == conjoined:
        return "conjoined"
    return f"unexpected {got.meta} {got.store!r}"


class TestMetaProjection:
    def test_blank_removed_keeps_row(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.blank()),
            ConstraintStore.empty(),
        ),))
        out = meta_project(table, (0,))
        assert out.cardinality == 1
        assert out.labels() == ("A",)

    def test_starred_blank_removed_keeps_row(self):
        # Definition 3's footnote: blank "possibly suffixed with *".
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.blank(True)),
            ConstraintStore.empty(),
        ),))
        assert meta_project(table, (0,)).cardinality == 1

    def test_variable_removed_drops_row(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.variable("x1", True)),
            ConstraintStore.empty(),
        ),))
        assert meta_project(table, (0,)).cardinality == 0

    def test_constant_removed_drops_row(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.constant("Acme", True)),
            ConstraintStore.empty(),
        ),))
        assert meta_project(table, (0,)).cardinality == 0

    def test_reordering_projection(self):
        table = MaskTable(STR2, (MaskRow(
            tup(MetaCell.blank(True), MetaCell.constant("c", True)),
            ConstraintStore.empty(),
        ),))
        out = meta_project(table, (1, 0))
        assert out.labels() == ("B", "A")
        assert out.rows[0].meta.cells[0].const_value == "c"
