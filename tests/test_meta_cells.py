"""Unit tests for meta-cells and meta-tuples."""

from repro.algebra.relation import Column
from repro.algebra.types import STRING
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple, blank_tuple, canonical_key
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore


def mt(*cells, views=("V",), provenance=()):
    return MetaTuple(
        views=frozenset(views),
        cells=tuple(cells),
        provenance=frozenset(provenance),
    )


class TestMetaCell:
    def test_constructors(self):
        assert MetaCell.blank().is_blank
        assert MetaCell.constant("Acme").const_value == "Acme"
        assert MetaCell.variable("x1").var_name == "x1"

    def test_render_paper_notation(self):
        assert MetaCell.blank(starred=True).render() == "*"
        assert MetaCell.constant("Acme", starred=True).render() == "Acme*"
        assert MetaCell.variable("x1", starred=True).render() == "x1*"
        assert MetaCell.blank().render(".") == "."

    def test_large_numbers_render_with_separators(self):
        assert MetaCell.constant(250_000).render() == "250,000"

    def test_cleared_keeps_star(self):
        cell = MetaCell.variable("x1", starred=True).cleared()
        assert cell.is_blank and cell.starred

    def test_with_star(self):
        assert MetaCell.blank().with_star().starred


class TestMetaTuple:
    def test_variables_in_order(self):
        tuple_ = mt(
            MetaCell.variable("x2"), MetaCell.blank(),
            MetaCell.variable("x1"), MetaCell.variable("x2"),
        )
        assert tuple_.variables() == ("x2", "x1")

    def test_var_positions(self):
        tuple_ = mt(
            MetaCell.variable("x1"), MetaCell.blank(),
            MetaCell.variable("x1"),
        )
        assert tuple_.var_positions("x1") == (0, 2)

    def test_starred_positions(self):
        tuple_ = mt(
            MetaCell.blank(True), MetaCell.blank(), MetaCell.blank(True)
        )
        assert tuple_.starred_positions() == (0, 2)
        assert tuple_.has_stars

    def test_substitute_var_preserves_stars(self):
        tuple_ = mt(
            MetaCell.variable("x1", starred=True),
            MetaCell.variable("x1"),
        )
        pinned = tuple_.substitute_var("x1", MetaCell.constant("v"))
        assert pinned.cells[0].const_value == "v"
        assert pinned.cells[0].starred
        assert not pinned.cells[1].starred

    def test_rename_var(self):
        tuple_ = mt(MetaCell.variable("x1"), MetaCell.variable("x2"))
        renamed = tuple_.rename_var("x2", "x1")
        assert renamed.variables() == ("x1",)

    def test_concat_merges_views_and_provenance(self):
        a = mt(MetaCell.blank(True), views=("A",), provenance=[("A", 0)])
        b = mt(MetaCell.blank(), views=("B",), provenance=[("B", 0)])
        combined = a.concat(b)
        assert combined.views == frozenset({"A", "B"})
        assert combined.provenance == frozenset({("A", 0), ("B", 0)})
        assert combined.arity == 2

    def test_project(self):
        tuple_ = mt(
            MetaCell.blank(True), MetaCell.constant("c"), MetaCell.blank()
        )
        projected = tuple_.project((2, 0))
        assert projected.cells[0].is_blank
        assert projected.cells[1].starred

    def test_blank_tuple(self):
        pad = blank_tuple(3)
        assert pad.is_all_blank and not pad.has_stars
        assert pad.provenance == frozenset()

    def test_view_label_sorted(self):
        tuple_ = mt(MetaCell.blank(), views=("SAE", "EST"))
        assert tuple_.view_label() == "EST, SAE"


class TestCanonicalKey:
    def test_alpha_renaming_invariance(self):
        a = mt(MetaCell.variable("x1"), MetaCell.variable("x1"))
        b = mt(MetaCell.variable("x9"), MetaCell.variable("x9"))
        assert canonical_key(a) == canonical_key(b)

    def test_variable_structure_matters(self):
        a = mt(MetaCell.variable("x1"), MetaCell.variable("x1"))
        b = mt(MetaCell.variable("x1"), MetaCell.variable("x2"))
        assert canonical_key(a) != canonical_key(b)

    def test_star_matters(self):
        a = mt(MetaCell.blank(True))
        b = mt(MetaCell.blank(False))
        assert canonical_key(a) != canonical_key(b)

    def test_store_constraints_matter(self):
        tuple_ = mt(MetaCell.variable("x1"))
        free = ConstraintStore.empty()
        bounded = free.constrain("x1", Comparator.GE, 10)
        assert canonical_key(tuple_, free) != canonical_key(tuple_, bounded)

    def test_store_constraints_alpha_invariant(self):
        a = mt(MetaCell.variable("x1"))
        b = mt(MetaCell.variable("x7"))
        store_a = ConstraintStore.empty().constrain("x1", Comparator.GE, 10)
        store_b = ConstraintStore.empty().constrain("x7", Comparator.GE, 10)
        assert canonical_key(a, store_a) == canonical_key(b, store_b)

    def test_provenance_key_optional(self):
        a = mt(MetaCell.blank(True), provenance=[("V", 0)])
        b = mt(MetaCell.blank(True), provenance=[("V", 1)])
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(a, include_provenance=True) != \
            canonical_key(b, include_provenance=True)

    def test_normal_form_bounds_share_a_key(self):
        tuple_ = mt(MetaCell.variable("x1"))
        above_3 = ConstraintStore.empty().constrain(
            "x1", Comparator.GT, 3, discrete=True)
        from_4 = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 4, discrete=True)
        assert canonical_key(tuple_, above_3) == \
            canonical_key(tuple_, from_4)

    def test_discrete_flag_not_in_key(self):
        tuple_ = mt(MetaCell.variable("x1"))
        discrete = ConstraintStore.empty().constrain(
            "x1", Comparator.GE, 4, discrete=True)
        dense = ConstraintStore.empty().constrain("x1", Comparator.GE, 4)
        assert canonical_key(tuple_, discrete) == \
            canonical_key(tuple_, dense)

    def test_dedupe(self):
        store = ConstraintStore.empty()
        a = mt(MetaCell.variable("x1"), MetaCell.variable("x1"))
        b = mt(MetaCell.variable("x2"), MetaCell.variable("x2"))
        c = mt(MetaCell.variable("x1"), MetaCell.variable("x2"))
        table = MaskTable(
            (Column("A", STRING), Column("B", STRING)),
            (MaskRow(a, store), MaskRow(b, store), MaskRow(c, store)),
        )
        kept = table.deduped()
        assert len(kept) == 2
