"""Unit tests for repro.algebra.relation."""

import pytest

from repro.algebra.relation import Column, Relation, empty_like
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.errors import EvaluationError, TypeMismatchError


@pytest.fixture
def people():
    schema = make_schema(
        "PEOPLE", [("NAME", STRING), ("AGE", INTEGER)], key=["NAME"]
    )
    return Relation.from_schema(
        schema, [("ann", 30), ("bob", 41), ("cyd", 30)]
    )


@pytest.fixture
def pets():
    schema = make_schema("PETS", [("PET", STRING)])
    return Relation.from_schema(schema, [("cat",), ("dog",)])


class TestConstruction:
    def test_from_schema_sets_sources(self, people):
        assert people.columns[0].source == ("PEOPLE", "NAME")

    def test_set_semantics_dedupe(self):
        schema = make_schema("R", [("A", STRING)])
        relation = Relation.from_schema(schema, [("x",), ("x",), ("y",)])
        assert relation.cardinality == 2

    def test_row_order_is_first_seen(self):
        schema = make_schema("R", [("A", STRING)])
        relation = Relation.from_schema(schema, [("y",), ("x",), ("y",)])
        assert relation.rows == (("y",), ("x",))

    def test_arity_validation(self):
        schema = make_schema("R", [("A", STRING)])
        with pytest.raises(TypeMismatchError):
            Relation.from_schema(schema, [("x", "extra")])

    def test_domain_validation(self):
        schema = make_schema("R", [("A", INTEGER)])
        with pytest.raises(TypeMismatchError):
            Relation.from_schema(schema, [("not-int",)])

    def test_membership(self, people):
        assert ("ann", 30) in people
        assert ("ann", 31) not in people


class TestOperators:
    def test_product(self, people, pets):
        product = people.product(pets)
        assert product.arity == 3
        assert product.cardinality == 6
        assert ("ann", 30, "cat") in product

    def test_select(self, people):
        thirty = people.select(lambda row: row[1] == 30)
        assert set(thirty.rows) == {("ann", 30), ("cyd", 30)}

    def test_select_keeps_columns(self, people):
        assert people.select(lambda _: False).labels() == ("NAME", "AGE")

    def test_project(self, people):
        ages = people.project([1])
        assert ages.labels() == ("AGE",)
        # projection is set-semantics: duplicate 30s collapse
        assert set(ages.rows) == {(30,), (41,)}
        assert ages.cardinality == 2

    def test_project_reorder_and_repeat(self, people):
        swapped = people.project([1, 0, 1])
        assert swapped.labels() == ("AGE", "NAME", "AGE")
        assert (30, "ann", 30) in swapped

    def test_project_out_of_range(self, people):
        with pytest.raises(EvaluationError):
            people.project([5])

    def test_rename(self, people):
        renamed = people.rename(["N", "A"])
        assert renamed.labels() == ("N", "A")
        assert renamed.same_rows(people)

    def test_rename_arity_mismatch(self, people):
        with pytest.raises(EvaluationError):
            people.rename(["ONLY_ONE"])

    def test_union(self, people):
        other = Relation(people.columns, [("dee", 22), ("ann", 30)])
        combined = people.union(other)
        assert combined.cardinality == 4

    def test_difference(self, people):
        other = Relation(people.columns, [("ann", 30)])
        remaining = people.difference(other)
        assert set(remaining.rows) == {("bob", 41), ("cyd", 30)}

    def test_intersection(self, people):
        other = Relation(people.columns, [("ann", 30), ("zed", 1)])
        common = people.intersection(other)
        assert set(common.rows) == {("ann", 30)}

    def test_union_arity_mismatch(self, people, pets):
        with pytest.raises(EvaluationError):
            people.union(pets)


class TestEquality:
    def test_equal_ignores_row_order(self, people):
        shuffled = Relation(people.columns, reversed(people.rows))
        assert people == shuffled

    def test_same_rows_ignores_labels(self, people):
        renamed = people.rename(["X", "Y"])
        assert people.same_rows(renamed)
        assert people != renamed  # labels differ

    def test_index_of_label(self, people):
        assert people.index_of("AGE") == 1
        with pytest.raises(EvaluationError):
            people.index_of("NOPE")

    def test_empty_like(self, people):
        empty = empty_like(people)
        assert empty.cardinality == 0
        assert empty.labels() == people.labels()

    def test_column_renamed_preserves_source(self):
        column = Column("A", STRING, ("R", "A"))
        assert column.renamed("B").source == ("R", "A")
