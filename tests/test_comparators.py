# soundlint: disable-file=SL006 -- exercises the algebra/evaluation layer directly, below the authorization boundary; nothing is user-delivered
"""Unit tests for repro.predicates.comparators."""

import pytest

from repro.errors import ParseError
from repro.predicates.comparators import (
    Comparator,
    comparator_from_spelling,
)

ALL = list(Comparator)


class TestEvaluate:
    def test_lt(self):
        assert Comparator.LT.evaluate(1, 2)
        assert not Comparator.LT.evaluate(2, 2)

    def test_le_ge(self):
        assert Comparator.LE.evaluate(2, 2)
        assert Comparator.GE.evaluate(2, 2)
        assert not Comparator.GE.evaluate(1, 2)

    def test_eq_ne(self):
        assert Comparator.EQ.evaluate("a", "a")
        assert Comparator.NE.evaluate("a", "b")

    def test_strings_compare_lexicographically(self):
        assert Comparator.LT.evaluate("Acme", "Apex")


class TestAlgebra:
    @pytest.mark.parametrize("op", ALL)
    def test_flip_is_involution(self, op):
        assert op.flipped().flipped() is op

    @pytest.mark.parametrize("op", ALL)
    def test_negate_is_involution(self, op):
        assert op.negated().negated() is op

    @pytest.mark.parametrize("op", ALL)
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (3, 2)])
    def test_flip_semantics(self, op, a, b):
        assert op.evaluate(a, b) == op.flipped().evaluate(b, a)

    @pytest.mark.parametrize("op", ALL)
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (3, 2)])
    def test_function_is_what_evaluate_applies(self, op, a, b):
        assert op.function(a, b) == op.evaluate(a, b)
        assert op.function.__module__ in ("operator", "_operator")

    @pytest.mark.parametrize("op", ALL)
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (3, 2)])
    def test_negate_semantics(self, op, a, b):
        assert op.evaluate(a, b) != op.negated().evaluate(a, b)

    def test_classification(self):
        assert Comparator.EQ.is_equality
        assert not Comparator.NE.is_equality
        assert Comparator.LT.is_order
        assert not Comparator.EQ.is_order
        assert not Comparator.NE.is_order


class TestSpellings:
    @pytest.mark.parametrize("text,expected", [
        ("<", Comparator.LT),
        ("<=", Comparator.LE),
        ("≤", Comparator.LE),
        (">", Comparator.GT),
        (">=", Comparator.GE),
        ("≥", Comparator.GE),
        ("=", Comparator.EQ),
        ("==", Comparator.EQ),
        ("!=", Comparator.NE),
        ("<>", Comparator.NE),
        ("≠", Comparator.NE),
    ])
    def test_known_spellings(self, text, expected):
        assert comparator_from_spelling(text) is expected

    def test_unknown_spelling(self):
        with pytest.raises(ParseError):
            comparator_from_spelling("~=")

    def test_str(self):
        assert str(Comparator.GE) == ">="
