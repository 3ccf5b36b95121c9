"""Unit tests for the interval abstraction."""

import pytest

from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval


class TestConstruction:
    def test_top(self):
        top = Interval.top()
        assert top.is_top
        assert not top.is_empty()
        assert top.contains(0) and top.contains("x")

    def test_point(self):
        point = Interval.point(5)
        assert point.is_point
        assert point.the_point() == 5
        assert point.contains(5) and not point.contains(6)

    @pytest.mark.parametrize("op,value,inside,outside", [
        (Comparator.LT, 10, 9, 10),
        (Comparator.LE, 10, 10, 11),
        (Comparator.GT, 10, 11, 10),
        (Comparator.GE, 10, 10, 9),
        (Comparator.EQ, 10, 10, 9),
        (Comparator.NE, 10, 9, 10),
    ])
    def test_from_comparison(self, op, value, inside, outside):
        interval = Interval.from_comparison(op, value)
        assert interval.contains(inside)
        assert not interval.contains(outside)

    def test_string_intervals(self):
        interval = Interval.from_comparison(Comparator.GE, "Acme")
        assert interval.contains("Apex")
        assert not interval.contains("AAA")


class TestNormalization:
    def test_discrete_strict_bounds_tighten(self):
        interval = Interval(lo=3, lo_strict=True, discrete=True)
        assert interval.lo == 4 and not interval.lo_strict

    def test_dense_strict_bounds_kept(self):
        interval = Interval(lo=3.0, lo_strict=True)
        assert interval.lo == 3.0 and interval.lo_strict

    def test_excluded_endpoint_absorbs(self):
        interval = Interval(lo=3, hi=10, excluded=frozenset([3]))
        assert interval.lo == 3 and interval.lo_strict
        assert 3 not in interval.excluded  # folded into the bound
        assert not interval.contains(3)
        assert interval.contains(4)

    def test_irrelevant_exclusions_dropped(self):
        interval = Interval(lo=0, hi=5, excluded=frozenset([99]))
        assert interval.excluded == frozenset()

    def test_equal_sets_build_equal_intervals(self):
        groups = (
            (Interval(lo=3, lo_strict=True, discrete=True),
             Interval(lo=4, discrete=True)),
            # A discrete interval's float bounds round inward.
            (Interval(lo=1.5, lo_strict=True, discrete=True),
             Interval(lo=1.0, lo_strict=True, discrete=True),
             Interval(lo=2, discrete=True)),
            (Interval(lo=3.0, hi=9.0, excluded=frozenset({3.0, 99.0})),
             Interval(lo=3.0, lo_strict=True, hi=9.0)),
        )
        for first, *rest in groups:
            for other in rest:
                assert other == first
                assert hash(other) == hash(first)


class TestEmptiness:
    def test_reversed_bounds_empty(self):
        assert Interval(lo=5, hi=3).is_empty()

    def test_half_open_point_empty(self):
        assert Interval(lo=5, hi=5, lo_strict=True).is_empty()

    def test_discrete_gap_empty(self):
        # 3 < x < 4 over integers
        interval = Interval(lo=3, lo_strict=True, hi=4, hi_strict=True,
                            discrete=True)
        assert interval.is_empty()

    def test_dense_gap_not_empty(self):
        interval = Interval(lo=3, lo_strict=True, hi=4, hi_strict=True)
        assert not interval.is_empty()


class TestIntersect:
    def test_overlap(self):
        a = Interval(lo=0, hi=10)
        b = Interval(lo=5, hi=15)
        c = a.intersect(b)
        assert c.lo == 5 and c.hi == 10

    def test_tighter_strictness_wins(self):
        a = Interval(lo=5)
        b = Interval(lo=5, lo_strict=True)
        assert a.intersect(b).lo_strict

    def test_exclusions_union(self):
        a = Interval(lo=0, hi=10, excluded=frozenset([2]))
        b = Interval(lo=0, hi=10, excluded=frozenset([3]))
        c = a.intersect(b)
        assert not c.contains(2) and not c.contains(3)

    def test_disjoint_intersection_empty(self):
        assert Interval(hi=3).intersect(Interval(lo=5)).is_empty()


class TestSubset:
    def test_paper_case_conjoin(self):
        # view [300k, 600k] vs query [200k, 400k]: neither contains
        mu = Interval(lo=300_000, hi=600_000)
        lam = Interval(lo=200_000, hi=400_000)
        assert not lam.is_subset(mu)
        assert not mu.is_subset(lam)

    def test_paper_case_retain(self):
        mu = Interval(lo=300_000, hi=600_000)
        lam = Interval(lo=200_000, hi=700_000)
        assert mu.is_subset(lam)
        assert not lam.is_subset(mu)

    def test_paper_case_clear(self):
        mu = Interval(lo=300_000, hi=600_000)
        lam = Interval(lo=400_000, hi=500_000)
        assert lam.is_subset(mu)

    def test_empty_subset_of_anything(self):
        assert Interval(lo=5, hi=3).is_subset(Interval.point(7))

    def test_exclusions_block_subset(self):
        a = Interval(lo=0, hi=10)
        b = Interval(lo=0, hi=10, excluded=frozenset([5]))
        assert not a.is_subset(b)
        assert b.is_subset(a)

    def test_strictness_matters(self):
        open_ = Interval(lo=0, lo_strict=True)
        closed = Interval(lo=0)
        assert open_.is_subset(closed)
        assert not closed.is_subset(open_)


class TestDisjoint:
    def test_paper_case_discard(self):
        mu = Interval(lo=300_000, hi=600_000)
        lam = Interval(hi=300_000, hi_strict=True)
        assert mu.is_disjoint(lam)

    def test_touching_closed_not_disjoint(self):
        assert not Interval(hi=5).is_disjoint(Interval(lo=5))

    def test_touching_open_disjoint(self):
        assert Interval(hi=5, hi_strict=True).is_disjoint(Interval(lo=5))

    def test_point_vs_excluded(self):
        point = Interval.point(5)
        holed = Interval(excluded=frozenset([5]))
        assert point.is_disjoint(holed)
        assert holed.is_disjoint(point)


class TestDescribe:
    def test_point(self):
        assert Interval.point(5).describe("X") == ("X = 5",)

    def test_range(self):
        clauses = Interval(lo=300_000, hi=600_000).describe("BUDGET")
        assert clauses == ("BUDGET >= 300,000", "BUDGET <= 600,000")

    def test_strict_bounds(self):
        clauses = Interval(lo=3, lo_strict=True).describe("X")
        assert clauses == ("X > 3",)

    def test_exclusions(self):
        clauses = Interval(excluded=frozenset(["u"])).describe("A2")
        assert clauses == ("A2 != u",)

    def test_top_is_silent(self):
        assert Interval.top().describe("X") == ()
