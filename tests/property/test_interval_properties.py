# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests: the interval abstraction against brute force.

Intervals are the decision core of the four-case refinement; a wrong
``is_subset`` would mis-clear a field and break soundness, so the
decision procedures are checked exhaustively against enumeration over a
small integer universe.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "100"))

SETTINGS = settings(max_examples=MAX_EXAMPLES)

UNIVERSE = list(range(-3, 18))

_comparison = st.tuples(
    st.sampled_from(list(Comparator)),
    st.integers(min_value=-2, max_value=16),
)


@st.composite
def intervals(draw):
    """An interval built from 1-3 random comparisons (conjoined)."""
    comparisons = draw(st.lists(_comparison, min_size=1, max_size=3))
    discrete = draw(st.booleans())
    interval = Interval.top(discrete)
    for op, value in comparisons:
        interval = interval.intersect(
            Interval.from_comparison(op, value, discrete)
        )
    return interval


def extension(interval):
    return {v for v in UNIVERSE if interval.contains(v)}


_bound = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=16),
    st.sampled_from((0.5, 1.0, 1.5)),
)


@st.composite
def raw_fields(draw):
    """Interval constructor arguments, not necessarily in normal form."""
    return {
        "lo": draw(_bound),
        "lo_strict": draw(st.booleans()),
        "hi": draw(_bound),
        "hi_strict": draw(st.booleans()),
        "excluded": frozenset(draw(st.lists(
            _bound.filter(lambda v: v is not None), max_size=3))),
        "discrete": draw(st.booleans()),
    }


def raw_extension(fields):
    """The universe points the raw arguments admit, read off directly."""
    lo, hi = fields["lo"], fields["hi"]

    def admits(v):
        if lo is not None and (v <= lo if fields["lo_strict"] else v < lo):
            return False
        if hi is not None and (v >= hi if fields["hi_strict"] else v > hi):
            return False
        return v not in fields["excluded"]

    return {v for v in UNIVERSE if admits(v)}


class TestAgainstBruteForce:
    @SETTINGS
    @given(intervals())
    def test_emptiness_is_conservative(self, interval):
        # is_empty may only say True when no universe point is inside
        # (for integer-built intervals the universe is representative
        # when bounds lie inside it; conservativeness is what matters).
        if interval.is_empty():
            assert extension(interval) == set()

    @SETTINGS
    @given(intervals(), intervals())
    def test_subset_is_conservative(self, a, b):
        if a.is_subset(b):
            assert extension(a) <= extension(b)

    @SETTINGS
    @given(intervals(), intervals())
    def test_disjoint_is_conservative(self, a, b):
        if a.is_disjoint(b):
            assert extension(a) & extension(b) == set()

    @SETTINGS
    @given(intervals(), intervals())
    def test_intersection_is_exact_on_universe(self, a, b):
        assert extension(a.intersect(b)) == extension(a) & extension(b)

    @SETTINGS
    @given(raw_fields())
    def test_construction_preserves_extension(self, fields):
        assert extension(Interval(**fields)) == raw_extension(fields)

    @SETTINGS
    @given(intervals(), st.sampled_from(list(Comparator)), intervals())
    def test_forces_is_conservative(self, a, op, b):
        if a.forces(op, b):
            assert all(op.function(x, y)
                       for x in extension(a) for y in extension(b))

    @SETTINGS
    @given(intervals())
    def test_self_subset(self, interval):
        assert interval.is_subset(interval)

    @SETTINGS
    @given(intervals(), intervals(), intervals())
    def test_subset_transitive(self, a, b, c):
        if a.is_subset(b) and b.is_subset(c):
            assert extension(a) <= extension(c)

    @SETTINGS
    @given(intervals())
    def test_point_detection(self, interval):
        if interval.is_point:
            value = interval.the_point()
            assert interval.contains(value)
            inside = extension(interval)
            assert inside <= {value}

    @SETTINGS
    @given(intervals())
    def test_describe_roundtrip(self, interval):
        """The rendered clauses must denote the same extension."""
        clauses = interval.describe("x")
        survivors = set(UNIVERSE)
        for clause in clauses:
            _, op_text, bound_text = clause.split(" ", 2)
            bound = int(bound_text.replace(",", ""))
            op = {
                ">": Comparator.GT, ">=": Comparator.GE,
                "<": Comparator.LT, "<=": Comparator.LE,
                "=": Comparator.EQ, "!=": Comparator.NE,
            }[op_text]
            survivors = {v for v in survivors if op.evaluate(v, bound)}
        assert survivors == extension(interval)
