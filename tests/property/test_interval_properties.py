# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests: the interval abstraction against brute force.

Intervals are the decision core of the four-case refinement; a wrong
``is_subset`` would mis-clear a field and break soundness, so the
decision procedures are checked exhaustively against enumeration over a
small integer universe.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval

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


class TestAgainstBruteForce:
    @given(intervals())
    def test_emptiness_is_conservative(self, interval):
        # is_empty may only say True when no universe point is inside
        # (for integer-built intervals the universe is representative
        # when bounds lie inside it; conservativeness is what matters).
        if interval.is_empty():
            assert extension(interval) == set()

    @given(intervals(), intervals())
    def test_subset_is_conservative(self, a, b):
        if a.is_subset(b):
            assert extension(a) <= extension(b)

    @given(intervals(), intervals())
    def test_disjoint_is_conservative(self, a, b):
        if a.is_disjoint(b):
            assert extension(a) & extension(b) == set()

    @given(intervals(), intervals())
    def test_intersection_is_exact_on_universe(self, a, b):
        assert extension(a.intersect(b)) == extension(a) & extension(b)

    @given(intervals())
    def test_normalization_preserves_extension(self, interval):
        assert extension(interval.normalized()) == extension(interval)

    @given(intervals())
    def test_self_subset(self, interval):
        assert interval.is_subset(interval)

    @given(intervals(), intervals(), intervals())
    def test_subset_transitive(self, a, b, c):
        if a.is_subset(b) and b.is_subset(c):
            assert extension(a) <= extension(c)

    @given(intervals())
    def test_point_detection(self, interval):
        if interval.is_point:
            value = interval.the_point()
            assert interval.contains(value)
            inside = extension(interval)
            assert inside <= {value}

    @given(intervals())
    def test_describe_roundtrip(self, interval):
        """The rendered clauses must denote the same extension."""
        clauses = interval.normalized().describe("x")
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
