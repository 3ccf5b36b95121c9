# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests: constraint-store decisions against brute force.

The store's ``is_definitely_unsat`` must never claim unsatisfiability
of a satisfiable constraint set (that would prune a legitimate mask
row), and ``satisfied_by`` must agree with direct evaluation on full
bindings.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore

VARS = ("x", "y", "z")
VALUES = list(range(0, 7))

_interval_constraint = st.tuples(
    st.sampled_from(VARS),
    st.sampled_from(list(Comparator)),
    st.integers(min_value=0, max_value=6),
)
_relation_constraint = st.tuples(
    st.sampled_from(VARS),
    st.sampled_from([c for c in Comparator if c is not Comparator.EQ]),
    st.sampled_from(VARS),
)


@st.composite
def stores(draw):
    store = ConstraintStore.empty()
    for var, op, value in draw(
        st.lists(_interval_constraint, max_size=4)
    ):
        store = store.constrain(var, op, value, discrete=True)
    for left, op, right in draw(
        st.lists(_relation_constraint, max_size=3)
    ):
        if left != right:
            store = store.relate(left, op, right)
    return store


def brute_force_satisfiable(store):
    for assignment in itertools.product(VALUES, repeat=len(VARS)):
        binding = dict(zip(VARS, assignment))
        if _holds(store, binding):
            return True
    return False


def _holds(store, binding):
    for var, value in binding.items():
        if not store.interval_for(var).contains(value):
            return False
    for relation in store.relations():
        if not relation.op.evaluate(
            binding[relation.left], binding[relation.right]
        ):
            return False
    return True


class TestConservativeness:
    @settings(max_examples=300)
    @given(stores())
    def test_unsat_claims_are_correct(self, store):
        """is_definitely_unsat=True implies no assignment exists.

        (Bounds are drawn within the brute-force universe, so the
        enumeration is decisive.)
        """
        if store.is_definitely_unsat():
            assert not brute_force_satisfiable(store)

    @settings(max_examples=300)
    @given(stores(), st.tuples(*[st.integers(0, 6)] * 3))
    def test_satisfied_by_agrees_on_full_bindings(self, store, values):
        binding = dict(zip(VARS, values))
        assert store.satisfied_by(binding) == _holds(store, binding)

    @settings(max_examples=200)
    @given(stores(), st.sampled_from(VARS), st.integers(0, 6))
    def test_substitute_preserves_satisfiability_semantics(
            self, store, var, value):
        """Substituting a concrete value never invents satisfiability:
        if the substituted store is satisfiable by brute force over the
        remaining variables, the original accepted some binding with
        var=value."""
        substituted = store.substitute(var, value)
        if substituted.is_definitely_unsat():
            # No binding with var=value may satisfy the original.
            others = [v for v in VARS if v != var]
            for assignment in itertools.product(VALUES,
                                                repeat=len(others)):
                binding = dict(zip(others, assignment))
                binding[var] = value
                assert not _holds(store, binding)

    @settings(max_examples=200)
    @given(stores(), stores())
    def test_merge_is_conjunction(self, a, b):
        merged = a.merge(b)
        for assignment in itertools.product(VALUES, repeat=len(VARS)):
            binding = dict(zip(VARS, assignment))
            assert _holds(merged, binding) == (
                _holds(a, binding) and _holds(b, binding)
            )

    @settings(max_examples=200)
    @given(stores())
    def test_restrict_closure_never_tightens(self, store):
        """Restriction may drop constraints but never add any."""
        restricted = store.restrict_closure({"x"})
        for assignment in itertools.product(VALUES, repeat=len(VARS)):
            binding = dict(zip(VARS, assignment))
            if _holds(store, binding):
                assert _holds(restricted, binding)
