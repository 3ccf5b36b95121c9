"""Property tests for the canonical plan key.

Stability: the key is invariant under conjunct reordering, comparison
flipping, printer/parser round-trips, and renumbering of same-relation
occurrences.  Injectivity: plans that differ in their projection (or
their conditions) never share a key.  Semantic link: whenever two of
the generated paraphrases share a key, authorizing them delivers the
same answer — the property the derivation cache relies on.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calculus.ast import AttrRef, Condition, ConstTerm, Query
from repro.calculus.to_algebra import compile_query
from repro.lang.parser import parse_statement
from repro.lang.printer import format_statement
from repro.metaalgebra.canonical import canonical_plan_key
from repro.predicates.comparators import Comparator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "40"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def make_query(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=2,
                        max_view_relations=2)
    schema = generator.schema(spec)
    return generator.query(spec, schema), schema


def key_of(query, schema):
    return canonical_plan_key(compile_query(query, schema), schema)


def flip(condition: Condition) -> Condition:
    return Condition(condition.rhs, condition.op.flipped(), condition.lhs)


class TestStability:
    @SLOW
    @given(seeds, seeds)
    def test_conjunct_reordering_and_flipping(self, seed, shuffle_seed):
        query, schema = make_query(seed)
        rng = random.Random(shuffle_seed)
        conditions = list(query.conditions)
        rng.shuffle(conditions)
        conditions = [
            flip(c) if rng.random() < 0.5 and isinstance(c.lhs, AttrRef)
            else c
            for c in conditions
        ]
        paraphrase = Query(query.target, tuple(conditions))
        assert key_of(query, schema) == key_of(paraphrase, schema), (
            f"seed={seed} shuffle={shuffle_seed}"
        )

    @SLOW
    @given(seeds)
    def test_printer_parser_round_trip(self, seed):
        query, schema = make_query(seed)
        reparsed = parse_statement(format_statement(query))
        assert isinstance(reparsed, Query)
        assert key_of(query, schema) == key_of(reparsed, schema), (
            f"seed={seed}: {format_statement(query)}"
        )

    @SLOW
    @given(seeds)
    def test_occurrence_relabeling(self, seed):
        query, schema = make_query(seed)
        doubled = {
            ref.relation
            for ref in query.attr_refs() if ref.occurrence > 1
        }
        if not doubled:
            return  # no self-join in this example; vacuous

        def swap(ref: AttrRef) -> AttrRef:
            if ref.relation in doubled and ref.occurrence in (1, 2):
                return AttrRef(ref.relation, ref.attribute,
                               3 - ref.occurrence)
            return ref

        def swap_term(term):
            return swap(term) if isinstance(term, AttrRef) else term

        relabeled = Query(
            tuple(swap(t) for t in query.target),
            tuple(
                Condition(swap_term(c.lhs), c.op, swap_term(c.rhs))
                for c in query.conditions
            ),
        )
        assert key_of(query, schema) == key_of(relabeled, schema), (
            f"seed={seed}"
        )


class TestInjectivity:
    @SLOW
    @given(seeds)
    def test_different_projections_differ(self, seed):
        query, schema = make_query(seed)
        if len(query.target) < 2:
            return
        key = key_of(query, schema)
        reversed_targets = Query(tuple(reversed(query.target)),
                                 query.conditions)
        if reversed_targets.target != query.target:
            assert key != key_of(reversed_targets, schema), f"seed={seed}"
        truncated = Query(query.target[:-1], query.conditions)
        assert key != key_of(truncated, schema), f"seed={seed}"

    @SLOW
    @given(seeds)
    def test_different_conditions_differ(self, seed):
        query, schema = make_query(seed)
        ref = query.target[0]
        attribute = next(
            a for a in schema.get(ref.relation).attributes
            if a.name == ref.attribute
        )
        if attribute.domain.name == "string":
            extra = Condition(ref, Comparator.NE,
                              ConstTerm("zz-never-generated"))
        else:
            extra = Condition(ref, Comparator.LE, ConstTerm(10**9))
        widened = Query(query.target, query.conditions + (extra,))
        assert key_of(query, schema) != key_of(widened, schema), (
            f"seed={seed}"
        )


class TestSemanticLink:
    @SLOW
    @given(seeds, seeds)
    def test_shared_key_implies_identical_delivery(self, seed,
                                                   shuffle_seed):
        """Paraphrases that share a key must authorize identically."""
        from repro.core.engine import AuthorizationEngine

        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3, views=3, users=1,
                            rows_per_relation=6, max_view_relations=2)
        workload = generator.workload(spec)
        engine = AuthorizationEngine(workload.database, workload.catalog)
        user = workload.users[0]
        query = generator.query(spec, workload.database.schema)

        rng = random.Random(shuffle_seed)
        conditions = list(query.conditions)
        rng.shuffle(conditions)
        paraphrase = Query(query.target, tuple(conditions))

        schema = workload.database.schema
        assert key_of(query, schema) == key_of(paraphrase, schema)
        a = engine.authorize(user, query)
        b = engine.authorize(user, paraphrase)
        assert b.cache_hit or not engine.config.derivation_cache_size
        assert a.delivered == b.delivered
        assert tuple(map(str, a.permits)) == tuple(map(str, b.permits))
