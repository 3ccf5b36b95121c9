"""Differential property tests: the columnar kernel ≡ the oracle.

The columnar data plane must change *nothing* observable:

* ``apply_mask_columnar`` must be byte-identical to the interpreted
  oracle ``Mask.apply`` — same cells, same row order, same
  ``drop_fully_masked`` behaviour (soundlint SL005 pins this suite to
  that pair);
* the :class:`Relation` columnar view (``column_data`` /
  ``from_columns`` / ``column_values``) must round-trip rows exactly;
* ``Interval.membership`` (the hoisted closure the kernel evaluates
  per column) must agree with ``Interval.contains`` pointwise;
* end to end, the engine's columnar delivery must equal ``Mask.apply``
  of the same mask over the same answer.
"""

from hypothesis import given, strategies as st

from repro.algebra.relation import Column, Relation
from repro.algebra.types import INTEGER
from repro.config import DEFAULT_CONFIG
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
from repro.core.engine import AuthorizationEngine
from repro.predicates.intervals import Interval
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

from tests.property.test_compiled_mask import (
    SLOW,
    VALUES,
    masks_and_answers,
    seeds,
)


class TestColumnarKernelMatchesOracles:
    @SLOW
    @given(masks_and_answers(), st.booleans())
    def test_columnar_matches_interpreted_apply(self, case, drop):
        mask, answer = case
        compiled = compile_mask(mask)
        assert apply_mask_columnar(
            compiled, answer, drop_fully_masked=drop,
        ) == mask.apply(answer, drop_fully_masked=drop)

    @SLOW
    @given(masks_and_answers())
    def test_columnar_application_is_pure(self, case):
        mask, answer = case
        compiled = compile_mask(mask)
        first = apply_mask_columnar(compiled, answer)
        assert apply_mask_columnar(compiled, answer) == first
        assert apply_mask_columnar(compile_mask(mask), answer) == first


class TestRelationColumnarView:
    @SLOW
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_column_data_roundtrip(self, arity, data):
        columns = tuple(Column(f"C{i}", INTEGER) for i in range(arity))
        rows = data.draw(st.lists(
            st.tuples(*[VALUES] * arity), max_size=8,
        ))
        relation = Relation(columns, rows, validate=False)
        cols = relation.column_data()
        assert len(cols) == arity
        assert all(len(col) == len(relation.rows) for col in cols)
        rebuilt = Relation.from_columns(columns, cols)
        # Exact row order, not just set equality: the columnar view is
        # a transpose, never a reordering.
        assert rebuilt.rows == relation.rows
        for i in range(arity):
            assert relation.column_values(i) == cols[i]

    def test_zero_column_relation(self):
        relation = Relation((), [()], validate=False)
        assert relation.column_data() == ()
        assert Relation.from_columns((), ()).rows == ()


class TestMembershipMatchesContains:
    bounds = st.one_of(st.none(), VALUES)

    @SLOW
    @given(bounds, st.booleans(), bounds, st.booleans(),
           st.frozensets(VALUES, max_size=3), st.booleans(), VALUES)
    def test_pointwise_equal(self, lo, lo_strict, hi, hi_strict,
                             excluded, discrete, probe):
        interval = Interval(lo=lo, lo_strict=lo_strict, hi=hi,
                            hi_strict=hi_strict, excluded=excluded,
                            discrete=discrete)
        assert interval.membership()(probe) == interval.contains(probe)



class TestEndToEnd:
    @SLOW
    @given(seeds, st.booleans())
    def test_engines_agree_on_workloads(self, seed, drop):
        # The engine masks with the columnar kernel; the interpreted
        # oracle, applied row by row to the same mask and answer, must
        # deliver the same rows in the same order.
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
                assert answer.delivered == answer.mask.apply(
                    answer.answer, drop_fully_masked=drop,
                ), f"seed={seed} drop={drop} user={user} query={query}"
