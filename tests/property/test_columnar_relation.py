"""Differential property tests: the columnar kernel ≡ the oracle.

The columnar data plane must change *nothing* observable:

* ``apply_mask_columnar`` must be byte-identical to the interpreted
  oracle ``Mask.apply`` — same cells, same row order, same
  ``drop_fully_masked`` behaviour (soundlint SL005 pins this suite to
  that pair), zero-column answers included;
* ``Interval.comparisons`` (the lowering of an interval constraint
  that the kernel runs per column and SQL prints) must agree with
  ``Interval.contains`` pointwise, over strict, discrete and excluded
  bounds, and ``compile_mask`` must lower a constrained variable to
  exactly those comparisons;
* end to end, the engine's columnar delivery must equal ``Mask.apply``
  of the same mask over the same answer.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.relation import Column, Relation
from repro.algebra.types import INTEGER
from repro.config import DEFAULT_CONFIG
from repro.core.answer import DeliveryStats
from repro.core.compiled_mask import apply_mask_columnar, compile_mask
from repro.core.engine import AuthorizationEngine
from repro.core.mask import Mask
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.table import MaskRow
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.property.test_compiled_mask import (
    SLOW,
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

    def test_zero_column_answer(self):
        # A zero-column row has no visible cell: delivered as () unless
        # dropping, and counted as a full row, as the oracle does.
        mask = Mask((), ())
        answer = Relation((), [()], validate=False)
        for drop, expect in ((False, ((),)), (True, ())):
            tally = []
            delivered = apply_mask_columnar(compile_mask(mask), answer,
                                            drop_fully_masked=drop,
                                            tally=tally)
            assert delivered == mask.apply(answer, drop_fully_masked=drop)
            assert delivered == expect
            assert tally == [DeliveryStats.of(delivered, 0)]


class TestIntervalLowering:
    # Bounds and probes mix ints and floats, so discrete tightening
    # meets float probes between integer bounds; strings order too.
    numbers = st.sampled_from((0, 1, 2, 3, 4, 0.5, 1.5, 2.5, 3.0))
    words = st.sampled_from(("a", "b", "c", "d"))

    @SLOW
    @given(st.data(), st.booleans(), st.booleans(), st.booleans())
    def test_comparisons_match_contains(self, data, lo_strict, hi_strict,
                                        discrete):
        values = data.draw(st.sampled_from((self.numbers, self.words)))
        bound = st.one_of(st.none(), values)
        interval = Interval(
            lo=data.draw(bound), lo_strict=lo_strict,
            hi=data.draw(bound), hi_strict=hi_strict,
            excluded=data.draw(st.frozensets(values, max_size=3)),
            discrete=discrete,
        )
        comparisons = interval.comparisons()
        # A point is one = comparison.  Otherwise at most one lower and
        # one upper bound, in that order, then the excluded points as
        # != comparisons.
        ops = [op for op, _ in comparisons]
        lower = [op for op in ops if op in (Comparator.GT, Comparator.GE)]
        upper = [op for op in ops if op in (Comparator.LT, Comparator.LE)]
        if interval.is_point:
            assert comparisons == ((Comparator.EQ, interval.the_point()),)
        else:
            assert len(lower) <= 1 and len(upper) <= 1
            assert ops == lower + upper + [Comparator.NE] * (
                len(ops) - len(lower) - len(upper))
        for probe in data.draw(st.lists(values, min_size=1, max_size=5)):
            assert all(op.function(probe, value)
                       for op, value in comparisons) \
                == interval.contains(probe), (interval, probe)
        # The mask lowering of a variable under this interval is
        # exactly these comparisons on the variable's column.
        store = ConstraintStore.empty().constrain_interval("x", interval)
        meta = MetaTuple(frozenset({"V"}),
                         (MetaCell.variable("x", True),), frozenset())
        compiled = compile_mask(
            Mask((Column("X", INTEGER),), (MaskRow(meta, store),)))
        if store.is_definitely_unsat():
            assert not compiled.rows and not compiled.always_visible
        elif not comparisons:
            assert compiled.always_visible == {0}
        else:
            (row,) = compiled.rows
            assert row.checks == tuple(
                AtomicCondition(Col(0), op, Const(value))
                for op, value in comparisons
            )


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
