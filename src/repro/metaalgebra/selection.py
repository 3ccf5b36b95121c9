"""The meta-relation selection (Definition 2 + Section 4.2 refinement).

Definition 2 selects meta-tuples whose referenced components are
starred and conjoins the query predicate lambda onto the component's
predicate mu.  The Section 4.2 refinement handles lambda case by case:

* contradiction — discard the meta-tuple;
* lambda implies mu — clear the field (more tuples survive later
  projections);
* mu implies lambda — retain unmodified;
* otherwise — represent mu AND lambda.

Soundness invariants enforced here:

* an unstarred referenced component drops the row (Definition 2's star
  rule; relaxable via ``require_star_for_selection=False`` only for the
  provably sound outcomes);
* a variable occurring in several cells of the row, or participating in
  variable-to-variable relations, is never cleared by a one-column
  predicate — clearing would silently widen the view by losing the
  equality/ordering linkage;
* equality predicates substitute constants through *every* occurrence
  of the variable and through the store, so the linkage is preserved
  in constant form;
* every modification ends with a satisfiability screen: provably
  contradictory rows are discarded.

The engine runs selections after the dangling-reference pruning, so
every variable in a row has all of its defining meta-tuples present —
the invariant the clearing rules rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.types import Value
from repro.config import EngineConfig
from repro.meta.cell import MetaCell
from repro.metaalgebra.budget import Budget
from repro.metaalgebra.table import MaskRow, MaskTable
from repro.predicates.comparators import Comparator
from repro.predicates.implication import SelectionCase, classify
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore
from repro.testing.faults import maybe_fault


@dataclass(frozen=True)
class ColumnPredicate:
    """All of a query's constant comparisons on one column, as one
    composite predicate.

    The paper applies the query's qualification as a *single*
    conjunctive sigma, so a stored view of budgets [300k, 600k] probed
    with ``BUDGET >= 400,000 and BUDGET <= 500,000`` must see lambda =
    [400k, 500k] — which clears — rather than two half-bounded lambdas
    that each merely conjoin.  Grouping restores that behaviour.
    """

    index: int
    interval: Interval
    conditions: Tuple[AtomicCondition, ...]

    def render(self, labels: Sequence[str]) -> str:
        return " and ".join(c.render(labels) for c in self.conditions)


#: One unit of the selection phase: a column-to-column condition, or the
#: composite constant predicate on one column.
SelectionStep = Union[AtomicCondition, ColumnPredicate]


def group_conditions(
    conditions: Sequence[AtomicCondition],
    discrete_columns: Sequence[bool],
) -> List[SelectionStep]:
    """Fold the constant comparisons of each column into one step.

    Steps keep the order of first appearance; column-to-column
    conditions remain individual steps.
    """
    steps: List[SelectionStep] = []
    by_column: dict = {}
    for condition in conditions:
        lhs, rhs, op = condition.lhs, condition.rhs, condition.op
        if isinstance(lhs, Const) and isinstance(rhs, Col):
            lhs, rhs, op = rhs, lhs, op.flipped()
        if isinstance(lhs, Col) and isinstance(rhs, Const):
            index = lhs.index
            lam = Interval.from_comparison(
                op, rhs.value, discrete_columns[index]
            )
            if index in by_column:
                placeholder = by_column[index]
                by_column[index] = ColumnPredicate(
                    index,
                    placeholder.interval.intersect(lam),
                    placeholder.conditions + (condition,),
                )
            else:
                predicate = ColumnPredicate(index, lam, (condition,))
                by_column[index] = predicate
                steps.append(predicate)
        else:
            steps.append(condition)
    # Replace placeholders with their final accumulated versions.
    return [
        by_column[step.index] if isinstance(step, ColumnPredicate) else step
        for step in steps
    ]


class FreshVars:
    """Generator of query-introduced variable names (q1, q2, ...).

    The catalog names view variables x1, x2, ...; query-introduced
    variables use a distinct prefix so they can never collide.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def __call__(self) -> str:
        return f"q{next(self._counter)}"


def meta_select(
    table: MaskTable,
    step: SelectionStep,
    config: EngineConfig,
    fresh: Optional[Callable[[], str]] = None,
    budget: Optional[Budget] = None,
) -> MaskTable:
    """Apply one selection step to every row of ``table``."""
    maybe_fault("selection", budget)
    if budget is not None:
        budget.check_deadline("selection")
    fresh = fresh or FreshVars()
    selector = _Selector(table, step, config, fresh)
    rows = []
    for row in table.rows:
        if budget is not None:
            budget.tick("selection")
        selected = selector.select_row(row)
        if selected is not None and not selected.store.is_definitely_unsat():
            rows.append(selected)
    if budget is not None:
        budget.charge_rows(len(rows), "selection")
    return table.with_rows(rows)


class _Selector:
    def __init__(self, table: MaskTable, step: SelectionStep,
                 config: EngineConfig, fresh: Callable[[], str]) -> None:
        self.table = table
        self.step = step
        self.config = config
        self.fresh = fresh

    # -- helpers -------------------------------------------------------

    def _discrete(self, index: int) -> bool:
        return self.table.columns[index].domain.discrete

    def _mu_of(self, cell: MetaCell, store: ConstraintStore,
               index: int) -> Interval:
        """The stored predicate on ``cell``'s attribute."""
        if cell.is_constant:
            return Interval.point(cell.const_value, self._discrete(index))
        if cell.is_variable:
            return store.interval_for(cell.var_name)
        return Interval.top(self._discrete(index))

    @staticmethod
    def _clearable_var(row: MaskRow, var: str) -> bool:
        """May ``var``'s single cell be cleared without losing linkage?"""
        return (
            len(row.meta.var_positions(var)) == 1
            and not row.store.relations_of(var)
        )

    # -- dispatch -------------------------------------------------------

    def select_row(self, row: MaskRow) -> Optional[MaskRow]:
        step = self.step
        if isinstance(step, ColumnPredicate):
            return self._select_col_interval(row, step.index, step.interval)
        if isinstance(step.lhs, Col) and isinstance(step.rhs, Col):
            return self._select_col_col(
                row, step.lhs.index, step.op, step.rhs.index
            )
        if isinstance(step.lhs, Col):
            assert isinstance(step.rhs, Const)
            return self._select_col_const(
                row, step.lhs.index, step.op, step.rhs.value
            )
        # The compiler orients constants rightward, but accept both.
        assert isinstance(step.rhs, Col)
        assert isinstance(step.lhs, Const)
        return self._select_col_const(
            row, step.rhs.index, step.op.flipped(), step.lhs.value
        )

    # -- column-vs-constant ----------------------------------------------

    def _select_col_const(self, row: MaskRow, index: int, op: Comparator,
                          value: Value) -> Optional[MaskRow]:
        lam = Interval.from_comparison(op, value, self._discrete(index))
        return self._select_col_interval(row, index, lam)

    def _select_col_interval(self, row: MaskRow, index: int,
                             lam: Interval) -> Optional[MaskRow]:
        """One-column predicate lambda against the cell's mu.

        Star policy: Definition 2 only selects starred components, but
        two outcomes are provably sound without a star and the
        Section 4.2 case text sanctions them —

        * *mu implies lambda* (retain unmodified): the view's own
          selection already guarantees the query predicate, so the mask
          still denotes exactly the permitted view;
        * *mu equivalent to lambda* (clear): the answer enforces the
          predicate, so clearing loses nothing — this is what lets a
          view with an unprojected selection attribute (``where DOC =
          house``, DOC not in the target) survive the projection.

        Everything else on an unstarred cell drops the row: conjoining
        would create a restriction inexpressible over the permitted
        view, and clearing a strictly weaker mu would deliver a
        lambda-selected subset of the view — information the Theorem
        does not license (setting ``require_star_for_selection=False``
        enables that INGRES-flavoured behaviour for experiments).
        """
        cell = row.meta.cells[index]
        mu = self._mu_of(cell, row.store, index)

        if not self.config.refine_selection:
            if not cell.starred:
                return None
            return self._conjoin_interval(row, index, mu, lam)

        case = classify(mu, lam)
        if case is SelectionCase.DISCARD:
            return None
        if case is SelectionCase.RETAIN:
            return row
        if cell.starred:
            if case is SelectionCase.CLEAR:
                return self._clear_cell(row, index)
            return self._conjoin_interval(row, index, mu, lam)

        # Unstarred component: only the provably sound outcomes.
        if case is SelectionCase.CLEAR and (
                not self.config.require_star_for_selection
                or mu.is_subset(lam)):
            return self._clear_cell(row, index)
        return None

    def _clear_cell(self, row: MaskRow, index: int) -> Optional[MaskRow]:
        cell = row.meta.cells[index]
        if cell.is_blank:
            return row
        var = cell.var_name
        if var is None:
            # Constant cell: clearing is unconditionally safe.
            return MaskRow(row.meta.replace_cell(index, cell.cleared()),
                           row.store)
        if self._clearable_var(row, var):
            return MaskRow(row.meta.replace_cell(index, cell.cleared()),
                           row.store)
        # Clearing would break the variable's linkage to other cells or
        # relations; retaining unmodified is the sound fallback.
        return row

    def _conjoin_interval(self, row: MaskRow, index: int, mu: Interval,
                          lam: Interval) -> Optional[MaskRow]:
        """Definition 2's literal behaviour: represent mu AND lambda."""
        cell = row.meta.cells[index]

        if cell.is_constant:
            # mu AND lambda on a pinned value is statically decidable.
            if lam.contains(cell.const_value):
                return row
            return None

        if lam.is_point:
            return self._pin_cell(row, index, lam.the_point())

        if cell.is_blank:
            # Introduce a query variable carrying lambda.
            var = self.fresh()
            meta = row.meta.replace_cell(
                index, MetaCell.variable(var, cell.starred)
            )
            store = row.store.constrain_interval(var, lam)
            return MaskRow(meta, store)

        var = cell.var_name
        assert var is not None
        narrowed = mu.intersect(lam)
        if narrowed.is_empty():
            return None
        return MaskRow(row.meta, row.store.replace_interval(var, narrowed))

    def _pin_cell(self, row: MaskRow, index: int,
                  value: Value) -> Optional[MaskRow]:
        """Handle an equality with a constant: substitute throughout."""
        cell = row.meta.cells[index]
        if cell.is_constant:
            return row if cell.const_value == value else None
        if cell.is_blank:
            meta = row.meta.replace_cell(
                index, MetaCell.constant(value, cell.starred)
            )
            return MaskRow(meta, row.store)
        var = cell.var_name
        assert var is not None
        if not row.store.interval_for(var).contains(value):
            return None
        meta = row.meta.substitute_var(
            var, MetaCell.constant(value, cell.starred)
        )
        store = row.store.substitute(var, value)
        return MaskRow(meta, store)

    # -- column-vs-column ---------------------------------------------------

    def _select_col_col(self, row: MaskRow, left: int, op: Comparator,
                        right: int) -> Optional[MaskRow]:
        a, b = row.meta.cells[left], row.meta.cells[right]

        # Both constants: statically decidable, no representation is
        # needed, so stars are irrelevant (retain or discard).
        if a.is_constant and b.is_constant:
            if op.evaluate(a.const_value, b.const_value):
                return row
            return None

        # A constant on one side reduces to column-vs-constant on the
        # other; the one-column star policy applies there.
        if a.is_constant:
            return self._select_col_const(
                row, right, op.flipped(), a.const_value
            )
        if b.is_constant:
            return self._select_col_const(row, left, op, b.const_value)

        # Same variable on both sides: mu already relates the columns;
        # the outcomes are retain/clear/discard, all sound unstarred.
        if a.is_variable and b.is_variable and a.var_name == b.var_name:
            return self._select_same_var(row, left, op, right, a.var_name)

        # The remaining shapes modify the row (unify variables, copy
        # contents, add relations): representing lambda requires the
        # referenced components in the projection — Definition 2's rule,
        # and here it is a soundness requirement, not configuration.
        if not a.starred or not b.starred:
            return None

        if op is Comparator.EQ:
            return self._equate_cells(row, left, right)

        return self._relate_cells(row, left, op, right)

    def _select_same_var(self, row: MaskRow, left: int, op: Comparator,
                         right: int, var: str) -> Optional[MaskRow]:
        """Both cells hold the same variable: mu already implies equality."""
        if op is Comparator.EQ:
            if not self.config.refine_selection:
                return row  # mu AND lambda == mu
            # Clear both occurrences when the variable carries no other
            # information (Example 2's x1 and x2): lambda holds on every
            # answer tuple, so the pair adds nothing.
            positions = row.meta.var_positions(var)
            unconstrained = (
                row.store.interval_for(var).is_top
                and not row.store.relations_of(var)
            )
            if unconstrained and set(positions) == {left, right}:
                meta = row.meta.replace_cells({
                    left: row.meta.cells[left].cleared(),
                    right: row.meta.cells[right].cleared(),
                })
                return MaskRow(meta, row.store)
            return row
        if op in (Comparator.LE, Comparator.GE):
            return row  # x <= x is implied
        return None  # x < x or x != x is contradictory

    def _equate_cells(self, row: MaskRow, left: int,
                      right: int) -> Optional[MaskRow]:
        """lambda: col_left = col_right over blank/variable cells."""
        a, b = row.meta.cells[left], row.meta.cells[right]

        if a.is_blank and b.is_blank:
            if self.config.refine_selection:
                return row  # lambda holds on every answer tuple: clear
            var = self.fresh()
            meta = row.meta.replace_cells({
                left: MetaCell.variable(var, a.starred),
                right: MetaCell.variable(var, b.starred),
            })
            return MaskRow(meta, row.store)

        if a.is_blank or b.is_blank:
            blank_index = left if a.is_blank else right
            other = b if a.is_blank else a
            blank = row.meta.cells[blank_index]
            meta = row.meta.replace_cell(
                blank_index, MetaCell(other.content, blank.starred)
            )
            return MaskRow(meta, row.store)

        # Two distinct variables: unify.
        keep, drop = a.var_name, b.var_name
        assert keep is not None and drop is not None
        meta = row.meta.rename_var(drop, keep)
        store = row.store.unify(keep, drop)
        return MaskRow(meta, store)

    def _relate_cells(self, row: MaskRow, left: int, op: Comparator,
                      right: int) -> Optional[MaskRow]:
        """Order/inequality lambda between two blank/variable cells."""
        meta, store = row.meta, row.store

        def ensure_var(index: int) -> str:
            cell = meta.cells[index]
            name = cell.var_name
            if name is not None:
                return name
            return ""  # placeholder; replaced below

        left_var = ensure_var(left)
        right_var = ensure_var(right)

        updates = {}
        if not left_var:
            left_var = self.fresh()
            updates[left] = MetaCell.variable(
                left_var, meta.cells[left].starred
            )
        if not right_var:
            right_var = self.fresh()
            updates[right] = MetaCell.variable(
                right_var, meta.cells[right].starred
            )
        if updates:
            meta = meta.replace_cells(updates)

        if self.config.refine_selection and store.interval_for(
            left_var
        ).forces(op, store.interval_for(right_var)):
            return MaskRow(row.meta, row.store)  # mu implies lambda: retain

        store = store.relate(left_var, op, right_var)
        return MaskRow(meta, store)

