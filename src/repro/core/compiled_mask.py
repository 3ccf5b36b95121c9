"""Compiled masks: one lowering per mask row, one masking kernel.

``Mask.apply`` is the one per-request cost that scales with the answer:
the interpreted path re-derives each row's starred positions and
re-walks every mask row's cells for every answer tuple — an
O(|A| * |A'|) nested scan of interpreted work.  :func:`compile_mask`
instead lowers each row of a :class:`~repro.core.mask.Mask` exactly
once — Section 3's reading of a meta-tuple as a subview — into a
:class:`CompiledRow`: a flat tuple of comparisons
``Col(position) op (Const(value) | Col(position))``, in this order:

* **constant cells**, ``a_i = c``;
* **repeated variables**, ``a_first = a_j`` for each later position;
* **interval constraints**, hoisted out of the constraint store at the
  variable's first position, as normalized bounds and excluded points
  (:meth:`~repro.predicates.intervals.Interval.comparisons`);
* **variable-to-variable relations** whose variables are all bound by
  cells, ``a_i op a_j``;
* a relation on a variable that *no* cell binds keeps its existential
  reading as a **residual** ``(binding_spec, store)``, checked per
  tuple with ``ConstraintStore.satisfied_by``.

Rows that can never deliver a cell (no stars, or a provably
unsatisfiable store) are dropped; rows with no checks at all fold into
``always_visible``, which also yields the ``covers_everything`` fast
path when they expose every column.

The **columnar kernel** reads the one :class:`CompiledMask`:
:meth:`CompiledMask.apply_rows` (one chunk, or a whole answer's rows)
and :func:`apply_mask_columnar` (a whole relation).  It is the engine's
only production masker, and it masks every execution backend's answer
alike.  Each distinct comparison runs once per chunk as one C-level
``map`` over a column, packed into a byte-lane int (one byte per row,
0 or 1).  A row's comparisons AND together and the rows OR into
per-column visibility lanes.  Only a residual row calls
``satisfied_by``, and only on the rows its lane left.  Delivered rows
are built column by column, and the lanes' popcounts give the chunk's
:class:`~repro.core.answer.DeliveryStats` without a second walk.

The kernel is differentially identical to the interpreted
``Mask.apply`` (the reference oracle):
``tests/property/test_compiled_mask.py`` and
``tests/property/test_columnar_relation.py`` pin it.  The engine
stores compiled masks alongside derivations in the
:class:`~repro.core.cache.DerivationCache` under the same key, so
compilation is amortized exactly like derivation (``docs/CACHING.md``).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import getitem, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.algebra.relation import Relation, Row
from repro.algebra.types import Value
from repro.core.answer import DeliveryStats
from repro.core.mask import MASKED, Mask
from repro.metaalgebra.table import MaskRow
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore

#: ``(variable, position)`` pairs binding a residual row's variables
#: in first-occurrence order, exactly as the interpreted matcher does.
BindingSpec = Tuple[Tuple[str, int], ...]

#: A residual row's binding spec and the store its binding must satisfy.
Residual = Tuple[BindingSpec, ConstraintStore]

#: A distinct comparison: the operator function, the left column, and
#: the constant or the right column.
_Key = Tuple[Callable[[Value, Value], bool], int, Optional[Value],
             Optional[int]]

#: One row as the kernel runs it: indices of its comparisons among the
#: mask's distinct ones, the columns it can reveal, its residual.
_RowPlan = Tuple[Tuple[int, ...], Tuple[int, ...], Optional[Residual]]


class CompiledRow:
    """One mask row, lowered to positional comparisons.

    The row admits an answer tuple when every check holds (and, for a
    residual row, the store is satisfied); its ``star_set`` columns are
    then visible for that tuple.

    Attributes:
        star_set: positions this row delivers when it matches.
        checks: the row's comparisons, each an
            :class:`~repro.algebra.expression.AtomicCondition` with a
            ``Col`` on the left and a ``Const`` or ``Col`` on the
            right, in the order the module docstring lists.
        residual: ``(binding_spec, store)`` when the store relates a
            variable no cell binds; the tuple's binding must then
            satisfy ``store``.  ``None`` otherwise — and then
            ``checks`` are the row's whole semantics.
    """

    __slots__ = ("star_set", "checks", "residual")

    def __init__(
        self,
        star_set: FrozenSet[int],
        checks: Tuple[AtomicCondition, ...],
        residual: Optional[Residual] = None,
    ) -> None:
        self.star_set = star_set
        self.checks = checks
        self.residual = residual

    @property
    def is_unconditional(self) -> bool:
        """True when the row matches every answer tuple."""
        return not self.checks and self.residual is None


class CompiledMask:
    """A mask lowered once: its compiled rows plus the kernel's plan.

    ``rows`` holds the conditional rows in mask order.  The kernel
    reads them through a plan built here: the mask's distinct
    comparisons, and per row the indices of its comparisons and the
    columns it can reveal beyond ``always_visible``.
    """

    __slots__ = ("ncols", "always_visible", "rows", "covers_all",
                 "_steps", "_plan", "_reads", "_conditional")

    def __init__(self, ncols: int, always_visible: FrozenSet[int],
                 rows: Tuple[CompiledRow, ...]) -> None:
        self.ncols = ncols
        self.always_visible = always_visible
        self.rows = rows
        #: Every column is visible for every tuple: the answer may be
        #: delivered untouched (the ``covers_everything`` fast path,
        #: generalized to unions of unconditional rows).
        self.covers_all = ncols > 0 and len(always_visible) == ncols
        #: Columns whose visibility depends on the tuple.
        self._conditional = tuple(
            j for j in range(ncols) if j not in always_visible
        )
        self._steps: Tuple[_Key, ...] = ()
        self._plan: Tuple[_RowPlan, ...] = ()
        #: Columns the comparisons and residual bindings read.
        self._reads: Tuple[int, ...] = ()
        if rows:
            self._build_plan()

    def _build_plan(self) -> None:
        """The kernel's distinct comparisons and per-row plan."""
        index: Dict[_Key, int] = {}
        self._plan = tuple(
            (tuple(index.setdefault(_key(check), len(index))
                   for check in row.checks),
             tuple(sorted(row.star_set - self.always_visible)),
             row.residual)
            for row in self.rows
        )
        self._steps = tuple(index)
        reads = {left for _, left, _, _ in self._steps}
        reads.update(right for _, _, _, right in self._steps
                     if right is not None)
        reads.update(position for _, _, residual in self._plan
                     if residual is not None
                     for _, position in residual[0])
        self._reads = tuple(sorted(reads))

    def apply_rows(self, rows: Sequence[Row],
                   drop_fully_masked: bool = False,
                   tally: Optional[List[DeliveryStats]] = None,
                   ) -> Tuple[Tuple, ...]:
        """Mask one chunk of (already deduplicated) rows.

        The unit of a streamed answer; identical to
        :func:`apply_mask_columnar` over a relation holding exactly
        ``rows``.  With a ``tally`` list, the chunk's
        :class:`~repro.core.answer.DeliveryStats` (what
        ``DeliveryStats.of`` would count over the returned rows) is
        appended to it.
        """
        return self._apply(rows, drop_fully_masked, tally)

    def _apply(self, rows: Sequence[Row], drop: bool,
               tally: Optional[List[DeliveryStats]]) -> Tuple[Tuple, ...]:
        """The kernel behind both entry points."""
        n = len(rows)
        ncols = self.ncols
        full = int.from_bytes(b"\x01" * n, "little")
        columns: Dict[int, Tuple[Value, ...]] = {}
        vis: Dict[int, int] = {}
        delivered: Tuple[Tuple, ...]
        if not n or ncols == 0 or self.covers_all:
            # No cell to decide.  A zero-column row has no visible
            # cells; the interpreted path still delivers it as ()
            # unless dropping, and DeliveryStats counts it as full.
            shown = 0 if drop and not self.covers_all else full
        else:
            # One itemgetter pass per column read: ``zip(*rows)`` would
            # build an iterator per row, and collecting them costs more
            # than the transpose itself.
            columns = {j: tuple(map(itemgetter(j), rows))
                       for j in self._reads}
            vis = self._visibility(columns, n, full)
            shown = full
            if not self.always_visible:
                shown = 0
                for lane in vis.values():
                    shown |= lane
        # ``shown``: rows with a visible cell; ``every``: rows shown
        # with no masked cell.
        every = shown
        for lane in vis.values():
            every &= lane
        if every == full:
            delivered = tuple(rows)
        elif not shown:
            # Nothing visible anywhere: one shared all-masked row.
            delivered = () if drop else ((MASKED,) * ncols,) * n
        else:
            out: List[Iterable[Value]] = []
            for j in range(ncols):
                column: Iterable[Value] = (
                    columns[j] if j in columns
                    else map(itemgetter(j), rows)
                )
                lane = vis.get(j, full)
                if lane == full:
                    out.append(column)
                elif not lane:
                    out.append(repeat(MASKED, n))
                else:
                    out.append(map(getitem, zip(repeat(MASKED), column),
                                   lane.to_bytes(n, "little")))
            masked_rows: Iterable[Tuple] = zip(*out)
            if drop and shown != full:
                masked_rows = compress(masked_rows,
                                       shown.to_bytes(n, "little"))
            delivered = tuple(masked_rows)
        if tally is not None:
            visible = shown.bit_count()
            total = visible if drop else n
            full_rows = every.bit_count()
            tally.append(DeliveryStats(
                total_rows=total,
                total_cells=total * ncols,
                # Always-visible columns are visible in every shown row.
                delivered_cells=visible * (ncols - len(vis)) + sum(
                    lane.bit_count() for lane in vis.values()),
                full_rows=full_rows,
                partial_rows=visible - full_rows,
                masked_rows=total - visible,
            ))
        return delivered

    def _visibility(self, columns: Dict[int, Tuple[Value, ...]], n: int,
                    full: int) -> Dict[int, int]:
        """Per conditional column, the lane of rows it is visible in.

        Each distinct comparison is evaluated at most once, lazily: a
        row whose lane is already empty stops asking for more.
        """
        vis = dict.fromkeys(self._conditional, 0)
        lanes: List[Optional[int]] = [None] * len(self._steps)
        for ids, stars, residual in self._plan:
            lane = full
            for i in ids:
                got = lanes[i]
                if got is None:
                    got = lanes[i] = _lane(self._steps[i], columns)
                lane &= got
                if not lane:
                    break
            if lane and residual is not None:
                lane = _residual_lane(residual, columns, lane, n)
            if lane:
                for j in stars:
                    vis[j] |= lane
        return vis


def _key(check: AtomicCondition) -> _Key:
    """What the kernel runs for ``check``: the operator function, the
    left column, and the constant or the right column."""
    lhs, rhs, function = check.lhs, check.rhs, check.op.function
    assert isinstance(lhs, Col)
    if isinstance(rhs, Col):
        return function, lhs.index, None, rhs.index
    return function, lhs.index, rhs.value, None


def _lane(key: _Key, columns: Dict[int, Tuple[Value, ...]]) -> int:
    """The byte lane of the rows ``key``'s comparison holds for: one
    C-level pass over the column."""
    function, left, value, right = key
    other: Iterable[Any] = (
        repeat(value) if right is None else columns[right]
    )
    return int.from_bytes(bytes(map(function, columns[left], other)),
                          "little")


def _residual_lane(residual: Residual,
                   columns: Dict[int, Tuple[Value, ...]],
                   lane: int, n: int) -> int:
    """Narrow ``lane`` to the rows whose binding satisfies the store.

    Only the lane's rows are bound and checked, each binding its
    variables in first-occurrence order as the interpreted matcher does.
    """
    spec, store = residual
    flags = bytearray(lane.to_bytes(n, "little"))
    for i in list(compress(range(n), flags)):
        if not store.satisfied_by(
                {var: columns[position][i] for var, position in spec}):
            flags[i] = 0
    return int.from_bytes(flags, "little")


def _lower_row(mask_row: MaskRow) -> Optional[CompiledRow]:
    """Lower one mask row; ``None`` when it can never deliver a cell."""
    meta, store = mask_row.meta, mask_row.store
    star_set = frozenset(meta.starred_positions())
    if not star_set:
        return None  # delivers nothing; the interpreted path skips too

    checks: List[AtomicCondition] = []
    var_positions: Dict[str, List[int]] = {}
    for position, cell in enumerate(meta.cells):
        value = cell.const_value
        if value is not None:
            checks.append(
                AtomicCondition(Col(position), Comparator.EQ, Const(value))
            )
        else:
            var = cell.var_name
            if var is not None:
                var_positions.setdefault(var, []).append(position)

    for positions in var_positions.values():
        first = Col(positions[0])
        checks.extend(
            AtomicCondition(first, Comparator.EQ, Col(position))
            for position in positions[1:]
        )

    if not var_positions:
        # No variables: the interpreted matcher never consults the
        # store for such a row (an empty binding short-circuits to
        # True), so neither do we.
        return CompiledRow(star_set, tuple(checks))

    if store.is_definitely_unsat():
        # Tightening never un-empties an interval, so this row can
        # never satisfy its constraints: drop it at compile time.
        # Past this point no interval of the store is empty.
        return None

    for var, positions in var_positions.items():
        first = Col(positions[0])
        checks.extend(
            AtomicCondition(first, op, Const(value))
            for op, value in store.interval_for(var).comparisons()
        )
    relations = store.relations()
    if any(r.left not in var_positions or r.right not in var_positions
           for r in relations):
        # A relation on a variable no cell binds keeps its existential
        # reading: check the whole store per tuple, binding variables
        # in first-occurrence order as the interpreted matcher does.
        spec = tuple(
            (var, positions[0]) for var, positions in var_positions.items()
        )
        return CompiledRow(star_set, tuple(checks), (spec, store))

    # Every relation compares two bound variables, so satisfied_by
    # reduces to the interval checks plus direct comparisons (an
    # unbound variable's interval is non-empty, so it never fails).
    checks.extend(
        AtomicCondition(Col(var_positions[r.left][0]), r.op,
                        Col(var_positions[r.right][0]))
        for r in relations
    )
    return CompiledRow(star_set, tuple(checks))


def compile_mask(mask: Mask) -> CompiledMask:
    """Lower every row of ``mask`` once into a :class:`CompiledMask`."""
    always_visible: set = set()
    conditional: List[CompiledRow] = []
    for mask_row in mask.rows:
        row = _lower_row(mask_row)
        if row is None:
            continue
        if row.is_unconditional:
            # Contributes its stars to every tuple.
            always_visible |= row.star_set
        else:
            conditional.append(row)
    # Rows whose stars are already always visible can never add a cell.
    rows = tuple(
        row for row in conditional if not row.star_set <= always_visible
    )
    return CompiledMask(len(mask.columns), frozenset(always_visible), rows)


def apply_mask_columnar(compiled: CompiledMask, answer: Relation,
                        drop_fully_masked: bool = False,
                        tally: Optional[List[DeliveryStats]] = None,
                        ) -> Tuple[Tuple, ...]:
    """Mask the rows of ``answer`` through the columnar kernel.

    Identical to the interpreted oracle
    :meth:`repro.core.mask.Mask.apply`
    (``tests/property/test_columnar_relation.py``); only the scan
    order differs — one pass per distinct comparison over a column
    instead of per-row walks over every mask row.  ``tally`` is as in
    :meth:`CompiledMask.apply_rows`.
    """
    return compiled._apply(answer.rows, drop_fully_masked, tally)
