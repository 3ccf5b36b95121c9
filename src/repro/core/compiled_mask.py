"""Compiled mask-application kernels (the online hot path).

``Mask.apply`` is the one per-request cost that scales with the answer:
the interpreted path re-derives each row's starred positions and
re-walks every mask row's cells for every answer tuple — an
O(|A| * |A'|) nested scan of interpreted work.  This module compiles a
:class:`~repro.core.mask.Mask` once into a specialized matcher so the
per-tuple work collapses to hash probes and precomputed checks:

* **constant cells** become an equality key.  Rows are grouped by the
  *positions* of their constant cells (their signature) and bucketed in
  a hash index keyed by the constant *values*; an answer tuple probes
  each signature once and never evaluates a row whose constants it
  cannot match.
* **variable cells** become precomputed equality-group position lists
  (one membership walk per repeated variable) plus per-variable
  interval checks hoisted out of the constraint store.
* the **constraint store** is consulted only when a row actually binds
  variables *and* carries variable-to-variable relations; rows whose
  store is provably unsatisfiable are dropped at compile time.
* rows that match unconditionally (no constants, no variables) are
  folded into a precomputed ``always_visible`` set, which also yields
  the ``covers_everything`` fast path: when the mask always exposes
  every column, the answer rows are delivered untouched.

Compilation is pure.  :func:`apply_mask_columnar` and
:meth:`CompiledMask.apply_rows` evaluate the compiled checks as
per-column passes — constant signatures become one hash-probe sweep per
column group, equality groups one paired-column comparison pass,
intervals one membership pass with normalization hoisted — over a
relation's :meth:`~repro.algebra.relation.Relation.column_data` view or
over one streamed chunk of rows.  This columnar kernel is the engine's
only production masker; it is differentially identical to the
interpreted ``Mask.apply`` (the reference oracle), a property enforced
by ``tests/property/test_compiled_mask.py`` and
``tests/property/test_columnar_relation.py`` across generated masks,
answers, blanks, repeated variables, and COMPARISON constraints.  The
engine stores compiled masks alongside derivations in the
:class:`~repro.core.cache.DerivationCache` under the same catalog
version token, so compilation is amortized exactly like derivation
(``docs/CACHING.md``).
"""

from __future__ import annotations

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

from repro.algebra.columnar import columns_of
from repro.algebra.relation import Relation, Row
from repro.algebra.to_sql import MaskPredicateRow, MaskPredicateView
from repro.algebra.types import Value
from repro.core.mask import MASKED, Mask
from repro.meta.metatuple import MetaTuple
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore

#: Per-column value sequences of one chunk (see ``columns_of``).
Columns = Tuple[Tuple[Value, ...], ...]


class CompiledRow:
    """One mask row, lowered to positional checks.

    The row's membership in the hash index already guarantees its
    constant cells match; what remains per tuple is the precomputed
    equality groups, the hoisted interval checks, and — only when the
    row's store relates variables to each other — the full
    ``satisfied_by`` residual check (see :func:`_filter_candidates`).
    """

    __slots__ = ("star_set", "eq_groups", "interval_checks",
                 "binding_spec", "store", "_members")

    def __init__(
        self,
        star_set: FrozenSet[int],
        eq_groups: Tuple[Tuple[int, ...], ...],
        interval_checks: Tuple[Tuple[int, Interval], ...],
        binding_spec: Optional[Tuple[Tuple[str, int], ...]],
        store: Optional[ConstraintStore],
    ) -> None:
        self.star_set = star_set
        self.eq_groups = eq_groups
        self.interval_checks = interval_checks
        self.binding_spec = binding_spec
        self.store = store
        self._members: Optional[
            Tuple[Tuple[int, Callable[[Value], bool]], ...]] = None

    def members(self) -> Tuple[Tuple[int, Callable[[Value], bool]], ...]:
        """Interval checks as compiled membership closures.

        :meth:`Interval.membership` hoists normalization out of the
        per-value test; built lazily, so a row no answer value ever
        reaches pays nothing for it.
        """
        members = self._members
        if members is None:
            members = tuple(
                (position, interval.membership())
                for position, interval in self.interval_checks
            )
            self._members = members
        return members


class CompiledMask:
    """A mask lowered to a constant hash index plus compiled rows."""

    __slots__ = ("ncols", "always_visible", "groups", "covers_all",
                 "_columnar")

    def __init__(self, ncols: int, always_visible: FrozenSet[int],
                 groups: Tuple[
                     Tuple[Tuple[int, ...],
                           Dict[Tuple, List[CompiledRow]]], ...]) -> None:
        self.ncols = ncols
        self.always_visible = always_visible
        self.groups = groups
        #: Every column is visible for every tuple: the answer may be
        #: delivered untouched (the ``covers_everything`` fast path,
        #: generalized to unions of unconditional rows).
        self.covers_all = ncols > 0 and len(always_visible) == ncols
        self._columnar: Optional[_ColumnarPlan] = None

    # ------------------------------------------------------------------
    # the columnar kernel (vectorized column-wise passes)
    # ------------------------------------------------------------------

    def columnar_plan(self) -> "_ColumnarPlan":
        """The hash index re-keyed for column sweeps (built lazily).

        Single-position constant groups are re-keyed by the bare value
        so the per-value probe needs no tuple allocation, and rows
        with *no* constants are pulled out as broadcast rows — they
        are evaluated once per chunk as whole-column passes instead of
        being probed per row.
        """
        plan = self._columnar
        if plan is None:
            probes: List[Tuple[Tuple[int, ...],
                               Dict[Any, List[CompiledRow]]]] = []
            broadcast: List[CompiledRow] = []
            for positions, buckets in self.groups:
                if not positions:
                    for rows in buckets.values():
                        broadcast.extend(rows)
                elif len(positions) == 1:
                    probes.append((positions, {
                        key[0]: rows for key, rows in buckets.items()
                    }))
                else:
                    probes.append(
                        (positions, dict(buckets))
                    )
            plan = _ColumnarPlan(tuple(probes), tuple(broadcast))
            self._columnar = plan
        return plan

    def apply_rows(self, rows: Sequence[Row],
                   drop_fully_masked: bool = False) -> Tuple[Tuple, ...]:
        """Mask one chunk of (already deduplicated) rows columnar-ly.

        The unit of a streamed answer; byte-identical to
        :func:`apply_mask_columnar` over a relation holding exactly
        ``rows``.
        """
        if not rows:
            return ()
        return self.apply_columns(
            columns_of(rows, self.ncols), len(rows),
            drop_fully_masked=drop_fully_masked,
        )

    def apply_columns(self, cols: Columns, nrows: int,
                      drop_fully_masked: bool = False
                      ) -> Tuple[Tuple, ...]:
        """Mask ``nrows`` rows given as per-column value sequences."""
        ncols = self.ncols
        if ncols == 0:
            # A zero-column row has no visible cells; the interpreted
            # path still delivers it as () unless dropping.
            return () if drop_fully_masked else ((),) * nrows
        if self.covers_all:
            return tuple(zip(*cols))
        vis = self._match_columns(cols, nrows)
        out_cols: List[Sequence[Value]] = []
        for c in range(ncols):
            flags = vis[c]
            if flags is None:
                out_cols.append(cols[c])
            else:
                out_cols.append([
                    value if flag else MASKED
                    for value, flag in zip(cols[c], flags)
                ])
        delivered = zip(*out_cols)
        if drop_fully_masked and not self.always_visible:
            keep = bytearray(nrows)
            for flags in vis:
                assert flags is not None
                for i, flag in enumerate(flags):
                    if flag:
                        keep[i] = 1
            return tuple(
                row for row, kept in zip(delivered, keep) if kept
            )
        return tuple(delivered)

    def _match_columns(
        self, cols: Columns, nrows: int,
    ) -> List[Optional[bytearray]]:
        """Visibility flags per column (``None`` = always visible)."""
        vis: List[Optional[bytearray]] = [
            None if c in self.always_visible else bytearray(nrows)
            for c in range(self.ncols)
        ]
        plan = self.columnar_plan()

        # Constant-signature groups: one hash-probe sweep per group,
        # grouping hit indices by value so each matching mask row runs
        # its residual checks over exactly its candidate rows.
        for positions, probe in plan.probes:
            hits: Dict[Any, List[int]] = {}
            get = probe.get
            if len(positions) == 1:
                keys: Iterable[Any] = cols[positions[0]]
            else:
                keys = zip(*(cols[p] for p in positions))
            for i, key in enumerate(keys):
                if get(key) is None:
                    continue
                acc = hits.get(key)
                if acc is None:
                    hits[key] = acc = []
                acc.append(i)
            for key, candidates in hits.items():
                for row in probe[key]:
                    matched = _filter_candidates(row, cols, candidates)
                    if matched:
                        _mark(row.star_set, matched, vis)

        # Broadcast rows (no constants): whole-column passes.  Rows
        # sharing an equality-group shape share its scan via the cache
        # — the common many-intervals-over-one-join-shape masks then
        # pay the expensive pass once per chunk, not once per row.
        eq_cache: Dict[Tuple[Tuple[int, ...], ...], List[int]] = {}
        for row in plan.broadcast:
            matched_b = _broadcast_candidates(row, cols, nrows, eq_cache)
            if matched_b:
                _mark(row.star_set, matched_b, vis)
        return vis


class _ColumnarPlan:
    """The hash index of a :class:`CompiledMask`, re-keyed for sweeps.

    ``probes`` holds the constant-signature groups (single-position
    groups keyed by bare value, multi-position by value tuple);
    ``broadcast`` holds the rows with no constant cells, which are
    evaluated as whole-column passes.
    """

    __slots__ = ("probes", "broadcast")

    def __init__(
        self,
        probes: Tuple[Tuple[Tuple[int, ...],
                            Dict[Any, List[CompiledRow]]], ...],
        broadcast: Tuple[CompiledRow, ...],
    ) -> None:
        self.probes = probes
        self.broadcast = broadcast


def _mark(star_set: FrozenSet[int], indices: Sequence[int],
          vis: List[Optional[bytearray]]) -> None:
    """Set the visibility flag of ``indices`` in each starred column."""
    for column in star_set:
        flags = vis[column]
        if flags is None:
            continue
        for i in indices:
            flags[i] = 1


def _filter_candidates(row: CompiledRow, cols: Columns,
                       candidates: List[int]) -> List[int]:
    """Narrow candidate row indices by ``row``'s residual checks.

    Equality groups first (cheap tuple compares), then the hoisted interval
    memberships, then — rarely — the full constraint-store residual.
    Each pass is a single comprehension over the surviving indices.
    """
    for group in row.eq_groups:
        base = cols[group[0]]
        for position in group[1:]:
            other = cols[position]
            candidates = [
                i for i in candidates if other[i] == base[i]
            ]
            if not candidates:
                return candidates
    for position, member in row.members():
        column = cols[position]
        candidates = [i for i in candidates if member(column[i])]
        if not candidates:
            return candidates
    if row.binding_spec is not None:
        store = row.store
        assert store is not None
        spec = row.binding_spec
        candidates = [
            i for i in candidates
            if store.satisfied_by(
                {var: cols[position][i] for var, position in spec}
            )
        ]
    return candidates


def _broadcast_candidates(
    row: CompiledRow, cols: Columns, nrows: int,
    eq_cache: Dict[Tuple[Tuple[int, ...], ...], List[int]],
) -> Sequence[int]:
    """Indices matched by a constant-free row, via full-column passes.

    The first equality-group scan is the expensive one (it touches
    every row of the chunk); rows sharing the same group shape share
    it through ``eq_cache``.
    """
    candidates: Optional[List[int]] = None
    if row.eq_groups:
        candidates = eq_cache.get(row.eq_groups)
        if candidates is None:
            for group in row.eq_groups:
                base = cols[group[0]]
                for position in group[1:]:
                    other = cols[position]
                    if candidates is None:
                        candidates = [
                            i for i, (a, b)
                            in enumerate(zip(base, other)) if a == b
                        ]
                    else:
                        candidates = [
                            i for i in candidates
                            if other[i] == base[i]
                        ]
            assert candidates is not None
            eq_cache[row.eq_groups] = candidates
    for position, member in row.members():
        column = cols[position]
        if candidates is None:
            candidates = [
                i for i, value in enumerate(column) if member(value)
            ]
        else:
            candidates = [
                i for i in candidates if member(column[i])
            ]
        if not candidates:
            return candidates
    if row.binding_spec is not None:
        store = row.store
        assert store is not None
        spec = row.binding_spec
        pool: Iterable[int] = (
            range(nrows) if candidates is None else candidates
        )
        candidates = [
            i for i in pool
            if store.satisfied_by(
                {var: cols[position][i] for var, position in spec}
            )
        ]
    if candidates is None:
        # No checks at all would have made the row unconditional (it
        # lives in always_visible); reaching here means every check
        # passed for every row of the chunk.
        return range(nrows)
    return candidates


def _compile_row(meta: MetaTuple, store: ConstraintStore) -> Optional[
        Tuple[Tuple[Tuple[int, ...], Tuple], CompiledRow]]:
    """Lower one mask row; ``None`` when it can never deliver a cell.

    Returns ``((constant positions, constant values), compiled row)`` —
    the first element is the row's slot in the hash index.
    """
    star_set = frozenset(meta.starred_positions())
    if not star_set:
        return None  # delivers nothing; the interpreted path skips too

    const_positions: List[int] = []
    const_values: List = []
    var_positions: Dict[str, List[int]] = {}
    for position, cell in enumerate(meta.cells):
        if cell.is_constant:
            const_positions.append(position)
            const_values.append(cell.const_value)
        else:
            var = cell.var_name
            if var is not None:
                var_positions.setdefault(var, []).append(position)

    eq_groups = tuple(
        tuple(positions) for positions in var_positions.values()
        if len(positions) > 1
    )

    if not var_positions:
        # No variables: the interpreted matcher never consults the
        # store for such a row (an empty binding short-circuits to
        # True), so neither do we.
        return ((tuple(const_positions), tuple(const_values)),
                CompiledRow(star_set, eq_groups, (), None, None))

    if store.is_definitely_unsat():
        # Tightening never un-empties an interval, so this row can
        # never satisfy its constraints: drop it at compile time.
        return None

    interval_checks = tuple(
        (positions[0], interval)
        for var, positions in var_positions.items()
        for interval in (store.interval_for(var),)
        if not interval.is_top
    )
    if any(interval.is_empty() for _, interval in interval_checks):
        return None

    if store.relations():
        # Variable-to-variable constraints: fall back to the full
        # residual check, binding variables in first-occurrence order
        # exactly as the interpreted matcher does.
        binding_spec = tuple(
            (var, var_positions[var][0]) for var in meta.variables()
        )
        return ((tuple(const_positions), tuple(const_values)),
                CompiledRow(star_set, eq_groups, interval_checks,
                            binding_spec, store))

    # Interval-only store: the hoisted checks are the whole semantics,
    # provided no residual (unbound) variable is pinned to an empty
    # interval — that case is constant per row, so decide it now.
    residual = store.mentioned_vars() - set(var_positions)
    if any(store.interval_for(var).is_empty() for var in residual):
        return None
    return ((tuple(const_positions), tuple(const_values)),
            CompiledRow(star_set, eq_groups, interval_checks, None, None))


#: Sentinel distinguishing "row contributes nothing" (None) from "row
#: cannot be expressed as direct positional checks".
_NOT_EXTRACTABLE = object()


def _extract_row(meta: MetaTuple, store: ConstraintStore) -> object:
    """Lower one mask row to a :class:`MaskPredicateRow`.

    Returns ``None`` when the row can never deliver a cell (no stars,
    or provably unsatisfiable constraints), the sentinel
    ``_NOT_EXTRACTABLE`` when its semantics cannot be written as
    direct positional checks, and a :class:`MaskPredicateRow`
    otherwise.  The case analysis mirrors :func:`_compile_row` — the
    compiled in-Python matcher — except that variable-to-variable
    relations are extractable only when every store-mentioned variable
    is bound by a cell: then ``ConstraintStore.satisfied_by`` reduces
    to per-variable interval membership plus direct pairwise
    comparisons, which SQL can evaluate.  A relation touching an
    *unbound* variable keeps its existential reading and stays with
    the Python matcher.
    """
    star_set = frozenset(meta.starred_positions())
    if not star_set:
        return None

    const_checks: List[Tuple[int, Value]] = []
    var_positions: Dict[str, List[int]] = {}
    for position, cell in enumerate(meta.cells):
        value = cell.const_value
        if value is not None:
            const_checks.append((position, value))
        else:
            var = cell.var_name
            if var is not None:
                var_positions.setdefault(var, []).append(position)

    eq_groups = tuple(
        tuple(positions) for positions in var_positions.values()
        if len(positions) > 1
    )

    if not var_positions:
        # No variables: the interpreted matcher never consults the
        # store (an empty binding short-circuits to True).
        return MaskPredicateRow(
            star_set, tuple(const_checks), eq_groups, (), ()
        )

    if store.is_definitely_unsat():
        return None

    interval_checks = tuple(
        (positions[0], interval)
        for var, positions in var_positions.items()
        for interval in (store.interval_for(var),)
        if not interval.is_top
    )
    if any(interval.is_empty() for _, interval in interval_checks):
        return None

    relations = store.relations()
    if relations:
        if not store.mentioned_vars() <= frozenset(var_positions):
            return _NOT_EXTRACTABLE
        relation_checks = tuple(
            (var_positions[r.left][0], r.op, var_positions[r.right][0])
            for r in relations
        )
        return MaskPredicateRow(
            star_set, tuple(const_checks), eq_groups,
            interval_checks, relation_checks,
        )

    # Interval-only store: hoisted checks are the whole semantics
    # unless a residual (unbound) variable is pinned to an empty
    # interval, which kills the row outright.
    residual = store.mentioned_vars() - frozenset(var_positions)
    if any(store.interval_for(var).is_empty() for var in residual):
        return None
    return MaskPredicateRow(
        star_set, tuple(const_checks), eq_groups, interval_checks, ()
    )


def sql_predicate_view(mask: Mask) -> Optional[MaskPredicateView]:
    """The SQL-extractable predicate view of ``mask``, if one exists.

    ``None`` means some row's matching semantics cannot be expressed
    as direct positional checks (a variable-to-variable constraint
    mentioning a variable no cell binds); the SQL backends then fall
    back to evaluating the plan in SQL and applying the mask with the
    columnar kernel.  When a view *is* returned, evaluating its
    predicates is differentially identical to the interpreted
    :meth:`repro.core.mask.Mask.visible_positions`
    (``tests/property/test_backend_parity.py``).
    """
    always_visible: set = set()
    rows: List[MaskPredicateRow] = []
    for mask_row in mask.rows:
        extracted = _extract_row(mask_row.meta, mask_row.store)
        if extracted is None:
            continue
        if extracted is _NOT_EXTRACTABLE:
            return None
        assert isinstance(extracted, MaskPredicateRow)
        if extracted.is_unconditional:
            always_visible |= extracted.star_set
        else:
            rows.append(extracted)
    kept = tuple(
        row for row in rows if not row.star_set <= always_visible
    )
    return MaskPredicateView(
        len(mask.columns), frozenset(always_visible), kept
    )


def compile_mask(mask: Mask) -> CompiledMask:
    """Compile ``mask`` into a :class:`CompiledMask` matcher."""
    ncols = len(mask.columns)
    always_visible: set = set()
    pending: List[Tuple[Tuple[Tuple[int, ...], Tuple], CompiledRow]] = []
    for mask_row in mask.rows:
        compiled = _compile_row(mask_row.meta, mask_row.store)
        if compiled is None:
            continue
        (positions, _), row = compiled
        if (not positions and not row.eq_groups
                and not row.interval_checks and row.binding_spec is None):
            # Unconditional: contributes its stars to every tuple.
            always_visible |= row.star_set
        else:
            pending.append(compiled)

    # The hash index: one bucket map per constant-position signature.
    # Rows whose stars are already always visible can never add a cell.
    index: Dict[Tuple[int, ...], Dict[Tuple, List[CompiledRow]]] = {}
    for (positions, values), row in pending:
        if row.star_set <= always_visible:
            continue
        buckets = index.setdefault(positions, {})
        buckets.setdefault(values, []).append(row)

    # Within each bucket, try rows with the largest starred sets first:
    # the visible union grows fastest, the subset skip fires more often,
    # and the all-columns early exit is reached sooner.  Order never
    # changes the union itself, so this is purely a scheduling choice.
    for buckets in index.values():
        for rows in buckets.values():
            rows.sort(key=lambda row: len(row.star_set), reverse=True)

    groups = tuple(index.items())
    return CompiledMask(ncols, frozenset(always_visible), groups)


def apply_mask_columnar(compiled: CompiledMask, answer: Relation,
                        drop_fully_masked: bool = False
                        ) -> Tuple[Tuple, ...]:
    """Mask ``answer`` through the columnar kernel.

    Byte-identical to the interpreted oracle
    :meth:`repro.core.mask.Mask.apply`
    (``tests/property/test_columnar_relation.py``); only the scan
    order differs — per-column passes over the relation's cached
    :meth:`~repro.algebra.relation.Relation.column_data` view instead
    of per-row walks over every mask row.
    """
    return compiled.apply_columns(
        answer.column_data(), len(answer.rows),
        drop_fully_masked=drop_fully_masked,
    )

