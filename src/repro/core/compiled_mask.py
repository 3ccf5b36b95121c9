"""Compiled masks: one lowering per mask row, two consumers.

``Mask.apply`` is the one per-request cost that scales with the answer:
the interpreted path re-derives each row's starred positions and
re-walks every mask row's cells for every answer tuple — an
O(|A| * |A'|) nested scan of interpreted work.  :func:`compile_mask`
instead lowers each row of a :class:`~repro.core.mask.Mask` exactly
once — Section 3's reading of a meta-tuple as a subview — into a
:class:`CompiledRow` of positional checks:

* **constant cells** become equality checks;
* **repeated variables** become equality groups of positions;
* **interval constraints** are hoisted out of the constraint store,
  one check per variable at its first position;
* **variable-to-variable relations** whose variables are all bound by
  cells become direct comparisons between two positions;
* a relation on a variable that *no* cell binds keeps its existential
  reading as a **residual** ``(binding_spec, store)``, checked per
  tuple with ``ConstraintStore.satisfied_by``.

Rows that can never deliver a cell (no stars, or a provably
unsatisfiable store) are dropped; rows with no checks at all fold into
``always_visible``, which also yields the ``covers_everything`` fast
path when they expose every column.

Two consumers read the one :class:`CompiledMask`:

* the **columnar kernel** — :func:`apply_mask_columnar` and
  :meth:`CompiledMask.apply_rows`, the engine's only production
  masker — runs the checks as per-column passes over a relation's
  :meth:`~repro.algebra.relation.Relation.column_data` view or one
  streamed chunk: constant signatures as hash-probe sweeps, equality
  groups as paired-column comparisons, intervals as membership passes
  with normalization hoisted;
* the **SQL renderer**, :func:`repro.algebra.to_sql.masked_plan_to_sql`,
  writes the same checks as ``CASE WHEN`` predicates.  It applies
  exactly when no row has a residual (:attr:`CompiledMask.pushdown`).

Both are differentially identical to the interpreted ``Mask.apply``
(the reference oracle): ``tests/property/test_compiled_mask.py`` and
``tests/property/test_columnar_relation.py`` pin the kernel,
``tests/property/test_backend_parity.py`` the SQL renderer.  The
engine stores compiled masks alongside derivations in the
:class:`~repro.core.cache.DerivationCache` under the same key, so
compilation is amortized exactly like derivation (``docs/CACHING.md``).
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
from repro.algebra.types import Value
from repro.core.mask import MASKED, Mask
from repro.metaalgebra.table import MaskRow
from repro.predicates.comparators import Comparator
from repro.predicates.intervals import Interval
from repro.predicates.store import ConstraintStore

#: Per-column value sequences of one chunk (see ``columns_of``).
Columns = Tuple[Tuple[Value, ...], ...]

#: ``(variable, position)`` pairs binding a residual row's variables
#: in first-occurrence order, exactly as the interpreted matcher does.
BindingSpec = Tuple[Tuple[str, int], ...]


class CompiledRow:
    """One mask row, lowered to positional checks.

    The row admits an answer tuple when every check holds; its
    ``star_set`` columns are then visible for that tuple.

    Attributes:
        star_set: positions this row delivers when it matches.
        const_checks: ``(position, value)`` equality checks from
            constant cells.
        eq_groups: positions that must all hold one value (repeated
            variables).
        interval_checks: ``(position, interval)`` — the value at
            ``position`` must lie in ``interval``.
        relation_checks: ``(left, op, right)`` comparisons between two
            bound positions.
        residual: ``(binding_spec, store)`` when the store relates a
            variable no cell binds; the tuple's binding must then
            satisfy ``store``.  ``None`` otherwise — and then the
            checks above are the row's whole semantics.
    """

    __slots__ = ("star_set", "const_checks", "eq_groups",
                 "interval_checks", "relation_checks", "residual",
                 "_members")

    def __init__(
        self,
        star_set: FrozenSet[int],
        const_checks: Tuple[Tuple[int, Value], ...],
        eq_groups: Tuple[Tuple[int, ...], ...],
        interval_checks: Tuple[Tuple[int, Interval], ...] = (),
        relation_checks: Tuple[Tuple[int, Comparator, int], ...] = (),
        residual: Optional[Tuple[BindingSpec, ConstraintStore]] = None,
    ) -> None:
        self.star_set = star_set
        self.const_checks = const_checks
        self.eq_groups = eq_groups
        self.interval_checks = interval_checks
        self.relation_checks = relation_checks
        self.residual = residual
        self._members: Optional[
            Tuple[Tuple[int, Callable[[Value], bool]], ...]] = None

    @property
    def is_unconditional(self) -> bool:
        """True when the row matches every answer tuple."""
        return not (self.const_checks or self.eq_groups
                    or self.interval_checks or self.relation_checks
                    or self.residual is not None)

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
    """A mask lowered once: its compiled rows plus the kernel's index.

    ``rows`` holds the conditional rows in mask order (the SQL
    renderer's input).  The columnar kernel reads them through an
    index built here: ``probes`` groups rows with constant cells by
    the positions of those cells, keyed by the constant values (the
    bare value for a single position, else the value tuple), and
    ``broadcast`` holds the rows with no constants, which are
    evaluated as whole-column passes.
    """

    __slots__ = ("ncols", "always_visible", "rows", "covers_all",
                 "pushdown", "probes", "broadcast")

    def __init__(self, ncols: int, always_visible: FrozenSet[int],
                 rows: Tuple[CompiledRow, ...]) -> None:
        self.ncols = ncols
        self.always_visible = always_visible
        self.rows = rows
        #: Every column is visible for every tuple: the answer may be
        #: delivered untouched (the ``covers_everything`` fast path,
        #: generalized to unions of unconditional rows).
        self.covers_all = ncols > 0 and len(always_visible) == ncols
        #: No row needs the constraint store at match time, so the SQL
        #: renderer can express the whole mask.
        self.pushdown = all(row.residual is None for row in rows)
        probes: Dict[Tuple[int, ...], Dict[Any, List[CompiledRow]]] = {}
        broadcast: List[CompiledRow] = []
        for row in rows:
            if not row.const_checks:
                broadcast.append(row)
                continue
            positions = tuple(position for position, _ in row.const_checks)
            values = tuple(value for _, value in row.const_checks)
            key = values[0] if len(values) == 1 else values
            probes.setdefault(positions, {}).setdefault(key, []).append(row)
        self.probes = tuple(probes.items())
        self.broadcast = tuple(broadcast)

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

        # Constant-signature groups: one hash-probe sweep per group,
        # grouping hit indices by value so each matching mask row runs
        # its residual checks over exactly its candidate rows.
        for positions, probe in self.probes:
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
        for row in self.broadcast:
            matched_b = _broadcast_candidates(row, cols, nrows, eq_cache)
            if matched_b:
                _mark(row.star_set, matched_b, vis)
        return vis


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
    """Narrow candidate row indices by ``row``'s remaining checks.

    Equality groups first (cheap tuple compares), then the hoisted interval
    memberships, then — rarely — the relations (see :func:`_related`).
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
    if row.relation_checks or row.residual is not None:
        candidates = _related(row, cols, candidates)
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
    if row.relation_checks or row.residual is not None:
        candidates = _related(
            row, cols, range(nrows) if candidates is None else candidates
        )
    if candidates is None:
        # No checks at all would have made the row unconditional (it
        # lives in always_visible); reaching here means every check
        # passed for every row of the chunk.
        return range(nrows)
    return candidates


def _related(row: CompiledRow, cols: Columns,
             candidates: Iterable[int]) -> List[int]:
    """Narrow candidates by ``row``'s variable-to-variable relations.

    Relations between cell-bound variables are direct comparisons of
    two columns, as in SQL; only a residual row consults its store.
    """
    if row.residual is not None:
        spec, store = row.residual
        return [
            i for i in candidates
            if store.satisfied_by(
                {var: cols[position][i] for var, position in spec}
            )
        ]
    checks = [
        (op.evaluate, cols[left], cols[right])
        for left, op, right in row.relation_checks
    ]
    return [
        i for i in candidates
        if all(holds(lhs[i], rhs[i]) for holds, lhs, rhs in checks)
    ]


def _lower_row(mask_row: MaskRow) -> Optional[CompiledRow]:
    """Lower one mask row; ``None`` when it can never deliver a cell."""
    meta, store = mask_row.meta, mask_row.store
    star_set = frozenset(meta.starred_positions())
    if not star_set:
        return None  # delivers nothing; the interpreted path skips too

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
        # store for such a row (an empty binding short-circuits to
        # True), so neither do we.
        return CompiledRow(star_set, tuple(const_checks), eq_groups)

    if store.is_definitely_unsat():
        # Tightening never un-empties an interval, so this row can
        # never satisfy its constraints: drop it at compile time.
        # Past this point no interval of the store is empty.
        return None

    interval_checks = tuple(
        (positions[0], interval)
        for var, positions in var_positions.items()
        for interval in (store.interval_for(var),)
        if not interval.is_top
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
        return CompiledRow(star_set, tuple(const_checks), eq_groups,
                           interval_checks, residual=(spec, store))

    # Every relation compares two bound variables, so satisfied_by
    # reduces to the interval checks plus direct comparisons (an
    # unbound variable's interval is non-empty, so it never fails).
    relation_checks = tuple(
        (var_positions[r.left][0], r.op, var_positions[r.right][0])
        for r in relations
    )
    return CompiledRow(star_set, tuple(const_checks), eq_groups,
                       interval_checks, relation_checks)


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
