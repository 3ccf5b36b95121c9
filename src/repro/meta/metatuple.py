"""Meta-tuples: single-relation subview definitions (Section 3).

"Each individual meta-tuple may be regarded as defining a subview of
the corresponding relation.  The constants and variables specify the
selection condition, and the *'s specify the projected attributes."

A :class:`MetaTuple` additionally carries:

* ``views`` — the names of the views it belongs to.  Catalog tuples
  belong to exactly one view; the self-join refinement produces
  combined tuples belonging to several (the paper's ``EST, SAE`` rows
  in Example 3).
* ``provenance`` — the identities of the *original* catalog meta-tuples
  it descends from.  Provenance drives the dangling-reference pruning
  of Section 4.1: a variable is resolved within a product row only when
  every original meta-tuple that defines it is present in the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.calculus.normalize import VarContent
from repro.meta.cell import MetaCell
from repro.predicates.store import ConstraintStore

#: Identity of an original catalog meta-tuple: (view name, ordinal).
TupleId = Tuple[str, int]


@dataclass(frozen=True)
class MetaTuple:
    """An immutable meta-tuple."""

    views: FrozenSet[str]
    cells: Tuple[MetaCell, ...]
    provenance: FrozenSet[TupleId] = field(default_factory=frozenset)

    # -- basic accessors --------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.cells)

    def variables(self) -> Tuple[str, ...]:
        """Variables in cell order, first occurrence only."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            name = cell.var_name
            if name is not None:
                seen.setdefault(name)
        return tuple(seen)

    def var_positions(self, var: str) -> Tuple[int, ...]:
        """Positions of all cells holding variable ``var``."""
        return tuple(
            i for i, cell in enumerate(self.cells) if cell.var_name == var
        )

    def starred_positions(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c.starred)

    @property
    def has_stars(self) -> bool:
        return any(c.starred for c in self.cells)

    @property
    def is_all_blank(self) -> bool:
        return all(c.is_blank for c in self.cells)

    # -- functional updates ------------------------------------------------

    def replace_cell(self, index: int, cell: MetaCell) -> "MetaTuple":
        cells = list(self.cells)
        cells[index] = cell
        return MetaTuple(self.views, tuple(cells), self.provenance)

    def replace_cells(self, updates: Dict[int, MetaCell]) -> "MetaTuple":
        cells = list(self.cells)
        for index, cell in updates.items():
            cells[index] = cell
        return MetaTuple(self.views, tuple(cells), self.provenance)

    def substitute_var(self, var: str, replacement: MetaCell
                       ) -> "MetaTuple":
        """Replace every occurrence of ``var`` with ``replacement``'s
        content, preserving each cell's own star flag."""
        cells = tuple(
            cell.with_content(replacement.content)
            if cell.var_name == var else cell
            for cell in self.cells
        )
        return MetaTuple(self.views, cells, self.provenance)

    def rename_var(self, old: str, new: str) -> "MetaTuple":
        cells = tuple(
            MetaCell(VarContent(new), cell.starred)
            if cell.var_name == old else cell
            for cell in self.cells
        )
        return MetaTuple(self.views, cells, self.provenance)

    def project(self, keep: Sequence[int]) -> "MetaTuple":
        """Keep only the cells at positions ``keep`` (in that order).

        This is mechanical column removal; Definition 3's blankness
        test lives in the meta-projection operator.
        """
        return MetaTuple(
            self.views,
            tuple(self.cells[i] for i in keep),
            self.provenance,
        )

    def concat(self, other: "MetaTuple") -> "MetaTuple":
        """Definition 1: concatenation of two meta-tuples."""
        return MetaTuple(
            self.views | other.views,
            self.cells + other.cells,
            self.provenance | other.provenance,
        )

    # -- rendering -----------------------------------------------------------

    def view_label(self) -> str:
        """Display label: ``ELP`` or ``EST, SAE`` for combined tuples."""
        return ", ".join(sorted(self.views))

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.cells)
        return f"({inner})"


def blank_tuple(arity: int) -> MetaTuple:
    """An all-blank, unstarred meta-tuple (the padding of Section 4.2)."""
    return MetaTuple(
        views=frozenset(),
        cells=tuple(MetaCell.blank() for _ in range(arity)),
        provenance=frozenset(),
    )


def canonical_key(
    meta: MetaTuple,
    store: Optional[ConstraintStore] = None,
    include_provenance: bool = False,
) -> Tuple:
    """A structural key identifying a meta-tuple up to variable renaming.

    Variables are numbered by first appearance; each variable's interval
    (its normal-form bounds and excluded points, not its ``discrete``
    flag) and the (renamed) relations from ``store`` are folded in, so
    two rows that differ only in variable names — the paper's
    "replications" — share a key and can be removed.  View names are
    always part of the key; set ``include_provenance`` for the stricter
    key used *before* the dangling-reference pruning, where
    cell-identical rows with different provenance must stay distinct
    (they prune differently — Example 3's two ``EST, SAE``
    combinations are the canonical case).
    """
    numbering: Dict[str, int] = {}
    cell_parts = []
    for cell in meta.cells:
        var = cell.var_name
        if var is not None:
            index = numbering.setdefault(var, len(numbering))
            cell_parts.append(("v", index, cell.starred))
        elif cell.is_constant:
            cell_parts.append(("c", cell.const_value, cell.starred))
        else:
            cell_parts.append(("b", None, cell.starred))

    constraint_parts: Tuple = ()
    if store is not None:
        mapping = {var: f"@{i}" for var, i in numbering.items()}
        local = store.restrict_closure(set(numbering)).rename(mapping)
        intervals = tuple(
            (iv.lo, iv.lo_strict, iv.hi, iv.hi_strict, iv.excluded)
            for iv in map(local.interval_for, mapping.values())
        )
        constraint_parts = (intervals, local.relation_set)

    provenance_part: Tuple = ()
    if include_provenance:
        provenance_part = tuple(sorted(meta.provenance))

    return (
        tuple(sorted(meta.views)),
        tuple(cell_parts),
        constraint_parts,
        provenance_part,
    )

