"""Authorized answers: the engine's result object.

The front end of Section 6 returns "a derived relation, whose structure
corresponds to the request but whose tuples include only permitted
values, and a set of inferred permit statements describing the portion
delivered" — :class:`AuthorizedAnswer` is that pair, plus the raw
answer, the mask, the derivation trace, and delivery statistics.
:class:`DeliveryStats` is the tally the engine's mask-and-tally step
returns for a whole answer or one streamed chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algebra.expression import PSJQuery
from repro.algebra.relation import Relation
from repro.calculus.ast import Query
from repro.core.mask import MASKED, Mask
from repro.core.statements import InferredPermit
from repro.metaalgebra.ladder import DEGRADATION_LEVELS
from repro.metaalgebra.plan import MaskDerivation


@dataclass(frozen=True)
class DeliveryStats:
    """Cell- and row-level accounting of one delivery."""

    total_rows: int
    total_cells: int
    delivered_cells: int
    full_rows: int
    partial_rows: int
    masked_rows: int

    @property
    def delivered_fraction(self) -> float:
        if self.total_cells == 0:
            return 1.0
        return self.delivered_cells / self.total_cells

    @classmethod
    def of(cls, rows: Sequence[Tuple], arity: int) -> "DeliveryStats":
        """Tally delivered ``rows`` of width ``arity``.

        A row is full with no ``MASKED`` cell, masked when every cell
        is ``MASKED`` (a zero-width row counts as full), else partial.
        The oracle of the masking kernel's lane tally; the engine
        itself calls it only for a denial's empty delivery.
        """
        delivered_cells = full_rows = partial_rows = masked_rows = 0
        for row in rows:
            hidden = row.count(MASKED)
            delivered_cells += arity - hidden
            if hidden == 0:
                full_rows += 1
            elif hidden == arity:
                masked_rows += 1
            else:
                partial_rows += 1
        return cls(
            total_rows=len(rows),
            total_cells=len(rows) * arity,
            delivered_cells=delivered_cells,
            full_rows=full_rows,
            partial_rows=partial_rows,
            masked_rows=masked_rows,
        )

    def __add__(self, other: "DeliveryStats") -> "DeliveryStats":
        """The tally of two deliveries taken together."""
        return DeliveryStats(
            total_rows=self.total_rows + other.total_rows,
            total_cells=self.total_cells + other.total_cells,
            delivered_cells=self.delivered_cells + other.delivered_cells,
            full_rows=self.full_rows + other.full_rows,
            partial_rows=self.partial_rows + other.partial_rows,
            masked_rows=self.masked_rows + other.masked_rows,
        )


@dataclass(frozen=True)
class AuthorizedAnswer:
    """Everything the engine returns for one retrieve statement."""

    user: str
    query: Query
    plan: PSJQuery
    answer: Relation
    mask: Mask
    delivered: Tuple[Tuple, ...]
    permits: Tuple[InferredPermit, ...]
    derivation: MaskDerivation
    #: Statistics of ``delivered``, from the engine's mask-and-tally
    #: step: the masking kernel's lane counts; all zero on a denial.
    tally: DeliveryStats
    #: Whether the mask derivation was served from the engine's
    #: derivation cache (the answer itself is always evaluated fresh).
    cache_hit: bool = False
    #: Ladder rung the mask was derived at (0 = full fidelity; see
    #: ``repro.metaalgebra.ladder``).  Under overload the mask shrinks,
    #: never grows, so a degraded answer is still sound.
    degradation_level: int = 0
    #: Diagnostic behind a fail-closed denial; ``None`` when the
    #: request was processed normally.
    error: Optional[str] = None
    #: Which execution backend actually evaluated the answer.  Under
    #: failover this may differ from the configured backend; ``None``
    #: on denials that never reached evaluation.
    backend_used: Optional[str] = None
    #: Why evaluation moved off the configured backend (retry
    #: exhaustion, open circuit breaker, backend unavailable); ``None``
    #: when the configured backend answered.  The answer itself is
    #: identical either way — mask derivation is backend-independent.
    failover_reason: Optional[str] = None

    @property
    def failed_over(self) -> bool:
        """True when evaluation ran on the failover oracle."""
        return self.failover_reason is not None

    @property
    def degraded(self) -> bool:
        """True when the mask was derived below full fidelity."""
        return self.degradation_level > 0

    @property
    def degradation(self) -> str:
        """Human-readable rung name (``"full"`` … ``"empty"``)."""
        return DEGRADATION_LEVELS[self.degradation_level]

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.answer.labels()

    @property
    def is_fully_delivered(self) -> bool:
        return all(
            all(value is not MASKED for value in row)
            for row in self.delivered
        ) and len(self.delivered) == self.answer.cardinality

    @property
    def is_fully_masked(self) -> bool:
        return all(
            all(value is MASKED for value in row) for row in self.delivered
        )

    def stats(self) -> DeliveryStats:
        """Cell- and row-level accounting of ``delivered``."""
        return self.tally

    def render(self) -> str:
        """The delivered relation plus permit statements, as text."""
        lines = [self._render_table()]
        if self.permits:
            lines.append("")
            lines.extend(p.render() for p in self.permits)
        elif not self.mask.is_empty:
            lines.append("")
            lines.append("-- delivered in full, no permit statements required")
        return "\n".join(lines)

    def _render_table(self) -> str:
        labels = self.labels
        rows: List[Tuple[str, ...]] = [
            tuple(str(value) for value in row) for row in self.delivered
        ]
        widths = [len(label) for label in labels]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Tuple[str, ...]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        header = line(tuple(labels))
        rule = "-+-".join("-" * w for w in widths)
        body = [line(row) for row in rows]
        return "\n".join([header, rule] + body)

    def __str__(self) -> str:
        return self.render()
