"""Audit log for authorization decisions.

Real access-control deployments need to answer "who asked for what and
what did they get".  An :class:`AuditLog` attached to an engine records
one :class:`AuditRecord` per retrieval — the acting user, the statement,
the views consulted, and the delivery statistics — and can render an
activity report or per-user summaries.  A whole answer
(:meth:`AuditLog.record`) and a chunk-streamed one
(:meth:`AuditLog.record_stream`, once the stream ends) go through one
record builder: both carry their derivation, permits, provenance and
the engine's tally of what was delivered.

The log stores no data values, only shapes, so the audit trail itself
never widens anyone's access.

Appends and reads are serialized by an internal lock, so one log can
be shared by every worker thread of a serving engine: sequence numbers
stay unique and gapless, capacity trimming cannot race an append, and
readers always observe a consistent snapshot of the trail.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.answer import AuthorizedAnswer, DeliveryStats
from repro.core.stream import AnswerStream


@dataclass(frozen=True)
class AuditRecord:
    """One authorized retrieval, shape only."""

    sequence: int
    user: str
    statement: str
    admissible_views: Tuple[str, ...]
    stats: DeliveryStats
    permit_statements: Tuple[str, ...]
    #: Whether the mask derivation came from the derivation cache.
    cache_hit: bool = False
    #: Ladder rung the mask was derived at (0 = full fidelity) — so
    #: operators can see overload-induced degradation in the trail.
    degradation_level: int = 0
    #: Failure behind a fail-closed denial, when there was one.
    error: Optional[str] = None
    #: Which execution backend evaluated the answer (None on denials
    #: that never reached evaluation).
    backend_used: Optional[str] = None
    #: Why evaluation failed over to the oracle, when it did — the
    #: trail must show operational reroutes, not just denials.
    failover_reason: Optional[str] = None

    @property
    def outcome(self) -> str:
        if self.stats.delivered_cells == 0:
            return "denied"
        if self.stats.delivered_cells == self.stats.total_cells:
            return "full"
        return "partial"


class AuditLog:
    """An append-only, in-memory audit trail."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        #: Oldest records are dropped beyond ``capacity`` (None = keep all).
        self.capacity = capacity
        self._records: List[AuditRecord] = []
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, answer: AuthorizedAnswer) -> AuditRecord:
        """Append a record for ``answer`` and return it (thread-safe)."""
        return self._append(answer)

    def record_stream(self, stream: AnswerStream) -> AuditRecord:
        """Append the record of a chunk-streamed delivery (thread-safe).

        The engine calls this once the stream ends — exhausted, failed
        closed, or abandoned by the consumer — so the record covers
        exactly what was actually delivered.
        """
        return self._append(stream)

    def _append(self, delivery: Union[AuthorizedAnswer, AnswerStream]
                ) -> AuditRecord:
        """The one record builder.

        The record is built outside the lock; only numbering and the
        append are serial.  ``stats()`` is the engine's tally, so no
        delivered row is walked again here.
        """
        stats = delivery.stats()
        permits = tuple(str(p) for p in delivery.permits)
        with self._lock:
            entry = AuditRecord(
                sequence=next(self._counter),
                user=delivery.user,
                statement=str(delivery.query),
                admissible_views=delivery.derivation.admissible_views,
                stats=stats,
                permit_statements=permits,
                cache_hit=delivery.cache_hit,
                degradation_level=delivery.degradation_level,
                error=delivery.error,
                backend_used=delivery.backend_used,
                failover_reason=delivery.failover_reason,
            )
            self._records.append(entry)
            if self.capacity is not None \
                    and len(self._records) > self.capacity:
                del self._records[0:len(self._records) - self.capacity]
        return entry

    # ------------------------------------------------------------------
    # queries over the trail
    # ------------------------------------------------------------------

    def records(self, user: Optional[str] = None
                ) -> Tuple[AuditRecord, ...]:
        """All records, optionally filtered by user."""
        with self._lock:
            snapshot = tuple(self._records)
        if user is None:
            return snapshot
        return tuple(r for r in snapshot if r.user == user)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def outcome_counts(self, user: Optional[str] = None
                       ) -> Dict[str, int]:
        """How many denied / partial / full deliveries."""
        counts = {"denied": 0, "partial": 0, "full": 0}
        for entry in self.records(user):
            counts[entry.outcome] += 1
        return counts

    def cached_count(self, user: Optional[str] = None) -> int:
        """How many recorded derivations were served from the cache."""
        return sum(1 for r in self.records(user) if r.cache_hit)

    def degraded_count(self, user: Optional[str] = None) -> int:
        """How many recorded derivations ran below full fidelity."""
        return sum(
            1 for r in self.records(user) if r.degradation_level > 0
        )

    def failover_count(self, user: Optional[str] = None) -> int:
        """How many recorded answers were evaluated on the failover
        oracle rather than the configured backend."""
        return sum(
            1 for r in self.records(user) if r.failover_reason is not None
        )

    def delivered_fraction(self, user: Optional[str] = None) -> float:
        """Overall delivered-cells ratio across the trail."""
        total = delivered = 0
        for entry in self.records(user):
            total += entry.stats.total_cells
            delivered += entry.stats.delivered_cells
        if total == 0:
            return 1.0
        return delivered / total

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def report(self) -> str:
        """A human-readable activity report."""
        entries = self.records()
        if not entries:
            return "(no authorizations recorded)"
        lines = []
        for entry in entries:
            stats = entry.stats
            cached = " [cached]" if entry.cache_hit else ""
            degraded = (
                f" [degraded:{entry.degradation_level}]"
                if entry.degradation_level > 0 else ""
            )
            failed = " [fail-closed]" if entry.error is not None else ""
            if entry.failover_reason is not None:
                failed += f" [failover:{entry.backend_used}]"
            lines.append(
                f"#{entry.sequence} {entry.user}: {entry.outcome} "
                f"({stats.delivered_cells}/{stats.total_cells} cells) "
                f"via {', '.join(entry.admissible_views) or '(no views)'}"
                f"{cached}{degraded}{failed}"
            )
            lines.append(f"    {entry.statement}")
        summary = self.outcome_counts()
        lines.append(
            f"-- {len(entries)} requests: "
            f"{summary['full']} full, {summary['partial']} partial, "
            f"{summary['denied']} denied; "
            f"{self.cached_count()} served from the derivation cache; "
            f"{self.degraded_count()} degraded"
        )
        return "\n".join(lines)
