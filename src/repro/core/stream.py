"""Chunk-streamed authorized answers: bounded-memory delivery.

:class:`AnswerStream` is the iterator-mode counterpart of
:class:`~repro.core.answer.AuthorizedAnswer`, produced by
:meth:`repro.core.engine.AuthorizationEngine.authorize_stream`.  The
*authorization decision* is the same one: the engine's one
establishment step (snapshot, derivation, denial, compiled mask,
inferred permits) runs for both, and the stream carries its
``derivation`` just as an answer does.  Only the answer side is a
pipeline: evaluation yields deduplicated rows in chunks
(:func:`repro.algebra.optimize.iter_evaluate_optimized` on the Python
backend, materialize-and-chunk elsewhere), and the engine's one
mask-and-tally step masks each chunk, which is delivered and dropped.
A 10^7-row answer therefore never exists in memory at once; what is
retained is the filtered sides of the joined occurrences, the dedupe
set when the projection drops a column, and one chunk.

The stream accounts delivery statistics as it goes, so after
exhaustion :meth:`AnswerStream.stats` reports exactly what
``AuthorizedAnswer.stats()`` would have for the same request — over
the rows *actually delivered*: a stream that failed closed mid-way (or
was abandoned by its consumer) reports the prefix it delivered, with
:attr:`AnswerStream.error` carrying the failure.  The audit trail gets
one record per stream, written when the stream ends by the same
builder that records whole answers.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.algebra.expression import PSJQuery
from repro.calculus.ast import Query
from repro.core.answer import DeliveryStats
from repro.core.mask import Mask
from repro.core.statements import InferredPermit
from repro.metaalgebra.plan import MaskDerivation

#: One delivered chunk: answer tuples whose hidden cells hold the
#: ``MASKED`` sentinel (the streaming unit of ``Mask.apply`` output).
MaskedChunk = Tuple[Tuple, ...]


class AnswerStream:
    """A chunk-streamed authorized answer.

    Iterate to receive masked chunks; each chunk is a tuple of answer
    rows with withheld cells replaced by the ``MASKED`` sentinel
    (exactly :meth:`repro.core.mask.Mask.apply` output, cut into
    ``chunk_size`` pieces — byte-identity is property-tested in
    ``tests/test_stream.py``).  The authorization metadata — mask,
    permits, degradation level, backend provenance — is available
    immediately, along with the :attr:`derivation` it came from;
    delivery statistics accumulate as chunks are consumed and are final
    once :attr:`finished` is True.

    A denied or failed request, a mask that fails to compile
    included, yields an empty stream with :attr:`error` set (the
    fail-closed shape).  A mid-stream failure
    ends the stream early — already-delivered chunks stand, the
    remainder is withheld — and sets :attr:`error` likewise.
    """

    __slots__ = (
        "user", "query", "plan", "derivation", "mask", "permits",
        "chunk_size", "cache_hit", "degradation_level", "backend_used",
        "failover_reason", "error", "finished", "arity", "_stats",
        "_chunks",
    )

    def __init__(
        self,
        user: str,
        query: Query,
        plan: PSJQuery,
        derivation: MaskDerivation,
        mask: Mask,
        permits: Tuple[InferredPermit, ...],
        chunk_size: int,
        arity: int,
        cache_hit: bool = False,
        degradation_level: int = 0,
        error: Optional[str] = None,
        backend_used: Optional[str] = None,
        failover_reason: Optional[str] = None,
    ) -> None:
        self.user = user
        self.query = query
        self.plan = plan
        #: The mask derivation, as on ``AuthorizedAnswer`` (the empty
        #: one on a denial); the audit record reads its views.
        self.derivation = derivation
        self.mask = mask
        self.permits = permits
        self.chunk_size = chunk_size
        self.arity = arity
        self.cache_hit = cache_hit
        self.degradation_level = degradation_level
        #: Failure diagnostic: set up-front on a denial, or mid-stream
        #: when delivery failed closed after some chunks.
        self.error = error
        self.backend_used = backend_used
        self.failover_reason = failover_reason
        #: True once the stream ended (exhausted, failed, or closed);
        #: statistics are final from then on.
        self.finished = error is not None
        self._stats = DeliveryStats.of((), arity)
        #: The chunk source, attached by the engine after construction
        #: (the generator closes over this instance for accounting).
        self._chunks: Iterator[MaskedChunk] = iter(())

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[MaskedChunk]:
        return self._chunks

    def chunks(self) -> Iterator[MaskedChunk]:
        """The masked chunks, in answer order (alias of iteration)."""
        return self._chunks

    def rows(self) -> Iterator[Tuple]:
        """The masked rows one by one (flattens the chunks)."""
        for chunk in self._chunks:
            for row in chunk:
                yield row

    def close(self) -> None:
        """Abandon the stream: the remainder is never evaluated.

        Closing triggers the same end-of-stream bookkeeping as
        exhaustion — the audit record covers the delivered prefix.
        """
        close = getattr(self._chunks, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # accounting (driven by the engine's chunk generator)
    # ------------------------------------------------------------------

    def account(self, stats: DeliveryStats) -> None:
        """Fold one delivered chunk's statistics into the running
        total (the engine tallies each chunk as it masks it)."""
        self._stats += stats

    def stats(self) -> DeliveryStats:
        """Delivery statistics over the chunks consumed *so far*.

        Identical to ``AuthorizedAnswer.stats()`` for the same request
        once the stream is exhausted.
        """
        return self._stats

    @property
    def total_rows(self) -> int:
        """Rows delivered so far."""
        return self._stats.total_rows

    @property
    def failed_over(self) -> bool:
        """True when evaluation ran on the failover oracle."""
        return self.failover_reason is not None

    def __repr__(self) -> str:
        state = "finished" if self.finished else "open"
        return (
            f"AnswerStream(user={self.user!r}, {state}, "
            f"{self.total_rows} rows delivered)"
        )


__all__ = ["AnswerStream", "MaskedChunk"]
