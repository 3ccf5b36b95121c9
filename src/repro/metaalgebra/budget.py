"""Resource budgets for mask derivation.

The refinements are where derivation cost explodes: product padding
multiplies meta-tuples per product node, and the self-join closure is
worst-case exponential in the number of pairwise-joinable views.  A
:class:`Budget` makes those costs explicit — a cap on meta-tuples
materialized per operator node, a cap on the self-join pool a
derivation will consume, and a wall-time deadline — and is threaded
through the meta-algebra operators, which check it at their boundaries.

Exhaustion raises :class:`~repro.errors.BudgetExceededError` or
:class:`~repro.errors.DerivationTimeout`.  Neither ever reaches a
caller of ``authorize``: the degradation ladder
(``repro.metaalgebra.ladder``) catches both and re-derives at a
cheaper rung, so overload degrades the mask (soundly — it only ever
shrinks) instead of failing the request.

Budgets are off by default (``EngineConfig`` limits of 0); a derivation
without a budget passes ``None`` everywhere and pays nothing.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.config import EngineConfig
from repro.errors import BudgetExceededError, DerivationTimeout


class Budget:
    """Mutable per-derivation fuel: row caps and a deadline.

    One instance covers one derivation attempt (one ladder rung); the
    ladder issues a fresh budget per rung, so the worst case is
    ``len(ladder) * deadline`` wall time.

    Args:
        max_rows: cap on meta-tuples materialized by any single
            operator node (0 = unlimited).
        max_selfjoin_pool: cap on the per-relation self-join pool
            (originals plus closure) a derivation will consume
            (0 = unlimited).
        deadline_ms: wall-time limit for the derivation
            (0 = no deadline).
        max_stream_rows: cap on total rows one chunk-streamed answer
            may deliver (0 = unlimited) — the delivery-side budget,
            metered per chunk by ``AuthorizationEngine.
            authorize_stream`` rather than at derivation operators.
        clock: monotonic time source, replaceable for tests.
    """

    __slots__ = ("max_rows", "max_selfjoin_pool", "deadline_ms",
                 "max_stream_rows", "_clock", "_deadline", "_ticks")

    #: Deadline polling stride of :meth:`tick` (amortizes clock reads).
    CHECK_EVERY = 32

    def __init__(self, max_rows: int = 0, max_selfjoin_pool: int = 0,
                 deadline_ms: float = 0.0, max_stream_rows: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_rows = max_rows
        self.max_selfjoin_pool = max_selfjoin_pool
        self.deadline_ms = deadline_ms
        self.max_stream_rows = max_stream_rows
        self._clock = clock
        self._deadline: Optional[float] = (
            clock() + deadline_ms / 1000.0 if deadline_ms > 0 else None
        )
        self._ticks = 0

    @classmethod
    def from_config(cls, config: EngineConfig,
                    clock: Callable[[], float] = time.monotonic
                    ) -> Optional["Budget"]:
        """A budget for ``config``, or ``None`` when it sets no limits."""
        if (config.max_mask_rows <= 0
                and config.max_selfjoin_pool <= 0
                and config.derivation_deadline_ms <= 0
                and config.max_stream_rows <= 0):
            return None
        return cls(
            max_rows=config.max_mask_rows,
            max_selfjoin_pool=config.max_selfjoin_pool,
            deadline_ms=config.derivation_deadline_ms,
            max_stream_rows=config.max_stream_rows,
            clock=clock,
        )

    # ------------------------------------------------------------------
    # checks (called at operator boundaries)
    # ------------------------------------------------------------------

    def charge_rows(self, count: int, stage: str) -> None:
        """Fail if an operator node materialized more than ``max_rows``."""
        if self.max_rows and count > self.max_rows:
            raise BudgetExceededError("mask-rows", stage, count,
                                      self.max_rows)

    def charge_selfjoin(self, count: int, stage: str) -> None:
        """Fail if a self-join pool exceeds ``max_selfjoin_pool``."""
        if self.max_selfjoin_pool and count > self.max_selfjoin_pool:
            raise BudgetExceededError("selfjoin-pool", stage, count,
                                      self.max_selfjoin_pool)

    def charge_stream(self, total_rows: int, stage: str) -> None:
        """Fail once a streamed delivery exceeds ``max_stream_rows``.

        Called with the *cumulative* count of delivered rows (after
        masking, so rows a dropping mask withholds are not charged)
        before each chunk is yielded: already-yielded chunks stand
        (they were within budget), the offending chunk is never
        delivered, and the engine ends the stream failed-closed.
        """
        if self.max_stream_rows and total_rows > self.max_stream_rows:
            raise BudgetExceededError("stream-rows", stage, total_rows,
                                      self.max_stream_rows)

    def check_deadline(self, stage: str) -> None:
        """Fail if the wall-time deadline has passed."""
        if self._deadline is not None and self._clock() > self._deadline:
            raise DerivationTimeout(stage, self.deadline_ms)

    def tick(self, stage: str) -> None:
        """Cheap per-iteration probe: polls the deadline every
        :data:`CHECK_EVERY` calls so inner loops stay clock-free."""
        self._ticks += 1
        if self._ticks % self.CHECK_EVERY == 0:
            self.check_deadline(stage)

    # ------------------------------------------------------------------
    # simulated time (fault injection)
    # ------------------------------------------------------------------

    def elapse(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated wall time (a ``slow`` fault
        moves the deadline closer instead of actually sleeping)."""
        if self._deadline is not None:
            self._deadline -= seconds
