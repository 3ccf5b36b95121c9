"""Shared measurement plumbing of the three workloads."""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.answer import AuthorizedAnswer

#: Latency charged to a failed or refused request: it missed any limit.
MISSED_MS = 1e6
#: Rates are taken over this share of a phase's windows of each kind,
#: the fastest, and over at least ``MIN_FAST`` of them.
FAST_SHARE = 0.1
MIN_FAST = 3


@dataclass
class OpCounts:
    """Attempts and failures of one kind of operation."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Window:
    """A stretch of a timed phase: a fixed amount of work, how long it
    took and, when the workload reads latency per window, the latencies
    of its requests.  Windows of one ``kind`` hold the same work."""

    kind: int = 0
    seconds: float = 0.0
    ops: int = 0
    rows: int = 0
    waits_ms: List[float] = field(default_factory=list)


@dataclass
class Measurement:
    """What one timed phase of a workload produced.

    The host this benchmark was tuned on is shared, and its speed
    switches between regimes up to 40% apart for seconds at a time, so
    a rate over the whole phase mostly measures how long the host was
    slow.  A phase is therefore cut into windows of a fixed amount of
    work, and a rate is taken over the fastest ``FAST_SHARE`` of the
    windows of each kind, pooled.  Like the best of ``timeit``'s
    repeats, this reads the program at the host's best speed, and a
    slower program moves every window alike.

    ``waits_ms`` holds one latency sample per delivered answer, timed
    from when the request was due or made to its answer's last row.
    Latency percentiles are read from all of them, unless ``uniform``
    says the windows of a kind hold the same requests: then picking the
    fastest windows picks the host's speed and not a cheaper mix of
    requests, and latency is read from the same windows as the rates.
    """

    windows: List[Window] = field(default_factory=list)
    waits_ms: List[float] = field(default_factory=list)
    uniform: bool = False
    #: Requests (authorize calls) completed, the per-request base of
    #: the per-layer metrics.
    requests: int = 0
    counts: Dict[str, OpCounts] = field(default_factory=dict)
    #: Workload-specific samples, e.g. generator lateness.
    extra: Dict[str, List[float]] = field(default_factory=dict)
    #: Highest resident set size sampled during the phase, in MB.
    peak_rss_mb: float = 0.0

    def count(self, kind: str, failed: bool) -> None:
        entry = self.counts.setdefault(kind, OpCounts())
        entry.attempted += 1
        if failed:
            entry.failed += 1

    def sample_rss(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.counts.values())

    @property
    def ops_per_s(self) -> float:
        return self._rate(lambda w: w.ops)

    @property
    def rows_per_s(self) -> float:
        return self._rate(lambda w: w.rows)

    def latency_ms(self, pct: float) -> float:
        """The ``pct``-th percentile latency."""
        if not self.uniform:
            return percentile(self.waits_ms, pct)
        fast = fastest(self.windows, lambda w: -w.ops / w.seconds)
        return percentile([ms for w in fast for ms in w.waits_ms], pct)

    def _rate(self, amount: Callable[[Window], int]) -> float:
        fast = fastest(self.windows, lambda w: -amount(w) / w.seconds)
        return sum(amount(w) for w in fast) / sum(w.seconds for w in fast)


def answer_failed(answer: AuthorizedAnswer) -> bool:
    """An answer counts as failed when it was denied with an error or
    served below full fidelity (a shed or a degraded derivation)."""
    return answer.error is not None or answer.degradation_level > 0


def zipf_weights(count: int, skew: float) -> List[float]:
    """Weights of ranks ``0..count-1`` under a Zipf law of ``skew``."""
    return [1.0 / (rank + 1) ** skew for rank in range(count)]


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolated between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def fastest(windows: Sequence[Window],
            cost: Callable[[Window], float]) -> List[Window]:
    """Of each kind of ``windows``, the ``FAST_SHARE``, but at least
    ``MIN_FAST``, of the lowest ``cost``."""
    kinds: Dict[int, List[Window]] = {}
    for window in windows:
        kinds.setdefault(window.kind, []).append(window)
    return [
        window for group in kinds.values()
        for window in sorted(group, key=cost)[
            :max(MIN_FAST, round(len(group) * FAST_SHARE))]
    ]


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process, in MB.

    Reads ``/proc/self/statm`` where it exists; elsewhere falls back to
    the process's peak so far, which only ever overstates.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            return int(statm.read().split()[1]) * _PAGE_MB
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
