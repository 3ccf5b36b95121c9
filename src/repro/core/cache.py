"""The mask-derivation cache.

Section 5's cost model says authorization is dominated by running the
query plan over the meta-relations, and recommends storing derived
artifacts "with the original view definitions, until these definitions
are modified".  :class:`DerivationCache` extends that advice from
self-join closures to whole :class:`~repro.metaalgebra.plan.MaskDerivation`
results: an LRU map keyed by what a derivation reads.

**Keys name content.**  A derivation is a pure function of the
canonical plan and the definitions of the user's admissible views
(:class:`~repro.meta.catalog.ViewSnapshot`), so the key is
``(canonical plan key, definition serials of the snapshot in grant
order)``.  The catalog never reuses a serial, so a ``permit``,
``revoke`` or redefinition that changes what a user may read changes
the key itself: a stale mask cannot be served, by construction rather
than by a version compare, and an entry outlived by its grants simply
ages out of the LRU.  Users whose admissible views are equal share one
entry.  A cache that served a mask past a revoke would be a security
hole, not a performance bug (cf. Guarnieri et al., "Strong and
Provably Secure Database Access Control"); the differential and
property suites in ``tests/test_derivation_cache.py`` and
``tests/property/test_cache_invalidation.py`` enforce transparency.
Serials are only unique within one catalog, so a cache belongs to one
engine and is never shared.

**Thread safety.**  Every public method takes the cache's internal
lock, so lookups, stores, stats increments and LRU eviction are atomic
with respect to each other — the serving layer (:mod:`repro.serving`)
calls one tenant engine from many worker threads.  Because the key is
taken from one snapshot and the derivation reads that same snapshot, a
revoke that lands mid-derivation cannot make the stored entry wrong
for its key.  ``tests/property/test_concurrent_cache.py`` exercises
the interleavings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.metaalgebra.canonical import PlanKey
from repro.metaalgebra.plan import MaskDerivation
from repro.testing.faults import maybe_corrupt, maybe_fault

#: What a cache entry is keyed by: the canonical plan key and the
#: definition serials of the admissible views, in grant order.
DerivationKey = Tuple[PlanKey, Tuple[int, ...]]


@dataclass
class CacheStats:
    """Running counters of one cache's behaviour.

    Attributes:
        hits: lookups served from an entry.
        misses: lookups that found no entry.
        invalidations: entries dropped by :meth:`DerivationCache.clear`.
        evictions: entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (1.0 when nothing was looked up)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups

    def render(self) -> str:
        return (
            f"derivation cache: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), "
            f"{self.invalidations} invalidations, "
            f"{self.evictions} evictions"
        )

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class _Entry:
    derivation: MaskDerivation
    #: Compiled mask-application kernel for the derivation's mask
    #: (``repro.core.compiled_mask``), attached lazily by the engine on
    #: first delivery.  It lives and dies with the entry, under the
    #: same content key.
    compiled: Optional[object] = None


class DerivationCache:
    """LRU cache of mask derivations keyed by their inputs.

    Capacity 0 (or negative) disables the cache entirely: lookups
    return ``None`` without touching the statistics, stores are
    dropped.

    All public methods are atomic under one internal lock: statistics
    increments, the LRU bump inside :meth:`get`, and the
    store-plus-eviction inside :meth:`put` each happen as a unit, so
    the cache may be shared between threads (the serving layer does).
    Derivations themselves are computed outside the cache and never
    mutated after a store, so served references are safe to read
    without the lock.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[DerivationKey, _Entry]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def get(self, key: DerivationKey) -> Optional[MaskDerivation]:
        """The cached derivation, or ``None`` on a miss."""
        if not self.enabled:
            return None
        maybe_fault("cache.get")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        # The engine revalidates what comes back (see
        # AuthorizationEngine._valid_cached): a corrupted entry is
        # treated as a miss, never served.
        return maybe_corrupt("cache.entry", entry.derivation)

    def put(self, key: DerivationKey, derivation: MaskDerivation) -> None:
        """Store ``derivation``, evicting least-recently-used entries."""
        if not self.enabled:
            return
        maybe_fault("cache.put")
        with self._lock:
            self._entries[key] = _Entry(derivation)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # compiled mask kernels (stored alongside the derivation)
    # ------------------------------------------------------------------

    def get_compiled(self, key: DerivationKey) -> Optional[object]:
        """The compiled mask attached to ``key``'s entry, else ``None``.

        Deliberately side-effect free: no statistics and no LRU bump —
        the derivation lookup that precedes it already did both.  The
        engine revalidates the type of what comes back before using it.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.compiled

    def put_compiled(self, key: DerivationKey, compiled: object) -> None:
        """Attach a compiled mask to ``key``'s entry.

        A no-op when the entry is gone (evicted or cleared): a compiled
        mask never outlives the derivation it was built from.
        """
        if not self.enabled:
            return
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries[key] = replace(entry, compiled=compiled)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
