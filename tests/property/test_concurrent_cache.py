"""Property tests: the derivation cache under real thread interleavings.

The serving layer calls one tenant engine, and so one
:class:`DerivationCache`, from many worker threads.  Thread hammers
check what sequential tests cannot: a lookup never returns an entry
stored under a different key (the content-key invariant that makes
revocation safe: a revoke changes the key, so the old entry is
unreachable), statistics account for every lookup with no lost
increments, and the LRU bound holds exactly.

Payloads are plain tagged strings: the cache stores and serves
derivations opaquely (the engine revalidates types on the way out), so
the properties here are purely about bookkeeping under interleaving.
Keys have the engine's shape, ``(plan key, definition serials)``.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import DerivationCache

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "30"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

USERS = ["ann", "bob", "cay"]
PLANS = [f"plan{i}" for i in range(6)]


def key(plan, *serials):
    return (plan, serials)


class TestConcurrentHammer:
    def test_lookups_never_cross_token_generations(self):
        """The content-key invariant under real interleavings: a get
        of key K only ever returns a value stored under exactly K.
        Each user's serials advance as a revoker thread races the
        hammers (the analogue of grant changes), so every generation
        of a user's grants has its own keys and an old generation's
        value can never answer a new generation's lookup."""
        cache = DerivationCache(256)
        current = {"serial": 0}
        violations = []
        stop = threading.Event()

        def hammer(user):
            index = USERS.index(user)
            while not stop.is_set():
                serial = current["serial"]
                for plan in PLANS:
                    cache.put(key(plan, index, serial),
                              f"{plan}/{index}/{serial}")
                probe = current["serial"]
                for plan in PLANS:
                    value = cache.get(key(plan, index, probe))
                    if value is not None and \
                            value != f"{plan}/{index}/{probe}":
                        violations.append((user, value, probe))

        def revoker():
            for _ in range(200):
                current["serial"] += 1

        threads = [
            threading.Thread(target=hammer, args=(user,), daemon=True)
            for user in USERS for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        bumper = threading.Thread(target=revoker, daemon=True)
        bumper.start()
        bumper.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert violations == []

    def test_statistics_lose_no_increments(self):
        """hits + misses must equal the exact number of lookups even
        when every counter is contended — a lost increment means the
        stats lock is broken."""
        cache = DerivationCache(256)
        lookups_per_thread = 500
        threads = 6

        def worker(index):
            for i in range(lookups_per_thread):
                entry = key(PLANS[i % len(PLANS)], index % len(USERS))
                if i % 3 == 0:
                    cache.put(entry, f"{entry}")
                cache.get(entry)

        pool = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = cache.stats
        assert stats.lookups == threads * lookups_per_thread
        assert stats.evictions == 0
        assert stats.invalidations == 0


class TestEvictionBound:
    @SLOW
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=120),
    )
    def test_occupancy_never_exceeds_the_rounded_capacity(
            self, capacity, puts):
        """One global LRU: occupancy never exceeds the configured
        capacity, and every store past it evicts exactly one entry."""
        cache = DerivationCache(capacity)
        for i in range(puts):
            cache.put(key(f"plan{i}", 0), f"d{i}")
        assert len(cache) == min(puts, capacity)
        assert cache.stats.evictions == puts - len(cache)

    def test_disabled_cache_stores_nothing(self):
        cache = DerivationCache(0)
        assert not cache.enabled
        cache.put(key("plan0", 0), "d")
        assert cache.get(key("plan0", 0)) is None
        assert len(cache) == 0
        assert cache.stats.lookups == 0
