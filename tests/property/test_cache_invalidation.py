"""Property tests: the derivation cache never serves a stale mask.

Random interleavings of ``permit`` / ``revoke`` / ``define_view`` /
``drop_view`` / redefinition / ``authorize`` run against two engines
over the *same* database and catalog — one with the cache on, one with
it off.  After every single operation the cached engine must deliver
exactly what the uncached engine delivers, for every user: in
particular, after any revoke the very next authorize for that user
reflects it.  Cache keys name the plan and the definition serials of
the admissible views, not the user, so users holding equal admissible
views share entries; the workloads include a user whose grants copy
another's to exercise that sharing.

The example budget is small by default so the tier-1 run stays fast;
the nightly CI job raises ``REPRO_HYPOTHESIS_MAX_EXAMPLES`` (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "20"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)

#: One interleaving step: (opcode, pick-a, pick-b); the picks are
#: reduced modulo the live view/user/query pools.
ops = st.lists(
    st.tuples(
        st.sampled_from(["permit", "revoke", "define", "drop",
                         "redefine", "authorize"]),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=12,
)


def observable(answer):
    return (
        answer.labels,
        answer.delivered,
        tuple(str(p) for p in answer.permits),
    )


#: A user whose grants start as a copy of the first user's.
COPY = "copy"


def build_pair(seed):
    """Two engines over one shared database and catalog, whose grants
    include :data:`COPY`."""
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=6)
    workload = generator.workload(spec)
    for view_name in workload.catalog.views_of(workload.users[0]):
        workload.catalog.permit(view_name, COPY)
    cached = AuthorizationEngine(
        workload.database, workload.catalog, DEFAULT_CONFIG
    )
    uncached = AuthorizationEngine(
        workload.database, workload.catalog,
        DEFAULT_CONFIG.but(derivation_cache_size=0),
    )
    queries = [
        generator.query(spec, workload.database.schema) for _ in range(3)
    ]
    return generator, spec, workload, cached, uncached, queries


class TestInterleavings:
    @SLOW
    @given(seeds, ops)
    def test_cached_engine_tracks_every_mutation(self, seed, steps):
        generator, spec, workload, cached, uncached, queries = \
            build_pair(seed)
        catalog = workload.catalog
        users = list(workload.users) + [COPY]
        fresh_views = 0

        for opcode, a, b in steps:
            views = list(catalog.view_names())
            user = users[a % len(users)]
            if not views and opcode in ("permit", "drop", "redefine"):
                continue  # every view was dropped: nothing to pick
            if opcode == "permit":
                catalog.permit(views[b % len(views)], user)
            elif opcode == "drop":
                catalog.drop_view(views[b % len(views)])
            elif opcode == "redefine":
                # Same name, another body, granted to the same users.
                name = views[b % len(views)]
                holders = [u for u in users if catalog.is_permitted(u, name)]
                catalog.drop_view(name)
                catalog.define_view(generator.view(
                    spec, workload.database.schema, name
                ))
                for holder in holders:
                    catalog.permit(name, holder)
            elif opcode == "revoke":
                granted = catalog.views_of(user)
                if granted:
                    catalog.revoke(granted[b % len(granted)], user)
            elif opcode == "define":
                name = f"W{fresh_views}"
                fresh_views += 1
                catalog.define_view(generator.view(
                    spec, workload.database.schema, name
                ))
                catalog.permit(name, user)
            else:  # authorize
                query = queries[b % len(queries)]
                hot = cached.authorize(user, query)
                cold = uncached.authorize(user, query)
                assert observable(hot) == observable(cold), (
                    f"seed={seed} op=authorize user={user}"
                )
            # After *every* mutation, every user's next authorize must
            # agree with the uncached engine — a cached mask that
            # survives a revoke is a security hole.
            probe = queries[a % len(queries)]
            for probe_user in users:
                hot = cached.authorize(probe_user, probe)
                cold = uncached.authorize(probe_user, probe)
                assert observable(hot) == observable(cold), (
                    f"seed={seed} op={opcode} probe_user={probe_user}"
                )

    @SLOW
    @given(seeds)
    def test_revoke_never_leaves_a_stale_grant(self, seed):
        _, _, workload, cached, uncached, queries = build_pair(seed)
        catalog = workload.catalog
        users = list(workload.users) + [COPY]
        for user in users:
            for query in queries:
                cached.authorize(user, query)  # warm the cache
        for user in users:
            for view_name in list(catalog.views_of(user)):
                catalog.revoke(view_name, user)
                for query in queries:
                    hot = cached.authorize(user, query)
                    cold = uncached.authorize(user, query)
                    assert observable(hot) == observable(cold), (
                        f"seed={seed} user={user} revoked={view_name}"
                    )

    @SLOW
    @given(seeds)
    def test_equal_admissible_views_share_an_entry(self, seed):
        _, _, workload, cached, uncached, queries = build_pair(seed)
        query = queries[0]
        cached.authorize(workload.users[0], query)
        # COPY holds the same views, so the same key: one entry, and
        # it answers COPY exactly as an uncached derivation would.
        shared = cached.authorize(COPY, query)
        assert shared.cache_hit, f"seed={seed}"
        assert len(cached._derivation_cache) == 1
        assert observable(shared) == \
            observable(uncached.authorize(COPY, query)), f"seed={seed}"
