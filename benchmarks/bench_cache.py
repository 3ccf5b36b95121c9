"""The derivation cache on a Zipf-skewed authorize stream.

The acceptance bar for the cache subsystem: on a repetitive workload
(the realistic case — a few hot statements dominate), end-to-end
``authorize`` with the cache on must be at least 5x faster than with
the cache off, while delivering byte-identical answers.  The speedup
test measures both modes directly with ``time.perf_counter`` (the two
engines share one database and one catalog, so the comparison is
apples to apples); the pytest-benchmark entries time each mode for the
record.
"""

from __future__ import annotations

import time

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: Workload shape: joins and several granted views make the
#: meta-algebra (product + self-join closure + selections) the
#: dominant cost, as in the paper's Section 5 cost argument.
SPEC = WorkloadSpec(
    relations=3,
    views=10,
    users=1,
    rows_per_relation=4,
    max_view_relations=2,
    comparison_probability=0.8,
    seed=7,
)
STREAM_DISTINCT = 8
STREAM_LENGTH = 120
SKEW = 1.2


def _build(cache_size: int):
    generator = WorkloadGenerator(SPEC.seed)
    workload = generator.workload(SPEC)
    stream = generator.zipf_query_stream(
        SPEC, workload.database.schema,
        distinct=STREAM_DISTINCT, length=STREAM_LENGTH, skew=SKEW,
    )
    engine = AuthorizationEngine(
        workload.database,
        workload.catalog,
        DEFAULT_CONFIG.but(derivation_cache_size=cache_size),
    )
    user = workload.users[0]
    for view in workload.views:
        workload.catalog.permit(view.name, user)
    return engine, user, stream


def _drain(engine, user, stream):
    return [engine.authorize(user, query) for query in stream]


def test_cache_speedup_and_transparency():
    """>= 5x end-to-end authorize speedup, identical deliveries."""
    cached_engine, user, stream = _build(cache_size=128)
    uncached_engine, _, _ = _build(cache_size=0)

    # Warm both paths once (parser caches, the plan memo) so the
    # measurement compares steady states.
    _drain(cached_engine, user, stream[:1])
    _drain(uncached_engine, user, stream[:1])

    start = time.perf_counter()
    cached_answers = _drain(cached_engine, user, stream)
    cached_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    uncached_answers = _drain(uncached_engine, user, stream)
    uncached_elapsed = time.perf_counter() - start

    # Transparency: byte-identical deliveries and permits either way.
    for hot, cold in zip(cached_answers, uncached_answers):
        assert hot.delivered == cold.delivered
        assert tuple(map(str, hot.permits)) == tuple(map(str, cold.permits))

    stats = cached_engine.stats()
    assert stats.hit_rate >= 0.8, stats.render()
    speedup = uncached_elapsed / cached_elapsed
    print(f"\n{stats.render()}")
    print(f"cache on: {cached_elapsed:.3f}s  cache off: "
          f"{uncached_elapsed:.3f}s  speedup: {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"expected >= 5x, measured {speedup:.2f}x "
        f"(on {cached_elapsed:.3f}s / off {uncached_elapsed:.3f}s)"
    )


def test_batch_shares_plan_work():
    """authorize_batch beats the authorize loop even with cache off."""
    engine, user, stream = _build(cache_size=0)
    texts = [str(query) for query in stream]

    start = time.perf_counter()
    loop = [engine.authorize(user, text) for text in texts]
    loop_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batch = engine.authorize_batch(user, texts)
    batch_elapsed = time.perf_counter() - start

    assert len(batch) == len(loop)
    for one, many in zip(loop, batch):
        assert one.delivered == many.delivered
    assert batch_elapsed < loop_elapsed, (
        f"batch {batch_elapsed:.3f}s vs loop {loop_elapsed:.3f}s"
    )


def test_authorize_stream_cache_on(benchmark):
    engine, user, stream = _build(cache_size=128)
    _drain(engine, user, stream)  # warm
    answers = benchmark(_drain, engine, user, stream)
    assert len(answers) == STREAM_LENGTH


def test_authorize_stream_cache_off(benchmark):
    engine, user, stream = _build(cache_size=0)
    _drain(engine, user, stream[:1])
    answers = benchmark(_drain, engine, user, stream)
    assert len(answers) == STREAM_LENGTH
