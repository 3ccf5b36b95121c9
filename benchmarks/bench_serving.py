"""Sustained serving throughput: concurrent batch server vs serial.

The acceptance bar for the serving subsystem (PR 6): 64 closed-loop
clients driving a Zipf-hot statement pool through the 8-worker batch
server must sustain at least 3x the QPS of a serial baseline — a
fresh single-threaded engine answering the identical request stream
one ``authorize`` at a time.

The speedup is *not* thread parallelism (the GIL serializes the CPU
work): it is batch formation.  Clients share a small user population,
so concurrent in-flight requests for one user queue together and
drain through ``authorize_batch``, whose plan-key memo runs
evaluation, mask derivation, masking, and permit inference once per
distinct canonical plan per batch.  Under Zipf traffic a batch of 32
collapses onto a handful of distinct plans; the serial baseline pays
full evaluation per request.

Every number — sustained QPS, p50/p95/p99 latency, batching and
admission telemetry — lands in the gitignored
``.bench_out/bench_serving.json``; the committed ``BENCH_PR6.json`` is
the historical record of the first run.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.calculus.ast import Query
from repro.core.engine import AuthorizationEngine
from repro.serving import (
    AdmissionPolicy,
    AuthorizationServer,
    ServerConfig,
)
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

CLIENTS = 64
WORKERS = 8
OPS_PER_CLIENT = 6
USER_POOL = 2
DISTINCT_QUERIES = 8
QUERY_SKEW = 2.0
SPEEDUP_BAR = 3.0

# The statement pool is drawn from this many deterministically
# generated candidates; a one-off calibration pass keeps the
# DISTINCT_QUERIES most expensive ones under the cap, ordered so the
# Zipf-hottest statement is the heaviest (the classic shape of a
# dashboard workload: the popular statements are the analytics).
CANDIDATES = 40
COST_CAP_MS = 20.0

# Join-heavy queries over a moderately sized instance: per-request
# cost is dominated by answer evaluation (the work the batch memo
# dedups), not by fixed per-request overhead.
SPEC = WorkloadSpec(seed=6, relations=3, views=4, users=USER_POOL,
                    rows_per_relation=96, max_view_relations=3)

RESULTS_PATH = (Path(__file__).resolve().parents[1] / ".bench_out"
                / "bench_serving.json")


def _record(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` in the results file."""
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[section] = payload
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _percentile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


#: Candidate indices chosen by the one-off calibration pass.  Cached
#: so every ``build_traffic`` call (serial run, concurrent run, each
#: scaling point) selects the identical pool and therefore produces
#: the identical deterministic request stream.
_SELECTION: Optional[Tuple[int, ...]] = None


def _candidates(
    generator: WorkloadGenerator, workload
) -> List[Query]:
    return [
        generator.query(SPEC, workload.database.schema)
        for _ in range(CANDIDATES)
    ]


def _calibrate() -> Tuple[int, ...]:
    """Measure each candidate once (warm) on a scratch stack and keep
    the ``DISTINCT_QUERIES`` most expensive under ``COST_CAP_MS``,
    heaviest first.  Only the *selection* uses wall time; the streams
    built from it are pure functions of the seed."""
    global _SELECTION
    if _SELECTION is not None:
        return _SELECTION
    generator = WorkloadGenerator(SPEC.seed)
    workload = generator.workload(SPEC)
    candidates = _candidates(generator, workload)
    engine = AuthorizationEngine(workload.database, workload.catalog)
    user = workload.users[0]
    costs = []
    for index, query in enumerate(candidates):
        engine.authorize(user, query)  # warm plan + derivation
        begin = time.perf_counter()
        engine.authorize(user, query)
        costs.append((time.perf_counter() - begin, index))
    eligible = [
        (cost, index) for cost, index in costs
        if cost * 1e3 <= COST_CAP_MS
    ]
    eligible.sort(reverse=True)
    if len(eligible) < DISTINCT_QUERIES:  # pragma: no cover
        eligible = sorted(costs)[:DISTINCT_QUERIES]
    _SELECTION = tuple(
        index for _, index in eligible[:DISTINCT_QUERIES]
    )
    return _SELECTION


def build_traffic() -> Tuple[
    WorkloadGenerator, List[List[Tuple[str, Query]]]
]:
    """Per-client (user, query) streams over a shared Zipf-hot pool.

    Clients share ``USER_POOL`` users, so concurrent requests batch
    per user.  The hottest statements are the heaviest (see
    ``_calibrate``), so a drained batch dedups real evaluation work,
    not just parsing.  Grants never change during the run, so every
    request's answer is interleaving-independent and the serial
    replay of the same stream is an exact oracle.
    """
    selection = _calibrate()
    generator = WorkloadGenerator(SPEC.seed)
    workload = generator.workload(SPEC)
    candidates = _candidates(generator, workload)
    pool = [candidates[index] for index in selection]
    weights = [
        1.0 / (rank + 1) ** QUERY_SKEW
        for rank in range(DISTINCT_QUERIES)
    ]
    streams: List[List[Tuple[str, Query]]] = []
    for client in range(CLIENTS):
        user = workload.users[client % len(workload.users)]
        picks = generator.rng.choices(
            range(DISTINCT_QUERIES), weights=weights,
            k=OPS_PER_CLIENT,
        )
        streams.append([(user, pool[i]) for i in picks])
    return workload, streams


def _distinct(
    streams: List[List[Tuple[str, Query]]]
) -> List[Query]:
    """The distinct statements of a stream set, for warmup."""
    seen: Dict[int, Query] = {}
    for stream in streams:
        for _, query in stream:
            seen.setdefault(id(query), query)
    return list(seen.values())


def run_concurrent(
    workload, streams, workers: int
) -> Tuple[float, List[float], AuthorizationServer]:
    """Closed-loop clients against the batch server; returns wall
    seconds, per-request latencies, and the (closed) server."""
    # A short linger lets each closed-loop resubmission wave coalesce
    # into one large batch instead of draining on first arrival.
    # Auditing is off because the serial baseline keeps no audit trail
    # either: the comparison isolates authorization work.  Admission
    # thresholds sit far above the 64-client backlog so the bench
    # measures full-fidelity serving, never a shed rung.
    server = AuthorizationServer(
        ServerConfig(workers=workers, max_batch=32,
                     batch_linger_ms=10.0, audit_capacity=0,
                     admission=AdmissionPolicy((256, 512, 768, 1024)))
    )
    server.add_tenant("bench", workload.database, workload.catalog)
    # Warm the plan memo so the timed region measures serving, not
    # first-touch parsing (the serial baseline gets the same warmup).
    engine = server.tenants.get("bench").engine
    for query in _distinct(streams):
        engine.prepare(query)

    latencies_per_client: List[List[float]] = [
        [] for _ in range(len(streams))
    ]

    def client(index: int) -> None:
        mine = latencies_per_client[index]
        for user, query in streams[index]:
            start = time.perf_counter()
            answer = server.submit("bench", user, query).result()
            mine.append(time.perf_counter() - start)
            assert answer.user == user

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(len(streams))
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    server.close()
    latencies = [
        sample for batch in latencies_per_client for sample in batch
    ]
    return wall, latencies, server


def run_serial(workload, streams) -> Tuple[float, Dict[str, object]]:
    """The baseline: the identical request stream, one ``authorize``
    at a time through a fresh single-threaded engine (its own
    derivation cache on — standard single-caller configuration)."""
    engine = AuthorizationEngine(workload.database, workload.catalog)
    for query in _distinct(streams):
        engine.prepare(query)
    flat = [pair for stream in streams for pair in stream]
    begin = time.perf_counter()
    for user, query in flat:
        engine.authorize(user, query)
    wall = time.perf_counter() - begin
    return wall, {"requests": len(flat)}


def test_sustained_qps_beats_serial_by_3x():
    workload, streams = build_traffic()
    total = sum(len(stream) for stream in streams)

    serial_wall, serial_info = run_serial(workload, streams)
    serial_qps = total / serial_wall

    # A fresh, structurally identical stack for the concurrent run so
    # neither side inherits the other's warm caches.
    workload2, streams2 = build_traffic()
    wall, latencies, server = run_concurrent(
        workload2, streams2, WORKERS
    )
    qps = total / wall
    speedup = qps / serial_qps
    telemetry = server.telemetry()

    p50 = _percentile(latencies, 0.50) * 1e3
    p95 = _percentile(latencies, 0.95) * 1e3
    p99 = _percentile(latencies, 0.99) * 1e3
    stats = telemetry.cache_stats["bench"]
    _record("serving_throughput", {
        "clients": CLIENTS,
        "workers": WORKERS,
        "user_pool": USER_POOL,
        "distinct_queries": DISTINCT_QUERIES,
        "query_skew": QUERY_SKEW,
        "requests": total,
        "serial_wall_s": round(serial_wall, 3),
        "serial_qps": round(serial_qps, 1),
        "concurrent_wall_s": round(wall, 3),
        "concurrent_qps": round(qps, 1),
        "speedup": round(speedup, 2),
        "speedup_bar": SPEEDUP_BAR,
        "p50_ms": round(p50, 2),
        "p95_ms": round(p95, 2),
        "p99_ms": round(p99, 2),
        "batches": telemetry.batches,
        "mean_batch": round(telemetry.mean_batch, 2),
        "largest_batch": telemetry.largest_batch,
        "cache_hit_rate": round(stats.hit_rate, 3),
        "max_backlog": telemetry.admission.max_backlog,
        "hard_sheds": telemetry.admission.hard_sheds,
    })
    print(f"\nserving: serial {serial_qps:.0f} qps, "
          f"{WORKERS} workers {qps:.0f} qps ({speedup:.1f}x), "
          f"p50 {p50:.1f}ms p95 {p95:.1f}ms p99 {p99:.1f}ms, "
          f"mean batch {telemetry.mean_batch:.1f} "
          f"(largest {telemetry.largest_batch})")
    assert telemetry.served == total
    assert telemetry.admission.hard_sheds == 0, (
        "closed-loop bench should never hit the hard limit"
    )
    assert speedup >= SPEEDUP_BAR, (
        f"expected >= {SPEEDUP_BAR}x serial throughput at {WORKERS} "
        f"workers, measured {speedup:.2f}x "
        f"({qps:.0f} vs {serial_qps:.0f} qps)"
    )


def test_scaling_across_worker_counts():
    """For the record: QPS at 1, 2, and 8 workers (no bar — batch
    formation, not worker count, carries the speedup)."""
    scaling = {}
    for workers in (1, 2, 8):
        workload, streams = build_traffic()
        total = sum(len(stream) for stream in streams)
        wall, _, server = run_concurrent(workload, streams, workers)
        telemetry = server.telemetry()
        scaling[str(workers)] = {
            "qps": round(total / wall, 1),
            "mean_batch": round(telemetry.mean_batch, 2),
        }
    _record("serving_scaling", scaling)
    print("\nscaling: " + "  ".join(
        f"{workers}w={entry['qps']:.0f}qps"
        for workers, entry in scaling.items()
    ))
