"""zipf-serve: open-loop Zipf traffic into the batch server.

Eight users issue twelve statements, both drawn Zipf-skewed, against a
generated three-relation database of 300 rows per relation, through an
:class:`~repro.serving.AuthorizationServer` with two workers and audit
on.  Every (user, statement) mask is derived while setting up, and the
96 entries fit the tenant's 1024-entry cache, so the timed phases
measure the warm path: queueing, batch formation, cache hits, and
evaluating and masking answers of about 10^3 rows.

One generator thread (the caller's) alternates ``CYCLES`` times
between two phases, so each samples the whole run:

* **latency**: requests are due on a fixed schedule of ``RATE`` per
  second, about a quarter of the serial warm capacity; each is timed
  from its due time to the moment its future resolves, so a stalled
  generator or a backed-up queue shows as latency;
* **throughput**: bursts of ``BURST`` requests are submitted at once and
  drained; completions per second are counted over the bursts.  Every
  burst holds the same requests (the Zipf mix apportioned, see
  :func:`burst_pairs`) in a seeded order.  Each burst starts from empty
  queues, so how large the server's batches
  grow (and how many duplicate plans they share) is set afresh per
  burst instead of drifting over the whole phase.

One statement of the pool costs about 25 ms where the others cost 2-8,
and it decides the p99.  At half the serial capacity its requests
overlapped others often enough that the p99 swung with the host's
speed from run to run; at a quarter it mostly reads the statement's
own cost.

The schema, views, grants and statement pool come from the fixed
``STRUCTURE_SEED``; the run seed draws the request sequence.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from common import (
    MISSED_MS,
    Measurement,
    Window,
    answer_failed,
    sleep_until,
    zipf_weights,
)
from layers import SubmitLog, instrument, instrument_server
from tracing import Patcher, Tracer

from repro.calculus.ast import Query
from repro.calculus.to_algebra import compile_query
from repro.core.engine import AuthorizationEngine
from repro.metaalgebra.canonical import canonical_plan_key
from repro.serving import AuthorizationServer, ServerConfig
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.traffic import (
    TrafficOp,
    TrafficScript,
    TrafficSpec,
    fresh_stack,
    replay_serial,
)

TENANT = "bench"
STRUCTURE_SEED = 3
USERS = 8
STATEMENTS = 12
ROWS_PER_RELATION = 300
#: Statements are the first generated candidates whose answers have
#: this many rows, one per canonical plan.
ANSWER_ROWS = (500, 2000)
CANDIDATES = 80
USER_SKEW = 1.0
QUERY_SKEW = 1.2
WORKERS = 2
#: Offered rate of the latency phase (requests per second).
RATE = 50.0
#: Requests per burst of the throughput phase: more than two workers
#: can serve at once, yet below the first admission threshold (64).
BURST = 48
#: Share of the run given to the latency phase: at ``RATE`` a 30 s run
#: takes about 1000 latency samples, the fewest a p99 needs.
LATENCY_SHARE = 0.7
#: Latency and throughput phases alternate this many times.
CYCLES = 6
#: Unmeasured open-loop traffic at ``RATE`` before the latency phase,
#: so worker threads and allocator state are warm when timing starts.
WARMUP_S = 1.0
#: Every SAMPLE-th request (from a seeded offset) is checked.
SAMPLE = 4
#: The resident set size is sampled every RSS_EVERY submits.
RSS_EVERY = 16

SPEC = TrafficSpec(
    clients=1, users_per_client=USERS, distinct_queries=STATEMENTS,
    workload=WorkloadSpec(rows_per_relation=ROWS_PER_RELATION),
    seed=STRUCTURE_SEED,
)


def statement_pool(spec: TrafficSpec) -> List[Query]:
    """The ``STATEMENTS`` hot statements of the structure.

    Candidates come from the same generator stream ``build_traffic``
    draws its pool from; answer sizes are read through ``authorize``
    (delivery keeps every answer row, masking only cells).
    """
    stack = fresh_stack(spec)
    schema = stack.database.schema
    generator = WorkloadGenerator(seed=spec.seed + 1)
    workload_spec = replace(spec.workload, users=USERS, seed=spec.seed)
    probe = AuthorizationEngine(stack.database, stack.catalog)
    pool: List[Query] = []
    keys = set()
    for _ in range(CANDIDATES):
        query = generator.query(workload_spec, schema)
        key = canonical_plan_key(compile_query(query, schema), schema)
        rows = len(probe.authorize(stack.users[0], query).delivered)
        if ANSWER_ROWS[0] <= rows <= ANSWER_ROWS[1] and key not in keys:
            keys.add(key)
            pool.append(query)
            if len(pool) == STATEMENTS:
                return pool
    raise RuntimeError(
        f"structure seed {spec.seed} yields only {len(pool)} statements "
        f"with {ANSWER_ROWS} answer rows"
    )


def burst_pairs(user_weights: List[float],
                query_weights: List[float]) -> List[Tuple[int, int]]:
    """The ``BURST`` (user index, statement index) pairs every burst
    submits: the Zipf mix apportioned by largest remainder.

    Drawn independently, bursts differed in how many requests they
    held for the one statement that costs ten times the others, and
    per-burst rates ranged over 3x.
    """
    pairs = [(u, q) for u in range(len(user_weights))
             for q in range(len(query_weights))]
    weights = [user_weights[u] * query_weights[q] for u, q in pairs]
    quotas = [BURST * w / sum(weights) for w in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(pairs)),
                          key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:BURST - sum(counts)]:
        counts[i] += 1
    return [pair for pair, count in zip(pairs, counts)
            for _ in range(count)]


class ZipfServe:
    """Set-up, timed phases and oracle of the zipf-serve workload."""

    def __init__(self, seed: int) -> None:
        self.pool = statement_pool(SPEC)
        stack = fresh_stack(SPEC)
        self.users = stack.users
        self.server = AuthorizationServer(ServerConfig(workers=WORKERS))
        self.server.add_tenant(TENANT, stack.database, stack.catalog)
        self.engine = self.server.tenants.get(TENANT).engine
        for user in self.users:
            for query in self.pool:
                self.server.authorize(TENANT, user, query)
        self.rng = random.Random(seed)
        self.offset = seed % SAMPLE
        self.user_weights = zipf_weights(USERS, USER_SKEW)
        self.query_weights = zipf_weights(STATEMENTS, QUERY_SKEW)
        self.burst = burst_pairs(self.user_weights, self.query_weights)
        #: (user index, statement index) of every request, by id.
        self.issued: List[Tuple[int, int]] = []
        #: Delivery digests of the sampled requests, by request id.
        self.digests: Dict[int, int] = {}
        self.submits: Optional[SubmitLog] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # timed phases
    # ------------------------------------------------------------------

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        warm = Measurement()
        self._open_loop(WARMUP_S, warm)
        # Warm-up requests are attempts, and their spans land in a
        # traced run, so they are counted; their latencies are not.
        measured = Measurement(requests=warm.requests, counts=warm.counts)
        for _ in range(CYCLES):
            self._open_loop(seconds * LATENCY_SHARE / CYCLES, measured)
            self._saturate(seconds * (1.0 - LATENCY_SHARE) / CYCLES,
                           measured)
        return measured

    def _submit(self, callback: Any, phase: str,
                pair: Optional[Tuple[int, int]] = None) -> None:
        """Submit the (user index, statement index) ``pair``, or a pair
        drawn from the Zipf weights."""
        if pair is None:
            pair = (
                self.rng.choices(range(USERS),
                                 weights=self.user_weights)[0],
                self.rng.choices(range(STATEMENTS),
                                 weights=self.query_weights)[0],
            )
        user_index, query_index = pair
        request = len(self.issued)
        self.issued.append((user_index, query_index))
        user = self.users[user_index]
        if self.submits is not None:
            self.submits.push(user, request, time.perf_counter(), phase)
        try:
            future = self.server.submit(TENANT, user,
                                        self.pool[query_index])
        except Exception as error:  # counted as a failed request
            future = Future()
            future.set_exception(error)
        future.add_done_callback(partial(callback, request))

    def _finish(self, measured: Measurement, request: int,
                future: Any) -> Tuple[bool, int]:
        """Count one resolved request; returns (failed, rows)."""
        error = future.exception()
        if error is not None:
            failed, rows = True, 0
        else:
            answer = future.result()
            failed, rows = answer_failed(answer), len(answer.delivered)
            if request % SAMPLE == self.offset:
                self.digests[request] = hash(answer.delivered)
        with self._lock:
            measured.count("query", failed)
            measured.requests += 1
        return failed, rows

    def _open_loop(self, duration: float, measured: Measurement) -> None:
        count = int(duration * RATE)
        waits = [0.0] * count
        late = [0.0] * count
        pending = threading.Semaphore(0)
        start = time.perf_counter() + 0.01

        def resolved(index: int, due: float, request: int,
                     future: Any) -> None:
            stamp = time.perf_counter()
            failed, _ = self._finish(measured, request, future)
            waits[index] = MISSED_MS if failed else (stamp - due) * 1e3
            pending.release()

        for index in range(count):
            due = start + index / RATE
            sleep_until(due)
            late[index] = (time.perf_counter() - due) * 1e3
            self._submit(partial(resolved, index, due), "latency")
            if index % RSS_EVERY == 0:
                measured.sample_rss()
        for _ in range(count):
            pending.acquire()
        measured.waits_ms.extend(waits)
        measured.extra.setdefault("gen_late_ms", []).extend(late)

    def _saturate(self, duration: float, measured: Measurement) -> None:
        end = time.perf_counter() + duration

        def resolved(window: Window, drained: threading.Event,
                     request: int, future: Any) -> None:
            _, rows = self._finish(measured, request, future)
            with self._lock:
                window.rows += rows
                window.ops += 1
                if window.ops == BURST:
                    drained.set()

        while time.perf_counter() < end:
            # Each burst is a window: its rate is BURST over the time
            # from its first submit to its last completion.  The
            # generator wakes once per burst, not once per answer, so it
            # takes no turns at the interpreter lock while the workers
            # drain the burst.
            window = Window()
            drained = threading.Event()
            begin = time.perf_counter()
            # The burst arrives at once: the generator keeps the
            # interpreter lock until every request is queued, so how the
            # workers batch it follows from the request sequence, not
            # from where the scheduler happened to cut the submit loop.
            order = self.rng.sample(self.burst, BURST)
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1.0)
            try:
                for pair in order:
                    self._submit(partial(resolved, window, drained),
                                 "saturate", pair)
            finally:
                sys.setswitchinterval(switch)
            measured.sample_rss()
            drained.wait()
            window.seconds = time.perf_counter() - begin
            measured.windows.append(window)

    # ------------------------------------------------------------------
    # tracing hooks, counters, oracle
    # ------------------------------------------------------------------

    def instrument(self, tracer: Tracer, patcher: Patcher) -> None:
        submits = SubmitLog()
        patcher.replace(self, "submits", submits)
        instrument(tracer, patcher, self.engine)
        instrument_server(tracer, patcher, self.engine, submits)

    def sheds(self) -> int:
        return self.server.telemetry().admission.shed_total

    def check(self) -> List[str]:
        """Sampled deliveries against ``traffic.replay_serial``.

        No grant changes in this workload, so an answer depends only on
        its (user, statement) pair: the oracle replays each distinct
        pair once through a fresh single-threaded engine.
        """
        pairs = sorted({self.issued[r] for r in self.digests})
        script = TrafficScript(spec=SPEC, clients=(tuple(
            TrafficOp("query", self.users[u], query=self.pool[q])
            for u, q in pairs
        ),))
        expected = {
            pair: hash(answer.delivered)
            for pair, answer in zip(pairs, replay_serial(script)[0])
        }
        return [
            f"request {request} ({self.users[self.issued[request][0]]}, "
            f"statement {self.issued[request][1]}) differs from the "
            f"serial replay"
            for request, digest in sorted(self.digests.items())
            if expected[self.issued[request]] != digest
        ]

    def close(self) -> None:
        self.server.close()
