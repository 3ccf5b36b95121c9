"""churn-derive: derivation-heavy traffic with grant churn.

One caller drives an in-process engine (default configuration, audit
on) in a closed loop: each operation starts when the previous one
returns.  Thirty-two users issue sixteen statements, both drawn
Zipf-skewed, against a generated database of a few rows per relation,
so answers are tiny and evaluation and masking sit idle.  The 512
(user, statement) keys exceed the engine's 128-entry derivation cache,
and every tenth operation revokes a view from one user or permits the
last revoked view back, which invalidates that user's entries:
derivations miss from capacity and from invalidation, and grant writes
run beside the reads.

The schema, views and statement pool come from the fixed
``STRUCTURE_SEED``; the run seed draws the operation sequence.  The
pool skips statements whose meta-product is large: a handful of such
keys cost 20-160 ms per derivation where the rest cost about 1 ms, and
how often a run happens to miss on them would decide its figures.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from common import MISSED_MS, Measurement, Window, answer_failed, \
    zipf_weights
from layers import instrument
from tracing import Patcher, Tracer

from repro.calculus.ast import Query
from repro.calculus.to_algebra import compile_query
from repro.config import DEFAULT_CONFIG
from repro.core.audit import AuditLog
from repro.core.engine import AuthorizationEngine
from repro.metaalgebra.canonical import canonical_plan_key
from repro.workloads.generator import Workload, WorkloadGenerator, \
    WorkloadSpec
from repro.workloads.traffic import TrafficOp, TrafficSpec, fresh_stack

STRUCTURE_SEED = 11
USERS = 32
STATEMENTS = 16
CHURN_EVERY = 10
USER_SKEW = 1.0
QUERY_SKEW = 1.0
#: Operations run while setting up, so the cache starts the timed
#: phase in its steady state.
WARM_OPS = 600
#: Every SAMPLE-th query (from a seeded offset) is replayed by the
#: oracle; every grant change is.
SAMPLE = 16
#: Statements whose meta-product, for the user holding the most views,
#: has more rows than this are left out of the pool.
MAX_PRODUCT_ROWS = 64
CANDIDATES = 64
#: The resident set size is sampled every RSS_EVERY operations.
RSS_EVERY = 16
#: Operations per measurement window (some 60-90 ms).
WINDOW_OPS = 128

SPEC = TrafficSpec(
    clients=1, users_per_client=USERS, distinct_queries=STATEMENTS,
    churn_every=CHURN_EVERY,
    workload=WorkloadSpec(rows_per_relation=8, views=12),
    seed=STRUCTURE_SEED,
)


def statement_pool(stack: Workload) -> List[Query]:
    """The first ``STATEMENTS`` generated statements with distinct
    canonical plans and a meta-product of at most ``MAX_PRODUCT_ROWS``
    rows."""
    schema = stack.database.schema
    generator = WorkloadGenerator(seed=SPEC.seed + 1)
    workload_spec = replace(SPEC.workload, users=USERS, seed=SPEC.seed)
    probe = AuthorizationEngine(stack.database, stack.catalog)
    widest = max(stack.users,
                 key=lambda user: (len(stack.catalog.views_of(user)), user))
    pool: List[Query] = []
    keys = set()
    for _ in range(CANDIDATES):
        query = generator.query(workload_spec, schema)
        key = canonical_plan_key(compile_query(query, schema), schema)
        product = probe.authorize(widest, query).derivation.raw_product
        if len(product) <= MAX_PRODUCT_ROWS and key not in keys:
            keys.add(key)
            pool.append(query)
            if len(pool) == STATEMENTS:
                return pool
    raise RuntimeError(
        f"structure seed {SPEC.seed} yields only {len(pool)} statements "
        f"with a meta-product of at most {MAX_PRODUCT_ROWS} rows"
    )


class ChurnDerive:
    """Set-up, timed phase and oracle of the churn-derive workload."""

    def __init__(self, seed: int) -> None:
        stack = fresh_stack(SPEC)
        self.pool = statement_pool(stack)
        self.users = stack.users
        self.granted: Dict[str, Tuple[str, ...]] = {
            user: stack.catalog.views_of(user) for user in self.users
        }
        #: The (user, view) revoked by the last grant change, if any.
        self.revoked: Optional[Tuple[str, str]] = None
        self.engine = AuthorizationEngine(
            stack.database, stack.catalog, DEFAULT_CONFIG,
            audit=AuditLog(4096),
        )
        self.rng = random.Random(seed)
        self.offset = seed % SAMPLE
        self.user_weights = zipf_weights(USERS, USER_SKEW)
        self.query_weights = zipf_weights(STATEMENTS, QUERY_SKEW)
        #: Every operation run so far, in order (warm-up included).
        self.ops: List[TrafficOp] = []
        #: Delivery digests of the sampled queries, by operation index.
        self.digests: Dict[int, int] = {}
        for query in self.pool:
            self.engine.prepare(query)
        warm = Measurement()
        for _ in range(WARM_OPS):
            self._step(warm, Window(), None)

    def _next_op(self) -> TrafficOp:
        user = self.users[self.rng.choices(
            range(USERS), weights=self.user_weights)[0]]
        if (len(self.ops) + 1) % CHURN_EVERY == 0:
            # Grant changes come in pairs: a revoke, then at the next
            # change the same permit back, so grant sets stay near the
            # structure's own instead of drifting with the seed.
            if self.revoked is not None:
                user, view = self.revoked
                self.revoked = None
                return TrafficOp("permit", user, view=view)
            granted = self.granted[user]
            if granted:
                view = self.rng.choice(granted)
                self.revoked = (user, view)
                return TrafficOp("revoke", user, view=view)
        query = self.pool[self.rng.choices(
            range(STATEMENTS), weights=self.query_weights)[0]]
        return TrafficOp("query", user, query=query)

    def _step(self, measured: Measurement, window: Window,
              tracer: Optional[Tracer]) -> None:
        op = self._next_op()
        index = len(self.ops)
        rows = 0
        self.ops.append(op)
        if tracer is not None:
            tracer.set_request(index)
            frame = tracer.begin("request")
        begin = time.perf_counter()
        if op.kind == "query":
            try:
                answer = self.engine.authorize(op.user, op.query)
                failed = answer_failed(answer)
            except Exception:  # counted, and charged as a miss
                answer, failed = None, True
            elapsed = time.perf_counter() - begin
            measured.waits_ms.append(MISSED_MS if failed else elapsed * 1e3)
            measured.requests += 1
            if answer is not None:
                rows = len(answer.delivered)
                if index % SAMPLE == self.offset:
                    self.digests[index] = hash(answer.delivered)
        else:
            try:
                if op.kind == "permit":
                    self.engine.permit(op.view, op.user)
                else:
                    self.engine.revoke(op.view, op.user)
                failed = False
            except Exception:  # counted
                failed = True
        if tracer is not None:
            tracer.end(frame, {"kind": op.kind})
            tracer.set_request(None)
        measured.count(op.kind if op.kind == "query" else "grant", failed)
        window.ops += 1
        window.rows += rows
        if index % RSS_EVERY == 0:
            measured.sample_rss()

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        measured = Measurement()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            window = Window()
            begin = time.perf_counter()
            for _ in range(WINDOW_OPS):
                self._step(measured, window, tracer)
            window.seconds = time.perf_counter() - begin
            measured.windows.append(window)
        return measured

    def instrument(self, tracer: Tracer, patcher: Patcher) -> None:
        instrument(tracer, patcher, self.engine)

    def sheds(self) -> int:
        return 0

    def check(self) -> List[str]:
        """Replay every grant change and the sampled queries through a
        fresh engine without a derivation cache."""
        stack = fresh_stack(SPEC)
        oracle = AuthorizationEngine(
            stack.database, stack.catalog,
            DEFAULT_CONFIG.but(derivation_cache_size=0),
        )
        mismatches = []
        for index, op in enumerate(self.ops):
            if op.kind == "permit":
                oracle.permit(op.view, op.user)
            elif op.kind == "revoke":
                oracle.revoke(op.view, op.user)
            elif index in self.digests:
                delivered = oracle.authorize(op.user, op.query).delivered
                if hash(delivered) != self.digests[index]:
                    mismatches.append(
                        f"operation {index} ({op.user}) differs from the "
                        f"uncached replay"
                    )
        return mismatches

    def close(self) -> None:
        pass
