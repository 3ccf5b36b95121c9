"""stream-scan: long masked scans drained chunk by chunk.

One consumer calls ``authorize_stream`` and drains the stream to its
end before starting the next request (a closed loop), taking the
statements in turn from a seeded start.  The database is
one relation of ``ROWS`` orders whose values the run seed draws; each
statement selects about 60% of it, so every answer has about 1.2*10^5
rows, fifteen chunks at the default ``stream_chunk_size``.  The user
holds five views; the mask is derived and compiled once while setting
up and served from the cache afterwards.  Evaluation and the columnar
masking kernel do nearly all the work; serving and the derivation
cache sit idle.

A request's latency runs from the call to its last chunk: the whole
answer, as a consumer that drains it waits for it.  Single chunk gaps
are a poor sample for a median here, because their distribution has
two modes (chunks that pay for a garbage collection and chunks that do
not) and the median flips between them from run to run.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from common import MISSED_MS, Measurement, Window, answer_failed
from layers import instrument
from tracing import Patcher, Tracer

from repro.algebra.database import build_database
from repro.algebra.relation import Relation
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.core.audit import AuditLog
from repro.core.engine import AuthorizationEngine
from repro.meta.catalog import PermissionCatalog

ROWS = 200_000
USER = "analyst"
VIEWS = (
    "view QTY_BULK (ORDERS.ID, ORDERS.QTY) where ORDERS.QTY >= 100",
    "view REGION_ONE (ORDERS.ID, ORDERS.REGION) where ORDERS.REGION = r1",
    "view CHEAP (ORDERS.ID, ORDERS.PRICE) where ORDERS.PRICE < 500",
    "view FIGURES (ORDERS.QTY, ORDERS.PRICE)",
    "view REGION_THREE (ORDERS.ID, ORDERS.QTY, ORDERS.REGION, "
    "ORDERS.PRICE) where ORDERS.REGION = r3",
)
_ALL = "retrieve (ORDERS.ID, ORDERS.QTY, ORDERS.REGION, ORDERS.PRICE)"
STATEMENTS = (
    f"{_ALL} where ORDERS.QTY >= 400",
    f"{_ALL} where ORDERS.PRICE >= 400",
    f"{_ALL} where ORDERS.QTY < 600",
)
#: Every SAMPLE-th request (from a seeded offset) is checked.
SAMPLE = 4


class StreamScan:
    """Set-up, timed phase and oracle of the stream-scan workload."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        orders = make_schema(
            "ORDERS",
            [("ID", STRING), ("QTY", INTEGER), ("REGION", STRING),
             ("PRICE", INTEGER)],
            key=["ID"],
        )
        database = build_database([orders], {"ORDERS": [
            (f"o{i}", rng.randrange(1000), f"r{rng.randrange(8)}",
             rng.randrange(1000))
            for i in range(ROWS)
        ]})
        catalog = PermissionCatalog(database.schema)
        for view in VIEWS:
            name = catalog.define_view(view).name
            catalog.permit(name, USER)
        self.engine = AuthorizationEngine(database, catalog,
                                          audit=AuditLog(4096))
        self.rng = rng
        self.first = rng.randrange(len(STATEMENTS))
        self.offset = seed % SAMPLE
        self.requests = 0
        #: Per sampled request: its statement and chunk digests.
        self.digests: Dict[int, Tuple[int, List[int]]] = {}
        # Derive and compile every mask; drain one answer fully.
        for index, statement in enumerate(STATEMENTS):
            stream = self.engine.authorize_stream(USER, statement)
            for _ in stream:
                if index:
                    break
            stream.close()

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        # A window is one request, of the kind of its statement: all
        # requests of a kind do the same work, so latency is read from
        # the fastest of them, like the rates.
        measured = Measurement(uniform=True)
        measured.extra["first_chunk_ms"] = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._request(measured, tracer)
        return measured

    def _request(self, measured: Measurement,
                 tracer: Optional[Tracer]) -> None:
        request = self.requests
        self.requests += 1
        # Round robin: the statements' costs differ by about 20%, so a
        # drawn mix would move the figures from seed to seed.
        statement = (self.first + request) % len(STATEMENTS)
        sampled = request % SAMPLE == self.offset
        digests: List[int] = []
        rows = 0
        if tracer is not None:
            tracer.set_request(request)
            frame = tracer.begin("request")
        called = time.perf_counter()
        # Harness time inside this request (digests, RSS samples), kept
        # out of its latency.
        checked = 0.0
        opened = False
        try:
            stream = self.engine.authorize_stream(
                USER, STATEMENTS[statement])
            chunks = iter(stream)
            while True:
                if tracer is not None:
                    chunk_frame = tracer.begin("stream.chunk")
                chunk = next(chunks, None)
                if tracer is not None:
                    tracer.end(chunk_frame, {
                        "rows": len(chunk) if chunk else 0})
                if chunk is None:
                    break
                stamp = time.perf_counter()
                if not opened:
                    opened = True
                    measured.extra["first_chunk_ms"].append(
                        (stamp - called) * 1e3)
                rows += len(chunk)
                if sampled:
                    digests.append(hash(chunk))
                measured.sample_rss()
                checked += time.perf_counter() - stamp
            failed = stream.error is not None \
                or stream.degradation_level > 0
        except Exception:  # counted as a failed request
            failed = True
        drained = time.perf_counter() - called - checked
        waited = MISSED_MS if failed else drained * 1e3
        measured.waits_ms.append(waited)
        if tracer is not None:
            tracer.end(frame, {"statement": statement})
            tracer.set_request(None)
        if sampled and not failed:
            self.digests[request] = (statement, digests)
        measured.count("stream", failed)
        measured.requests += 1
        measured.windows.append(Window(kind=statement, seconds=drained,
                                       ops=1, rows=rows,
                                       waits_ms=[waited]))

    def instrument(self, tracer: Tracer, patcher: Patcher) -> None:
        instrument(tracer, patcher, self.engine)

    def sheds(self) -> int:
        return 0

    def check(self) -> List[str]:
        """Sampled streams against ``authorize(...).delivered``, and
        one seeded chunk of each statement against ``Mask.apply``."""
        size = self.engine.config.stream_chunk_size
        mismatches = []
        expected: Dict[int, List[int]] = {}
        for statement in sorted({s for s, _ in self.digests.values()}):
            answer = self.engine.authorize(USER, STATEMENTS[statement])
            if answer_failed(answer):
                mismatches.append(f"statement {statement} was denied")
                continue
            delivered = answer.delivered
            expected[statement] = [
                hash(delivered[i:i + size])
                for i in range(0, len(delivered), size)
            ]
            # The interpreted mask is the oracle of the columnar kernel.
            start = self.rng.randrange(len(delivered) // size) * size
            rows = Relation(answer.answer.columns,
                            answer.answer.rows[start:start + size],
                            validate=False)
            if answer.mask.apply(rows) != delivered[start:start + size]:
                mismatches.append(
                    f"statement {statement}: rows {start}.. differ from "
                    f"Mask.apply"
                )
        for request, (statement, digests) in sorted(self.digests.items()):
            if expected.get(statement) != digests:
                mismatches.append(
                    f"stream {request} (statement {statement}) differs "
                    f"from authorize(...).delivered"
                )
        return mismatches

    def close(self) -> None:
        pass
