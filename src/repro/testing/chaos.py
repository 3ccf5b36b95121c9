"""Chaos soak harness: randomized faults under concurrent traffic.

Unit tests trip one fault site at a time; the chaos harness asks the
question production asks — what happens when *sparse, random* failures
land across the whole stack at once, under concurrency, for thousands
of requests?  The answer must be the fail-closed contract, observed
end to end:

* **Parity** — every clean answer (no error, no degradation) is
  byte-identical to the faultless serial replay of the same client's
  ops (:func:`repro.workloads.traffic.replay_serial`).  Failover does
  not get a tolerance: the mask is backend-independent, so an answer
  evaluated on the oracle after a breaker trip must equal the
  primary's answer exactly.
* **Soundness** — every other answer (degraded, failed over while
  degraded, failed closed) delivers a *subset* of the clean answer's
  visible cells.  Chaos may hide data; it must never reveal it.
* **Gapless audit** — one record per answered request, contiguously
  numbered: concurrency plus faults never drop or duplicate a trail
  entry.
* **Goodput** — the fraction of requests answered without an error
  stays high, because retry, failover, and the degradation ladder
  absorb most faults instead of failing closed.

A :class:`ChaosSpec` is fully seed-determined: the traffic script, the
per-site fault coins (:class:`~repro.testing.faults.Fault` with
``probability``/``seed``), and the serial oracle all derive from the
seed, so a failing soak replays exactly.  The harness drives its own
closed-loop clients (rather than
:func:`~repro.workloads.traffic.drive_server`) because a fault at the
``serving.submit`` site raises *into the submitting client*; the
harness records those as rejections and keeps the op/answer alignment
the parity check needs.

``tests/integration/test_chaos_soak.py`` runs a short soak on every
PR and a 10^4-request soak nightly, writing its report to the
gitignored ``.bench_out/chaos_soak.json``.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.answer import AuthorizedAnswer
from repro.core.mask import MASKED
from repro.errors import FaultInjected
from repro.serving.server import AuthorizationServer, ServerConfig
from repro.testing import faults
from repro.testing.faults import SITES, Fault, FaultPlan
from repro.workloads.traffic import (
    TrafficScript,
    TrafficSpec,
    build_traffic,
    fresh_stack,
    replay_serial,
)

#: Sites wired through ``maybe_corrupt``: their chaos action is
#: payload substitution, not an exception.
CORRUPT_SITES = frozenset({"cache.entry"})

#: Sites whose faults charge the derivation budget (simulated slow
#: nodes) — the chaos coin picks ``slow`` for half of these so the
#: ladder's budget path is soaked too.
BUDGET_SITES = frozenset({
    "plan", "selfjoin", "product", "prune", "selection", "projection",
    "closure",
})


@dataclass(frozen=True)
class ChaosSpec:
    """One fully seed-determined soak run."""

    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: Seeds the per-site fault coins (the traffic script has its own
    #: seed inside ``traffic``).
    seed: int = 0
    #: Per-visit fire probability at every site but the backend.
    fault_probability: float = 5e-4
    #: Per-visit fire probability at ``backend.execute`` — much
    #: higher, because retry and oracle failover make this site
    #: survivable and the soak exists to prove it (both retry attempts
    #: must fire for a request to fail over, so failovers arrive at
    #: roughly this probability squared).
    backend_fault_probability: float = 5e-2
    #: Fault sites to schedule (defaults to every registered site).
    sites: Tuple[str, ...] = SITES
    #: The tenant's primary backend.  SQLite by default so the
    #: retry → breaker → oracle-failover path is actually reachable
    #: (a python primary *is* the oracle and can only fail closed).
    backend: str = "sqlite"
    #: Serving-layer shape.
    workers: int = 4
    max_batch: int = 8
    request_deadline_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fault_probability", "backend_fault_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        if not 1 <= self.workers:
            raise ValueError(f"need at least one worker: {self.workers}")
        unknown = sorted(set(self.sites) - set(SITES))
        if unknown:
            raise ValueError(f"unknown fault site(s): {unknown}")


def fault_schedule(spec: ChaosSpec) -> FaultPlan:
    """The seed-determined fault plan for one soak run.

    Every requested site gets a probabilistic fault whose action fits
    the site (corrupt at ``maybe_corrupt`` sites, a raise/slow coin at
    budget-charged derivation sites, raise elsewhere); the per-fault
    coin seeds derive from ``spec.seed``, so the fire pattern is a
    pure function of the spec and the visit order.
    """
    rng = random.Random(spec.seed)
    plan: Dict[str, Fault] = {}
    for site in spec.sites:
        probability = (
            spec.backend_fault_probability
            if site == "backend.execute" else spec.fault_probability
        )
        if site in CORRUPT_SITES:
            action = "corrupt"
        elif site in BUDGET_SITES and rng.random() < 0.5:
            action = "slow"
        else:
            action = "raise"
        plan[site] = Fault(
            action, probability=probability,
            seed=rng.randrange(2 ** 32), seconds=5.0,
        )
    return FaultPlan(plan)


@dataclass(frozen=True)
class ChaosReport:
    """What one soak observed, ready for assertion or JSON export."""

    requests: int
    answered: int
    submit_rejected: int
    clean: int
    degraded: int
    failed_closed: int
    failovers: int
    goodput: float
    parity_violations: Tuple[str, ...]
    unsound: Tuple[str, ...]
    audit_records: int
    audit_gapless: bool
    fault_visits: int
    fault_trips: int
    trips_by_site: Tuple[Tuple[str, int], ...]
    workers: int

    def ok(self, goodput_floor: float = 0.99) -> bool:
        """The soak's pass criterion."""
        return (
            not self.parity_violations
            and not self.unsound
            and self.audit_gapless
            and self.goodput >= goodput_floor
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "answered": self.answered,
            "submit_rejected": self.submit_rejected,
            "clean": self.clean,
            "degraded": self.degraded,
            "failed_closed": self.failed_closed,
            "failovers": self.failovers,
            "goodput": round(self.goodput, 6),
            "parity_violations": len(self.parity_violations),
            "unsound_answers": len(self.unsound),
            "audit_records": self.audit_records,
            "audit_gapless": self.audit_gapless,
            "fault_visits": self.fault_visits,
            "fault_trips": self.fault_trips,
            "trips_by_site": dict(self.trips_by_site),
            "workers": self.workers,
        }


def _visible_cells(
    answer: AuthorizedAnswer,
) -> Set[Tuple[int, int, object]]:
    return {
        (i, j, cell)
        for i, row in enumerate(answer.delivered)
        for j, cell in enumerate(row)
        if cell is not MASKED
    }


def _drive_with_faults(
    script: TrafficScript,
    server: AuthorizationServer,
    tenant: str,
) -> List[List[Optional[AuthorizedAnswer]]]:
    """Closed-loop clients that survive ``serving.submit`` faults.

    Returns one slot per scripted *query* op, in script order:
    the answer, or ``None`` where the submit itself was rejected by an
    injected fault (the op never entered the system).
    """
    engine = server.tenants.get(tenant).engine
    outcomes: List[List[Optional[AuthorizedAnswer]]] = [
        [None] * sum(1 for op in ops if op.kind == "query")
        for ops in script.clients
    ]
    failures: List[BaseException] = []

    def run_client(index: int) -> None:
        slot = 0
        try:
            for op in script.clients[index]:
                if op.kind == "query":
                    assert op.query is not None
                    try:
                        future = server.submit(tenant, op.user,
                                               op.query)
                    except FaultInjected:
                        outcomes[index][slot] = None
                    else:
                        outcomes[index][slot] = future.result()
                    slot += 1
                elif op.kind == "permit":
                    engine.permit(op.view, op.user)
                else:
                    engine.revoke(op.view, op.user)
        except BaseException as error:  # pragma: no cover - reported
            failures.append(error)
            raise

    threads = [
        threading.Thread(
            target=run_client, args=(index,),
            name=f"chaos-client-{index}", daemon=True,
        )
        for index in range(len(script.clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return outcomes


def run_chaos(spec: ChaosSpec) -> ChaosReport:
    """One soak: script, faultless oracle, faulted drive, verdicts."""
    script = build_traffic(spec.traffic)
    # The serial oracle replays *without* faults: it defines what the
    # chaos run's clean answers must equal and what every other answer
    # must stay inside.
    oracle = replay_serial(script)
    workload = fresh_stack(spec.traffic)
    plan = fault_schedule(spec)
    server = AuthorizationServer(ServerConfig(
        workers=spec.workers,
        max_batch=spec.max_batch,
        audit_capacity=None,  # keep everything: the trail is asserted
        request_deadline_ms=spec.request_deadline_ms,
    ))
    server.add_tenant("chaos", workload.database, workload.catalog,
                      backend=spec.backend)
    try:
        with faults.inject(plan):
            outcomes = _drive_with_faults(script, server, "chaos")
    finally:
        server.close()

    answered = submit_rejected = clean = degraded = 0
    failed_closed = failovers = 0
    parity: List[str] = []
    unsound: List[str] = []
    for client, (got_ops, want_ops) in enumerate(zip(outcomes, oracle)):
        for op, (got, want) in enumerate(zip(got_ops, want_ops)):
            where = f"client {client} op {op} ({want.user})"
            if got is None:
                submit_rejected += 1
                continue
            answered += 1
            if got.failed_over:
                failovers += 1
            if got.error is not None:
                failed_closed += 1
                if got.delivered != ():
                    unsound.append(
                        f"{where}: failed closed yet delivered "
                        f"{len(got.delivered)} rows"
                    )
                continue
            if got.degradation_level == 0:
                clean += 1
                # Relations have set semantics and backends do not
                # promise a row order, so parity is multiset equality
                # of the delivered tuples (exact shape and values).
                if got.user != want.user or \
                        Counter(got.delivered) \
                        != Counter(want.delivered):
                    parity.append(
                        f"{where}: clean answer differs from serial "
                        f"replay"
                    )
            else:
                degraded += 1
                extra = _visible_cells(got) - _visible_cells(want)
                if extra:
                    unsound.append(
                        f"{where}: degraded answer revealed "
                        f"{len(extra)} cells outside the clean answer"
                    )

    audit = server.tenants.get("chaos").audit
    assert audit is not None
    sequences = [record.sequence for record in audit.records()]
    gapless = (
        len(sequences) == answered
        and sequences == list(range(1, len(sequences) + 1))
    )
    requests = script.total_queries
    return ChaosReport(
        requests=requests,
        answered=answered,
        submit_rejected=submit_rejected,
        clean=clean,
        degraded=degraded,
        failed_closed=failed_closed,
        failovers=failovers,
        goodput=(clean + degraded) / requests if requests else 1.0,
        parity_violations=tuple(parity),
        unsound=tuple(unsound),
        audit_records=len(sequences),
        audit_gapless=gapless,
        fault_visits=sum(plan.visits.values()),
        fault_trips=sum(plan.trips.values()),
        trips_by_site=tuple(sorted(
            (site, count) for site, count in plan.trips.items()
        )),
        workers=spec.workers,
    )


__all__ = [
    "BUDGET_SITES",
    "CORRUPT_SITES",
    "ChaosReport",
    "ChaosSpec",
    "fault_schedule",
    "run_chaos",
]
