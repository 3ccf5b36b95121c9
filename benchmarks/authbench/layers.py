"""The layers the traced run wraps, and the metrics their spans give.

Each layer is wrapped at its public entry point, from outside:

* module functions as ``repro.core.engine`` binds them (derivation,
  self-join closure, mask compilation and columnar application, permit
  inference, and the memoized front end: parse, compile, plan key);
* the five meta-algebra operators as ``repro.metaalgebra.plan`` binds
  them (product, select, project, prune, cleanup);
* ``CompiledMask.apply_rows``, the streamed masking kernel;
* methods of the live engine and its parts: the resilient executor
  (evaluation), the derivation cache, the audit log, the catalog's
  grant writes, and ``authorize_batch`` as the server drains it.

Time metrics named ``*_ms`` without a percentile are self time per
request, so the layers of one workload add up to its traced request
cost; those named ``*_p50``/``*_p99`` are percentiles of span
durations.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Tuple,
)

from common import percentile
from tracing import Attrs, Patcher, Tracer

import repro.core.engine as engine_module
import repro.metaalgebra.plan as plan_module
from repro.core.compiled_mask import CompiledMask
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED

#: name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]


def _rows_out(result: Any, args: tuple) -> Attrs:
    return {"rows_out": len(result)}


def _rows_in_out(result: Any, args: tuple) -> Attrs:
    return {"rows_in": len(args[0]), "rows_out": len(result)}


def _derived(result: Any, args: tuple) -> Attrs:
    mask = result.mask
    return {"level": result.degradation_level,
            "mask_rows": len(mask) if mask is not None else 0}


#: Rows of each masked result whose cells ``_masked`` counts.
VISIBILITY_SAMPLE = 64


def _masked(result: Any, args: tuple) -> Attrs:
    # Counts only: how many cells of the first rows the kernel left
    # visible (a fixed sample keeps the walk off the traced request).
    sample = result[:VISIBILITY_SAMPLE]
    cells = len(sample) * (len(sample[0]) if sample else 0)
    hidden = sum(row.count(MASKED) for row in sample)
    return {"rows": len(result), "cells": cells, "visible": cells - hidden}


def _evaluated(result: Any, args: tuple) -> Attrs:
    return {"rows": result.answer.cardinality,
            "failover": result.failover_reason is not None}


def _count(result: Any, args: tuple) -> Attrs:
    return {"count": len(result)}


def _hit(result: Any, args: tuple) -> Attrs:
    return {"hit": result is not None}


def _chunk(chunk: Any) -> Attrs:
    return {"rows": len(chunk)}


def instrument(tracer: Tracer, patcher: Patcher,
               engine: AuthorizationEngine) -> None:
    """Wrap every layer ``engine`` passes a request through."""
    for attr, name, shape in (
        ("derive_mask_resilient", "derive", _derived),
        ("selfjoin_closure", "derive.selfjoin", _rows_out),
        ("compile_mask", "mask.compile", None),
        ("apply_mask_columnar", "mask.apply", _masked),
        ("infer_permits", "permits", _count),
        ("parse_statement", "frontend.parse", None),
        ("compile_query", "frontend.compile", None),
        ("canonical_plan_key", "frontend.plankey", None),
    ):
        patcher.wrap(tracer, engine_module, attr, name, shape)
    for attr, name, shape in (
        ("meta_product_streaming", "derive.product", _rows_out),
        ("meta_product", "derive.product", _rows_out),
        ("meta_select", "derive.select", _rows_in_out),
        ("meta_project", "derive.project", _rows_in_out),
        ("prune_unsatisfiable", "derive.prune", _rows_in_out),
        ("prune_dangling", "derive.prune", _rows_in_out),
        ("cleanup", "derive.cleanup", _rows_in_out),
        ("selfjoin_closure", "derive.selfjoin", _rows_out),
    ):
        patcher.wrap(tracer, plan_module, attr, name, shape)
    patcher.wrap(tracer, CompiledMask, "apply_rows", "mask.apply", _masked)

    executor = engine.executor
    patcher.wrap(tracer, executor, "execute", "eval", _evaluated)
    open_stream = executor.execute_stream

    def execute_stream(*args: Any, **kwargs: Any) -> Any:
        # Opening evaluates the first chunk; every later chunk is
        # evaluated lazily, inside the consumer's ``next``.
        frame = tracer.begin("eval")
        outcome = open_stream(*args, **kwargs)
        tracer.end(frame, {"rows": 0,
                           "failover": outcome.failover_reason is not None})
        return replace(outcome, chunks=tracer.wrap_iter(
            "eval", outcome.chunks, _chunk))

    patcher.replace(executor, "execute_stream", execute_stream)

    # The cache is injected at construction (a sharded one under the
    # server) and not re-exported, so it is reached by its field.
    cache = engine._derivation_cache
    for attr, name, shape in (
        ("get", "cache.lookup", _hit),
        ("get_compiled", "cache.lookup", _hit),
        ("put", "cache.store", None),
        ("put_compiled", "cache.store", None),
    ):
        patcher.wrap(tracer, cache, attr, name, shape)
    if engine.audit is not None:
        patcher.wrap(tracer, engine.audit, "record", "audit")
        patcher.wrap(tracer, engine.audit, "record_stream", "audit")
    patcher.wrap(tracer, engine, "permit", "catalog.grant")
    patcher.wrap(tracer, engine, "revoke", "catalog.grant")


#: One submitted request: its id, submit time and load phase.
Submitted = Tuple[int, float, str]


class SubmitLog:
    """When each request was submitted, in per-user FIFO order.

    The server drains each user's queue in submission order, so the
    ``count`` requests of a drained batch are the ``count`` oldest
    entries of that user.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queues: Dict[str, Deque[Submitted]] = defaultdict(deque)

    def push(self, user: str, request: int, when: float,
             phase: str) -> None:
        with self._lock:
            self._queues[user].append((request, when, phase))

    def pop(self, user: str, count: int) -> List[Submitted]:
        with self._lock:
            queue = self._queues[user]
            return [queue.popleft() for _ in range(min(count, len(queue)))]


def instrument_server(tracer: Tracer, patcher: Patcher,
                      engine: AuthorizationEngine,
                      submits: SubmitLog) -> None:
    """Wrap the tenant engine's batch entry points as the server's
    workers call them: queue wait, batch time, batch shape, sheds."""
    batch = engine.authorize_batch

    def authorize_batch(user: str, queries: Iterable[Any]) -> Any:
        start = time.perf_counter()
        queries = list(queries)
        entries = submits.pop(user, len(queries))
        for request, submitted, phase in entries:
            tracer.record("serving.queue", submitted, start, request,
                          {"phase": phase})
        tracer.set_request(entries[0][0] if entries else None)
        frame = tracer.begin("serving.batch")
        try:
            answers = batch(user, queries)
        finally:
            tracer.end(frame, {
                "requests": len(queries),
                "plans": len(set(queries)),
                "request_ids": [entry[0] for entry in entries],
            })
            tracer.set_request(None)
        return answers

    patcher.replace(engine, "authorize_batch", authorize_batch)
    for attr in ("authorize_degraded", "deny"):
        patcher.replace(engine, attr, _shed(tracer, submits,
                                            getattr(engine, attr)))


def _shed(tracer: Tracer, submits: SubmitLog,
          method: Callable[..., Any]) -> Callable[..., Any]:
    def shed(user: str, *args: Any, **kwargs: Any) -> Any:
        for request, submitted, phase in submits.pop(user, 1):
            tracer.record("serving.shed", submitted, time.perf_counter(),
                          request, {"phase": phase})
        return method(user, *args, **kwargs)

    return shed


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.batch_ms_p50", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.plans_per_request", "ratio"),
    ("serving.shed_frac", "ratio"),
    ("harness.gen_late_p99_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.derivations_per_1e4", "count"),
    ("cache.invalidations_per_1e4", "count"),
    ("cache.evictions_per_1e4", "count"),
    ("cache.lookup_us_p50", "us"),
    ("derive.self_ms", "ms"),
    ("derive.selfjoin_ms", "ms"),
    ("derive.product_ms", "ms"),
    ("derive.product_rows_out", "count"),
    ("derive.select_ms", "ms"),
    ("derive.select_rows_in", "count"),
    ("derive.select_rows_out", "count"),
    ("derive.project_ms", "ms"),
    ("derive.prune_ms", "ms"),
    ("derive.cleanup_ms", "ms"),
    ("derive.mask_rows_mean", "count"),
    ("derive.degraded_frac", "ratio"),
    ("eval.ms", "ms"),
    ("eval.rows_out_mean", "count"),
    ("eval.rows_per_s", "rows/s"),
    ("eval.failover_frac", "ratio"),
    ("mask.compile_ms", "ms"),
    ("mask.apply_ms", "ms"),
    ("mask.rows_per_s", "rows/s"),
    ("mask.visible_cell_frac", "ratio"),
    ("stream.chunk_ms_p99", "ms"),
    ("stream.chunks_per_req", "count"),
    ("stream.first_chunk_ms_p50", "ms"),
    ("permits.ms", "ms"),
    ("audit.ms", "ms"),
    ("catalog.grant_us_p50", "us"),
    ("frontend.parse_ms", "ms"),
    ("frontend.compile_calls_per_1e4", "count"),
    ("frontend.plankey_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.rss_growth_mb", "MB"),
    ("fail_frac", "ratio"),
)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Iterable[Any], requests: int,
                  harness: Dict[str, float]) -> Metrics:
    """Per-layer metrics of one traced run.

    ``requests`` is the number of authorize requests the run completed;
    ``harness`` carries what the harness measured outside any span:
    cache counter deltas, sheds, generator lateness, first-chunk time,
    memory growth, the failure share and the tracing overhead.
    """
    by_name: Dict[str, List[Any]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_ms(name: str) -> float:
        return _ratio(sum(s.self_time for s in by_name[name]) * 1e3,
                      requests)

    def attr(name: str, key: str) -> List[float]:
        return [s.attrs[key] for s in by_name[name] if key in s.attrs]

    def durations(name: str, scale: float) -> List[float]:
        return [s.duration * scale for s in by_name[name]]

    batches = by_name["serving.batch"]
    batched = sum(s.attrs["requests"] for s in batches)
    derivations = by_name["derive"]
    evaluated = sum(attr("eval", "rows"))
    eval_s = sum(s.self_time for s in by_name["eval"])
    masked = sum(attr("mask.apply", "rows"))
    mask_s = sum(s.self_time for s in by_name["mask.apply"])
    cells = sum(attr("mask.apply", "cells"))
    lookups = harness["cache_hits"] + harness["cache_misses"]
    per_1e4 = _ratio(1e4, requests)
    chunks = [s for s in by_name["stream.chunk"] if s.attrs["rows"] > 0]
    # Queue wait at the fixed offered rate, beside the latency it adds
    # to; the saturating phase's queue is full by construction.
    queued = [s.duration * 1e3 for s in by_name["serving.queue"]
              if s.attrs["phase"] == "latency"]

    values: Dict[str, float] = {
        "serving.queue_wait_p50_ms": percentile(queued, 50),
        "serving.queue_wait_p99_ms": percentile(queued, 99),
        "serving.batch_ms_p50": percentile(
            durations("serving.batch", 1e3), 50),
        "serving.batch_size_mean": _ratio(batched, len(batches)),
        "serving.plans_per_request": _ratio(
            sum(s.attrs["plans"] for s in batches), batched),
        "serving.shed_frac": _ratio(harness["sheds"], requests),
        "harness.gen_late_p99_ms": harness["gen_late_p99_ms"],
        "cache.hit_rate": _ratio(harness["cache_hits"], lookups)
        if lookups else 1.0,
        "cache.derivations_per_1e4": len(derivations) * per_1e4,
        "cache.invalidations_per_1e4":
            harness["cache_invalidations"] * per_1e4,
        "cache.evictions_per_1e4": harness["cache_evictions"] * per_1e4,
        "cache.lookup_us_p50": percentile(
            durations("cache.lookup", 1e6), 50),
        "derive.self_ms": self_ms("derive"),
        "derive.selfjoin_ms": self_ms("derive.selfjoin"),
        "derive.product_ms": self_ms("derive.product"),
        "derive.product_rows_out": _mean(
            attr("derive.product", "rows_out")),
        "derive.select_ms": self_ms("derive.select"),
        "derive.select_rows_in": _mean(attr("derive.select", "rows_in")),
        "derive.select_rows_out": _mean(
            attr("derive.select", "rows_out")),
        "derive.project_ms": self_ms("derive.project"),
        "derive.prune_ms": self_ms("derive.prune"),
        "derive.cleanup_ms": self_ms("derive.cleanup"),
        "derive.mask_rows_mean": _mean(attr("derive", "mask_rows")),
        "derive.degraded_frac": _ratio(
            sum(1 for level in attr("derive", "level") if level > 0),
            len(derivations)),
        "eval.ms": self_ms("eval"),
        "eval.rows_out_mean": _ratio(evaluated, requests),
        "eval.rows_per_s": _ratio(evaluated, eval_s),
        "eval.failover_frac": _ratio(
            sum(1 for f in attr("eval", "failover") if f),
            len(attr("eval", "failover"))),
        "mask.compile_ms": self_ms("mask.compile"),
        "mask.apply_ms": self_ms("mask.apply"),
        "mask.rows_per_s": _ratio(masked, mask_s),
        "mask.visible_cell_frac": _ratio(
            sum(attr("mask.apply", "visible")), cells),
        "stream.chunk_ms_p99": percentile(
            [s.duration * 1e3 for s in chunks], 99),
        "stream.chunks_per_req": _ratio(len(chunks), requests),
        "stream.first_chunk_ms_p50": harness["first_chunk_ms_p50"],
        "permits.ms": self_ms("permits"),
        "audit.ms": self_ms("audit"),
        "catalog.grant_us_p50": percentile(
            durations("catalog.grant", 1e6), 50),
        "frontend.parse_ms": self_ms("frontend.parse"),
        "frontend.compile_calls_per_1e4":
            len(by_name["frontend.compile"]) * per_1e4,
        "frontend.plankey_ms": self_ms("frontend.plankey"),
        "harness.trace_overhead_frac": harness["trace_overhead_frac"],
        "harness.rss_growth_mb": harness["rss_growth_mb"],
        "fail_frac": harness["fail_frac"],
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


#: Spans that time a wait, not work.
WAITS = frozenset({"serving.queue", "serving.shed"})


def self_time_shares(spans: Iterable[Any]) -> Dict[str, float]:
    """Each layer's share of all traced self time (layer = span name
    up to its first dot), for the run's human-readable summary."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name not in WAITS:
            totals[span.name.split(".")[0]] += span.self_time
    whole = sum(totals.values())
    return {name: _ratio(total, whole)
            for name, total in sorted(totals.items(),
                                      key=lambda item: -item[1])}
