"""The authorization engine's end-to-end and per-layer benchmark.

Usage, from the root of a checkout::

    python3 benchmarks/authbench/run.py --workload zipf-serve \\
        --seed 1 --seconds 10 --trace 0

Workloads: ``zipf-serve``, ``churn-derive`` and ``stream-scan`` (see
``README.md`` beside this file).  The command sets the workload up
``SETUPS`` times, timing each, then runs it untraced for ``--seconds``.
With ``--trace 1`` it runs half that time untraced and half with every
layer wrapped in spans, writes the spans to ``.bench_out/`` at the root
of the checkout, and reports per-layer metrics instead of end-to-end
ones.  Outputs are checked against an oracle after the timed phases.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 1480, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 3.1, "unit": "ms"}, ...}}

The exit code is 0 on success, 1 when an output differs from the
oracle, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: How many times each run sets its workload up; ``setup_s`` is the
#: median.
SETUPS = 5

#: End-to-end metrics with their units, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _arguments(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zipf-serve", "churn-derive",
                                 "stream-scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _counters(state: Any) -> Dict[str, int]:
    """The cache and shed counters a run reports deltas of."""
    stats = state.engine.stats()
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_invalidations": stats.invalidations,
        "cache_evictions": stats.evictions,
        "sheds": state.sheds(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"authbench: no src/repro under {ROOT}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from churn_derive import ChurnDerive
    from common import percentile, rss_mb
    from layers import layer_metrics, self_time_shares
    from stream_scan import StreamScan
    from tracing import Patcher, Tracer
    from zipf_serve import ZipfServe

    workload = {
        "zipf-serve": ZipfServe,
        "churn-derive": ChurnDerive,
        "stream-scan": StreamScan,
    }[args.workload]

    setups: List[float] = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            state.close()
            state = None
        gc.collect()
        begin = time.perf_counter()
        state = workload(args.seed)
        setups.append(time.perf_counter() - begin)
    assert state is not None
    gc.collect()
    # What set-up built lives to the end of the run: keep the collector
    # from walking it again in every full collection of the timed phase.
    gc.freeze()
    settled_rss = rss_mb()

    try:
        sheds = state.sheds()
        # With tracing, half the time runs untraced and half traced:
        # their throughput ratio is the tracing overhead.
        measured = state.run(args.seconds / (2 if args.trace else 1),
                             None)
        runs = [measured]
        if args.trace:
            tracer, patcher = Tracer(), Patcher()
            before = _counters(state)
            state.instrument(tracer, patcher)
            try:
                runs.append(state.run(args.seconds / 2, tracer))
            finally:
                patcher.restore()
            after = _counters(state)
        sheds = state.sheds() - sheds
        mismatches = state.check()
    finally:
        state.close()

    attempted = sum(run.attempted for run in runs)
    # A shed answer is failed already; the server's own count guards
    # against one slipping through unnoticed.
    failed = max(sum(run.failed for run in runs), sheds)
    metrics: Dict[str, Tuple[float, str]]
    if args.trace:
        traced = runs[1]
        delta = {key: after[key] - before[key] for key in before}
        metrics = layer_metrics(tracer.spans, traced.requests, {
            **delta,
            "gen_late_p99_ms": percentile(
                measured.extra.get("gen_late_ms", []), 99),
            "first_chunk_ms_p50": percentile(
                measured.extra.get("first_chunk_ms", []), 50),
            "trace_overhead_frac":
                measured.ops_per_s / traced.ops_per_s - 1.0,
            "rss_growth_mb": measured.peak_rss_mb - settled_rss,
            "fail_frac": failed / attempted,
        })
        spans = ROOT / ".bench_out" / (
            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans)
        shares = ", ".join(f"{name} {share:.1%}" for name, share
                           in self_time_shares(tracer.spans).items())
        print(f"{len(tracer.spans)} spans in {spans}")
        print(f"self time by layer: {shares}")
    else:
        values = {
            "latency_p50_ms": measured.latency_ms(50),
            "latency_p99_ms": measured.latency_ms(99),
            "ops_per_s": measured.ops_per_s,
            "rows_per_s": measured.rows_per_s,
            "peak_rss_mb": measured.peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"RSS after setup {settled_rss:.1f} MB; {sheds} sheds")
    for run, label in zip(runs, ("untraced", "traced")):
        print(f"{label}: " + ", ".join(
            f"{kind} {c.attempted} attempted {c.failed} failed"
            for kind, c in sorted(run.counts.items())
        ) + f"; {len(run.waits_ms)} waits in {len(run.windows)} windows, "
            f"p50 {run.latency_ms(50):.3f} ms, "
            f"p99 {run.latency_ms(99):.3f} ms "
            f"(whole run {percentile(run.waits_ms, 50):.3f}, "
            f"{percentile(run.waits_ms, 99):.3f}), "
            f"{run.ops_per_s:.1f} ops/s, {run.rows_per_s:.0f} rows/s, "
            f"peak {run.peak_rss_mb:.1f} MB")
    for mismatch in mismatches:
        print(f"authbench: {mismatch}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
