"""Execution backends at data scale: SQL pushdown vs in-process.

The acceptance bar for the backend subsystem (PR 7): on a masked
scan-heavy pipeline over a 10^6-row relation — evaluate the plan, push
the mask's visibility predicate into the engine, drop fully-masked
tuples — :class:`~repro.backends.sqlite.SQLiteBackend` must sustain at
least 10x the rows/second of the best Python path
(:class:`~repro.backends.python.PythonBackend` with a compiled mask),
while delivering sorted-row identical output.

The run also times a 10^6 x 10^3 equi-join and the chunked bulk load
(for the record, no bar) and writes every number to the gitignored
``.bench_out/bench_backends.json``; the committed ``BENCH_PR7.json``
is the historical record of the first run.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.algebra.database import Database, build_database
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.relation import Column
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.backends import PythonBackend, SQLiteBackend
from repro.core.compiled_mask import compile_mask
from repro.core.mask import Mask
from repro.meta.cell import MetaCell
from repro.meta.metatuple import MetaTuple
from repro.metaalgebra.table import MaskRow
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore

SCAN_ROWS = 1_000_000
DIM_ROWS = 1_000
VISIBLE_BELOW = 1_000  # V < 1000 of V in 0..9999: ~10% delivered
SPEEDUP_BAR = 10.0
HEAVY_REPEATS = 3
LIGHT_REPEATS = 5

RESULTS_PATH = (Path(__file__).resolve().parents[1] / ".bench_out"
                / "bench_backends.json")


def _record(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` in the results file."""
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[section] = payload
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# the 10^6-row instance
# ----------------------------------------------------------------------

_DATABASE = None


def build_big_database() -> Database:
    """FACT (10^6 rows, unique key) x DIM (10^3 rows), built once."""
    global _DATABASE
    if _DATABASE is None:
        fact = make_schema(
            "FACT",
            [("K", INTEGER), ("G", INTEGER), ("V", INTEGER),
             ("TAG", STRING)],
            key=["K"],
        )
        dim = make_schema(
            "DIM", [("G", INTEGER), ("LABEL", STRING)], key=["G"],
        )
        _DATABASE = build_database([fact, dim], {
            "FACT": [
                (i, i % DIM_ROWS, i % 10_000, f"t{i % 7}")
                for i in range(SCAN_ROWS)
            ],
            "DIM": [(g, f"g{g}") for g in range(DIM_ROWS)],
        })
    return _DATABASE


def scan_plan() -> PSJQuery:
    """Full-width scan with two residual selections (all rows pass)."""
    return PSJQuery(
        (Occurrence("FACT"),),
        (AtomicCondition(Col(3), Comparator.NE, Const("none")),
         AtomicCondition(Col(2), Comparator.GE, Const(0))),
        (0, 1, 2, 3),
    )


def scan_mask() -> Mask:
    """One SQL-extractable row: tuples with V < 1000 fully visible."""
    meta = MetaTuple(
        frozenset({"V"}),
        (MetaCell.blank(True), MetaCell.blank(True),
         MetaCell.variable("x", True), MetaCell.blank(True)),
        frozenset(),
    )
    store = ConstraintStore.empty().constrain(
        "x", Comparator.LT, VISIBLE_BELOW
    )
    columns = (Column("K", INTEGER), Column("G", INTEGER),
               Column("V", INTEGER), Column("TAG", STRING))
    return Mask(columns, (MaskRow(meta, store),))


def join_plan() -> PSJQuery:
    """FACT equi-joined to DIM on G, V < 100, projecting (K, LABEL)."""
    return PSJQuery(
        (Occurrence("FACT"), Occurrence("DIM")),
        (AtomicCondition(Col(1), Comparator.EQ, Col(4)),
         AtomicCondition(Col(2), Comparator.LT, Const(100))),
        (0, 5),
    )


# ----------------------------------------------------------------------
# bulk load
# ----------------------------------------------------------------------


def test_bulk_load_throughput():
    """Chunked executemany load of 10^6 + 10^3 rows, timed (no bar)."""
    database = build_big_database()
    backend = SQLiteBackend()
    load_s = _median_seconds(
        lambda: backend.load(database), repeats=HEAVY_REPEATS
    )
    total_rows = SCAN_ROWS + DIM_ROWS
    _record("bulk_load", {
        "rows": total_rows,
        "chunk_rows": backend._chunk_rows,
        "sqlite_load_median_s": round(load_s, 3),
        "sqlite_rows_per_s": round(total_rows / load_s),
    })
    print(f"\nbulk load: {total_rows} rows in {load_s:.2f}s "
          f"({total_rows / load_s:,.0f} rows/s)")
    assert backend.execute(
        PSJQuery((Occurrence("DIM"),), (), (0, 1))
    ).cardinality == DIM_ROWS


# ----------------------------------------------------------------------
# the masked scan pipeline — carries the 10x bar
# ----------------------------------------------------------------------


def test_masked_scan_speedup_and_identity():
    """>= 10x rows/s over the best Python path, identical delivery."""
    database = build_big_database()
    plan = scan_plan()
    mask = scan_mask()
    compiled = compile_mask(mask)
    assert compiled.pushdown  # pushdown engaged
    python = PythonBackend(database)
    sqlite = SQLiteBackend(database)

    def run_python():
        return python.execute_masked(
            plan, mask, compiled, drop_fully_masked=True
        )

    def run_sqlite():
        return sqlite.execute_masked(
            plan, mask, drop_fully_masked=True
        )

    expect = run_python()
    got = run_sqlite()  # also warms the version sync
    assert sorted(expect, key=repr) == sorted(got, key=repr)

    python_s = _median_seconds(run_python, repeats=HEAVY_REPEATS)
    sqlite_s = _median_seconds(run_sqlite, repeats=LIGHT_REPEATS)
    python_rows_per_s = SCAN_ROWS / python_s
    sqlite_rows_per_s = SCAN_ROWS / sqlite_s
    speedup = sqlite_rows_per_s / python_rows_per_s

    _record("masked_scan", {
        "scanned_rows": SCAN_ROWS,
        "delivered_rows": len(got),
        "python_median_s": round(python_s, 3),
        "sqlite_median_s": round(sqlite_s, 3),
        "python_rows_per_s": round(python_rows_per_s),
        "sqlite_rows_per_s": round(sqlite_rows_per_s),
        "speedup": round(speedup, 2),
        "speedup_bar": SPEEDUP_BAR,
    })
    print(f"\nmasked scan: python {python_s:.2f}s "
          f"({python_rows_per_s:,.0f} rows/s)  "
          f"sqlite {sqlite_s:.2f}s "
          f"({sqlite_rows_per_s:,.0f} rows/s)  "
          f"speedup {speedup:.1f}x")
    assert speedup >= SPEEDUP_BAR, (
        f"expected >= {SPEEDUP_BAR}x rows/s, measured {speedup:.2f}x "
        f"(python {python_s:.3f}s / sqlite {sqlite_s:.3f}s)"
    )


# ----------------------------------------------------------------------
# the equi-join (for the record)
# ----------------------------------------------------------------------


def test_join_query_parity_and_timing():
    """10^6 x 10^3 hash join vs in-engine join, timed (no bar)."""
    database = build_big_database()
    plan = join_plan()
    python = PythonBackend(database)
    sqlite = SQLiteBackend(database)
    expect = python.execute(plan)
    got = sqlite.execute(plan)  # warms the version sync
    assert expect == got
    python_s = _median_seconds(
        lambda: python.execute(plan), repeats=HEAVY_REPEATS
    )
    sqlite_s = _median_seconds(
        lambda: sqlite.execute(plan), repeats=LIGHT_REPEATS
    )
    _record("join_query", {
        "fact_rows": SCAN_ROWS,
        "dim_rows": DIM_ROWS,
        "answer_rows": expect.cardinality,
        "python_median_s": round(python_s, 3),
        "sqlite_median_s": round(sqlite_s, 3),
        "speedup": round(python_s / sqlite_s, 2),
    })
    print(f"\njoin: {expect.cardinality} rows; "
          f"python {python_s * 1e3:.0f}ms  "
          f"sqlite {sqlite_s * 1e3:.0f}ms  "
          f"({python_s / sqlite_s:.1f}x)")


# ----------------------------------------------------------------------
# pytest-benchmark entries (for the record)
# ----------------------------------------------------------------------


def test_masked_scan_python(benchmark):
    database = build_big_database()
    plan, mask = scan_plan(), scan_mask()
    compiled = compile_mask(mask)
    python = PythonBackend(database)
    out = benchmark.pedantic(
        lambda: python.execute_masked(plan, mask, compiled,
                                      drop_fully_masked=True),
        rounds=2, iterations=1,
    )
    assert out


def test_masked_scan_sqlite(benchmark):
    database = build_big_database()
    plan, mask = scan_plan(), scan_mask()
    sqlite = SQLiteBackend(database)
    sqlite.execute_masked(plan, mask, drop_fully_masked=True)  # warm
    out = benchmark.pedantic(
        lambda: sqlite.execute_masked(plan, mask,
                                      drop_fully_masked=True),
        rounds=3, iterations=1,
    )
    assert out
