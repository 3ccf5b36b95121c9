"""Execution backends at data scale: the engine's SQL route vs in-process.

A SQL backend is an evaluation choice behind failover: the engine
masks every backend's answer with the same compiled-mask kernel, so
what a SQL backend must show is parity through the engine.  On a
full-width scan of a 10^6-row relation, authorized for a user whose
one view shows the rows with V < 1000 in full, with fully masked rows
dropped, a sqlite-backed engine must deliver exactly what a
python-backed one does.  Both timings are recorded, with no bar: the
two routes share the masking kernel, so their ratio would compare
evaluators only, which the join timing already records.

The run also times a 10^6 x 10^3 equi-join and the chunked bulk load
(for the record, no bar) and writes every number to the gitignored
``.bench_out/bench_backends.json``; the committed ``BENCH_PR7.json``
is the historical record of the first run, made when SQL backends
masked inside the statement and had to beat the in-process masker
tenfold (both since removed).
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
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.backends import PythonBackend, SQLiteBackend
from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.predicates.comparators import Comparator

SCAN_ROWS = 1_000_000
DIM_ROWS = 1_000
VISIBLE_BELOW = 1_000  # V < 1000 of V in 0..9999: ~10% delivered
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


#: The one user, and the view granted to them: FACT rows with
#: V < VISIBLE_BELOW, every column shown.
SCAN_USER = "analyst"
SCAN_VIEW = ("view SMALLV (FACT.K, FACT.G, FACT.V, FACT.TAG) "
             f"where FACT.V < {VISIBLE_BELOW}")

#: A full-width scan with two residual selections.  The TAG selection
#: keeps 6 rows of 7, and the derived mask does not check TAG, so an
#: evaluation that loses it delivers rows it must not.
SCAN_QUERY = ('retrieve (FACT.K, FACT.G, FACT.V, FACT.TAG) '
              'where FACT.V >= 0 and FACT.TAG != "t0"')


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
# the engine's SQL route (identity, timed with no bar)
# ----------------------------------------------------------------------


def test_engine_scan_parity_and_timing():
    """The sqlite-backed engine delivers the python-backed one's rows."""
    database = build_big_database()
    config = DEFAULT_CONFIG.but(drop_fully_masked_rows=True)
    python = AuthorizationEngine(database, config=config)
    python.define_view(SCAN_VIEW)
    python.permit("SMALLV", SCAN_USER)
    sqlite = AuthorizationEngine(database, python.catalog,
                                 config.but(backend="sqlite"))

    def run_python():
        return python.authorize(SCAN_USER, SCAN_QUERY)

    def run_sqlite():
        return sqlite.authorize(SCAN_USER, SCAN_QUERY)

    # The first runs derive and cache the mask and sync the store.
    expect = run_python()
    got = run_sqlite()
    assert expect.error is None and got.error is None
    assert got.backend_used == "sqlite"
    assert sorted(got.delivered) == sorted(expect.delivered)
    assert got.stats() == expect.stats()

    python_s = _median_seconds(run_python, repeats=HEAVY_REPEATS)
    sqlite_s = _median_seconds(run_sqlite, repeats=HEAVY_REPEATS)
    _record("engine_scan", {
        "scanned_rows": SCAN_ROWS,
        "delivered_rows": len(got.delivered),
        "python_median_s": round(python_s, 3),
        "sqlite_median_s": round(sqlite_s, 3),
        "python_rows_per_s": round(SCAN_ROWS / python_s),
        "sqlite_rows_per_s": round(SCAN_ROWS / sqlite_s),
    })
    print(f"\nengine scan: {len(got.delivered)} of {SCAN_ROWS} rows "
          f"delivered; python {python_s:.2f}s  sqlite {sqlite_s:.2f}s")


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
