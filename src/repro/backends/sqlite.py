"""The stdlib ``sqlite3`` execution backend.

An in-memory SQLite store fed by the shared SQL compiler
(:mod:`repro.algebra.to_sql`).  Columns are declared *without* a type:
SQLite's NONE affinity then stores every bound Python value verbatim
(int as INTEGER, float as REAL, str as TEXT), so values round-trip
exactly and the backend needs no result coercion.  (SQLite would store
a NaN as NULL; the REAL domain rejects NaN, so none reaches a store.)
Cross-class comparison semantics match the Python evaluator on
well-typed plans — the schema's domain checks already rule out
string/number mixing, and SQLite compares INTEGER with REAL
numerically, as Python does.

One caveat, shared with the Python evaluator's own dedupe: SQL
``DISTINCT`` and Python set semantics both treat ``3`` and ``3.0`` as
the same row, but *which* representative survives is an
implementation choice on either side.  Relation equality is set
equality (``3 == 3.0``), so the parity suite is insensitive to it.
"""

from __future__ import annotations

import sqlite3
from typing import Any

from repro.algebra.relation import Column
from repro.algebra.to_sql import column_name
from repro.backends.common import _SQLBackend


class SQLiteBackend(_SQLBackend):
    """Compile plans and masks into SQL over stdlib ``sqlite3``."""

    name = "sqlite"
    _driver_errors = (sqlite3.Error,)

    def _connect(self) -> Any:
        # One in-memory store per backend instance.  The backend's own
        # lock serializes all access, so the sqlite3 same-thread guard
        # is redundant and would only break serving worker threads.
        # isolation_level=None puts the driver in true autocommit so
        # the bulk loader's explicit BEGIN/COMMIT/ROLLBACK are the
        # only transactions in play (the driver's implicit-BEGIN mode
        # would otherwise hold a never-committed transaction open and
        # make an explicit BEGIN a nested-transaction error).
        return sqlite3.connect(
            ":memory:", check_same_thread=False, isolation_level=None
        )

    def _column_decl(self, column: Column, index: int) -> str:
        # No declared type: NONE affinity keeps stored values exactly
        # as bound, whatever the column's domain.
        return column_name(index)
