"""Pluggable execution backends.

Where the data-plane half of the authorization process runs.  The
engine asks :func:`make_backend` for the backend named by
``EngineConfig.backend`` and routes every plan evaluation through it;
the mask-derivation half (the meta-algebra) is backend-independent,
and the engine masks every backend's answer with the same kernel.

* ``python`` — the in-process reference evaluator, and the
  differential oracle for everything else.
* ``sqlite`` — plans compiled into single statements over an embedded
  stdlib ``sqlite3`` store.
* ``duckdb`` — the same compiler over the optional ``duckdb`` driver.

See ``docs/BACKENDS.md`` for the compilation scheme and the parity
guarantees (soundlint rule SL008 pins each non-oracle backend to its
oracle and differential test suite).
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.database import Database
from repro.backends.base import ExecutionBackend
from repro.backends.duckdb import DuckDBBackend
from repro.backends.python import PythonBackend
from repro.backends.sqlite import SQLiteBackend
from repro.errors import BackendUnavailableError

#: Names :func:`make_backend` accepts, in documentation order.
BACKEND_NAMES = ("python", "sqlite", "duckdb")


def make_backend(name: str,
                 database: Optional[Database] = None) -> ExecutionBackend:
    """Construct the execution backend called ``name``.

    When ``database`` is given it is loaded immediately (for the SQL
    backends: bulk-loaded into the embedded store).

    Raises:
        BackendUnavailableError: for unknown names, and for optional
            backends whose driver is not installed.
    """
    if name == "python":
        return PythonBackend(database)
    if name == "sqlite":
        return SQLiteBackend(database)
    if name == "duckdb":
        return DuckDBBackend(database)
    raise BackendUnavailableError(
        name, f"known backends: {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "DuckDBBackend",
    "ExecutionBackend",
    "PythonBackend",
    "SQLiteBackend",
    "make_backend",
]
