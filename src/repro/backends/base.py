"""The execution-backend protocol.

The paper's authorization process separates *what* to compute — the
plan A and the mask A' — from *where* the data-plane half runs.  An
:class:`ExecutionBackend` owns that second half: it holds (a copy of,
or a reference to) the database instance and evaluates PSJ plans
against it.  Masking is not a backend's concern: the engine applies
A' to every backend's answer with the one compiled-mask kernel
(Figure 2's single step), so where A is evaluated never changes what
is delivered.

Three implementations ship with the library (see
:func:`repro.backends.make_backend`):

* ``python`` — :class:`repro.backends.python.PythonBackend`, the
  in-process reference evaluator.  It *is* the differential oracle:
  every other backend must be sorted-row identical to it
  (``tests/property/test_backend_parity.py``, soundlint rule SL008).
* ``sqlite`` — :class:`repro.backends.sqlite.SQLiteBackend`, compiling
  plans into single statements over an embedded stdlib ``sqlite3``
  store.
* ``duckdb`` — :class:`repro.backends.duckdb.DuckDBBackend`, the same
  SQL compiler over the optional ``duckdb`` driver.

The protocol is deliberately small: :meth:`ExecutionBackend.load` and
:meth:`ExecutionBackend.execute`.

Backends may additionally offer ``execute_stream(plan, chunk_size)``
yielding deduplicated answer rows in chunks — an *optional*
capability, not part of the protocol: the resilient executor probes
for it with ``getattr`` and falls back to materializing
:meth:`ExecutionBackend.execute` output and chunking it, so SQL
backends keep working in streamed deliveries unchanged.  Where
provided, the concatenated chunks must equal ``execute(plan).rows``
exactly, including order (soundlint SL005 pairs the Python backend's
implementation with its materializing oracle).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.algebra.database import Database
from repro.algebra.expression import PSJQuery
from repro.algebra.relation import Relation


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where PSJ plans run.

    Implementations must be safe to call from multiple worker threads
    (the serving layer shares one backend per tenant engine) and must
    observe mutations of the loaded :class:`Database` — the SQL
    backends do so through :meth:`Database.version_of` counters, the
    Python backend reads the live instances directly.
    """

    #: The factory name of this backend (``"python"``, ``"sqlite"``...).
    name: str

    def load(self, database: Database) -> None:
        """Attach ``database`` as this backend's data source.

        SQL backends bulk-load every relation into their embedded
        store here (chunked inserts); later mutations are picked up
        per-plan by comparing mutation counters.
        """

    def execute(self, plan: PSJQuery) -> Relation:
        """Evaluate ``plan``, returning the (unmasked) answer A.

        Must equal ``evaluate_optimized(plan, database)`` as a set of
        rows — row *order* is backend-specific, and
        :class:`~repro.algebra.relation.Relation` equality is set
        equality, so callers never depend on it.

        Raises:
            BackendError: when no database is loaded or the embedded
                engine fails; inside ``authorize`` the fail-closed
                boundary turns this into an empty-mask answer.
        """
        ...
