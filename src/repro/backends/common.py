"""Shared machinery of the SQL execution backends.

:class:`_SQLBackend` implements the whole
:class:`~repro.backends.base.ExecutionBackend` protocol on top of two
driver-specific template methods — :meth:`_SQLBackend._connect` and
:meth:`_SQLBackend._column_decl` — so the sqlite3 and DuckDB backends
differ only in how they open a connection and declare columns.

Data movement and staleness:

* :meth:`_SQLBackend.load` bulk-loads every relation with chunked
  ``executemany`` inserts (``_chunk_rows`` rows per batch, so a
  10^6-row relation never materializes one giant parameter list).
  Each relation's load is wrapped in an explicit transaction: a
  failure in any chunk rolls the whole relation back — table
  creation included — so a failed load leaves the store exactly as
  it was, and the unchanged ``_loaded`` counter makes the next plan
  retry the load instead of trusting a half-filled table.  The
  ``backend.load`` fault site fires per chunk for exactly this
  scenario.
* Each relation's :meth:`~repro.algebra.database.Database.version_of`
  counter is recorded at load time; before running a plan the backend
  re-syncs exactly the referenced relations whose counters moved.
  Mutating one relation of a wide schema therefore reloads one table.

Thread safety: one lock serializes every store access (sync + query),
matching the serving layer's one-backend-per-tenant sharing.  Driver
exceptions are translated to :class:`~repro.errors.BackendError` at
this boundary — narrowly, via each driver's declared error types — so
the engine's fail-closed boundary sees a library error, never a raw
driver one.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.algebra.database import Database
from repro.algebra.expression import PSJQuery
from repro.algebra.relation import Column, Relation, Row
from repro.algebra.to_sql import plan_to_sql, table_name
from repro.errors import BackendError
from repro.testing.faults import maybe_fault


class _SQLBackend:
    """Template base for backends that run plans in a SQL engine."""

    name = "sql"

    #: Driver exception types translated to :class:`BackendError`.
    _driver_errors: Tuple[Type[BaseException], ...] = ()

    #: Rows per ``executemany`` batch during bulk load.
    _chunk_rows = 20_000

    def __init__(self, database: Optional[Database] = None) -> None:
        self._lock = threading.Lock()
        self._database: Optional[Database] = None
        #: Relation name -> mutation counter it was loaded at.
        self._loaded: Dict[str, int] = {}
        #: Relations for which a table exists in the store.
        self._created: Set[str] = set()
        self._connection = self._connect()
        if database is not None:
            self.load(database)

    # ------------------------------------------------------------------
    # driver template methods
    # ------------------------------------------------------------------

    def _connect(self) -> Any:
        """Open the embedded store; returns a DB-API-ish connection."""
        raise NotImplementedError

    def _column_decl(self, column: Column, index: int) -> str:
        """The ``CREATE TABLE`` declaration of ``column``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # protocol: load
    # ------------------------------------------------------------------

    def load(self, database: Database) -> None:
        """Attach ``database`` and bulk-load every relation."""
        with self._lock:
            for name in self._created:
                self._execute_locked(
                    f"DROP TABLE IF EXISTS {table_name(name)}"
                )
            self._created.clear()
            self._loaded.clear()
            self._database = database
            self._sync_locked(database.relation_names())

    def _require_database(self) -> Database:
        database = self._database
        if database is None:
            raise BackendError(
                f"backend {self.name!r} has no database loaded"
            )
        return database

    def _sync_locked(self, names: Sequence[str]) -> None:
        """Reload exactly the relations whose mutation counter moved."""
        database = self._require_database()
        for name in names:
            version = database.version_of(name)
            if self._loaded.get(name) == version:
                continue
            self._load_relation_locked(name, database.instance(name))
            self._loaded[name] = version

    def _load_relation_locked(self, name: str,
                              relation: Relation) -> None:
        """Reload ``name`` atomically: all chunks commit, or none.

        The DDL, the delete, and every insert chunk run in one
        explicit transaction.  A mid-chunk failure rolls the relation
        back to its pre-load rows (or to nonexistence, on the
        CREATE path — both embedded engines have transactional DDL),
        and ``_created``/``_loaded`` are only updated after the
        commit, so staleness tracking can never believe a half-loaded
        table is synced.
        """
        table = table_name(name)
        created_now = name not in self._created
        self._execute_locked("BEGIN TRANSACTION")
        try:
            if created_now:
                decls = ", ".join(
                    self._column_decl(column, index)
                    for index, column in enumerate(relation.columns)
                )
                self._execute_locked(
                    f"CREATE TABLE {table} ({decls})"
                )
            else:
                self._execute_locked(f"DELETE FROM {table}")
            placeholders = ", ".join(["?"] * relation.arity)
            insert = f"INSERT INTO {table} VALUES ({placeholders})"
            rows = relation.rows
            for start in range(0, len(rows), self._chunk_rows):
                maybe_fault("backend.load")
                self._executemany_locked(
                    insert, rows[start:start + self._chunk_rows]
                )
        except BaseException:
            self._rollback_locked()
            raise
        self._execute_locked("COMMIT")
        if created_now:
            self._created.add(name)

    def _rollback_locked(self) -> None:
        """Best-effort ROLLBACK: the in-flight error stays primary."""
        try:
            self._connection.execute("ROLLBACK")
        except self._driver_errors:
            # The transaction is already gone (e.g. the driver aborted
            # it); the original load error propagating past us is the
            # failure that matters.
            pass

    # ------------------------------------------------------------------
    # protocol: execute
    # ------------------------------------------------------------------

    def execute(self, plan: PSJQuery) -> Relation:
        """Run ``plan`` as one ``SELECT`` in the store."""
        database = self._require_database()
        plan.validate(database.schema)
        sql = plan_to_sql(plan, database.schema)
        with self._lock:
            self._sync_locked(plan.relation_names())
            rows = self._fetch_locked(sql)
        return Relation(
            plan.output_columns(database.schema),
            (tuple(row) for row in rows),
            validate=False,
        )

    # ------------------------------------------------------------------
    # driver-error boundary
    # ------------------------------------------------------------------

    def _execute_locked(self, sql: str) -> None:
        try:
            self._connection.execute(sql)
        except self._driver_errors as error:
            raise BackendError(
                f"{self.name} statement failed: {error}"
            ) from error

    def _executemany_locked(self, sql: str,
                            rows: Sequence[Row]) -> None:
        try:
            self._connection.executemany(sql, rows)
        except self._driver_errors as error:
            raise BackendError(
                f"{self.name} bulk insert failed: {error}"
            ) from error

    def _fetch_locked(self, sql: str) -> List[Tuple[Any, ...]]:
        try:
            result: List[Tuple[Any, ...]] = \
                self._connection.execute(sql).fetchall()
            return result
        except self._driver_errors as error:
            raise BackendError(
                f"{self.name} query failed: {error}"
            ) from error
