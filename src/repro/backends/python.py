"""The in-process reference backend (the differential oracle).

Wraps the in-process evaluator, ``evaluate_optimized``, behind the
:class:`~repro.backends.base.ExecutionBackend` protocol.  This is
the backend every engine uses by default, and the oracle the SQL
backends are differentially tested against
(``tests/property/test_backend_parity.py``, soundlint rule SL008).

Evaluation runs the stages of :mod:`repro.algebra.optimize`: each
occurrence filtered once by its own conjuncts, a hash or nested-loop
join on the filtered side, the remaining cross-occurrence comparisons
as residual closures, then the projection, with a dedupe pass only
when the projection drops a column — the rule ``plan_to_sql`` follows
for ``DISTINCT``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.algebra.columnar import DEFAULT_CHUNK_SIZE
from repro.algebra.database import Database
from repro.algebra.expression import PSJQuery
from repro.algebra.optimize import evaluate_optimized, iter_evaluate_optimized
from repro.algebra.relation import Relation, Row
from repro.errors import BackendError


class PythonBackend:
    """Evaluate plans in-process over the live :class:`Database`.

    Holds a *reference* to the database (no copy), so mutations are
    visible immediately and ``load`` costs nothing — there is no store
    to synchronize.
    """

    name = "python"

    def __init__(self, database: Optional[Database] = None) -> None:
        self._database = database

    def load(self, database: Database) -> None:
        """Attach ``database``; the Python backend keeps no copy."""
        self._database = database

    def _require_database(self) -> Database:
        database = self._database
        if database is None:
            raise BackendError(
                f"backend {self.name!r} has no database loaded"
            )
        return database

    def execute(self, plan: PSJQuery) -> Relation:
        """Evaluate ``plan`` with the optimized in-process evaluator."""
        return evaluate_optimized(plan, self._require_database())

    def execute_stream(
        self,
        plan: PSJQuery,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Tuple[Row, ...]]:
        """Evaluate ``plan``, yielding deduplicated rows in chunks.

        The bounded-memory counterpart of :meth:`execute`: the
        concatenated chunks equal ``execute(plan).rows`` exactly,
        including order, but the answer is never materialized whole
        (see :func:`repro.algebra.optimize.iter_evaluate_optimized`
        for what *is* retained).
        """
        return iter_evaluate_optimized(
            plan, self._require_database(), chunk_size=chunk_size
        )
