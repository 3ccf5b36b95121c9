"""Unit tests for chunk-streamed authorized answers.

``AuthorizationEngine.authorize_stream`` is :meth:`authorize`'s
iterator mode: the concatenated chunks must be byte-identical to the
materialized ``delivered`` tuple, the statistics and audit record must
match, and every failure mode — establishment faults, mid-stream
faults, stream-budget exhaustion, consumer abandonment — must fail the
*remainder* closed while keeping what was already delivered on the
books.  The kernel-level identities backing these tests live in
``tests/property/test_columnar_relation.py`` and
``tests/property/test_chunked_apply.py``; the oracle differential over
every delivery mode lives in ``tests/property/test_engine_properties.py``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.config import DEFAULT_CONFIG
from repro.core.answer import DeliveryStats
from repro.core.audit import AuditLog
from repro.core.compiled_mask import compile_mask
from repro.core.engine import AuthorizationEngine
from repro.errors import BackendError, ParseError
from repro.meta.catalog import PermissionCatalog
from repro.resilience.failover import StreamOutcome
from repro.testing import faults
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_engine,
)
from tests.property.test_compiled_mask import masks_never_compile

EXAMPLES = (EXAMPLE_1_QUERY, EXAMPLE_2_QUERY, EXAMPLE_3_QUERY)


def drain(stream):
    return tuple(row for chunk in stream for row in chunk)


class TestParityWithAuthorize:
    @pytest.mark.parametrize("chunk_size", [None, 1, 2, 10_000])
    def test_delivered_rows_identical(self, paper_engine, chunk_size):
        for user in ("Brown", "Smith", "stranger"):
            for query in EXAMPLES:
                answer = paper_engine.authorize(user, query)
                stream = paper_engine.authorize_stream(
                    user, query, chunk_size=chunk_size
                )
                assert drain(stream) == answer.delivered
                assert stream.finished
                assert stream.stats() == answer.stats()
                assert stream.error == answer.error
                assert [str(p) for p in stream.permits] \
                    == [str(p) for p in answer.permits]

    def test_parity_with_drop_fully_masked(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(drop_fully_masked_rows=True)
        )
        answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY,
                                         chunk_size=1)
        assert drain(stream) == answer.delivered == (("bq-45", "Acme"),)

    def test_parity_without_compiled_masks(self):
        # A mask that fails to compile fails closed in both modes: the
        # stream is denied exactly like the whole answer.
        engine = build_paper_engine()
        for chunk_size in (None, 1):
            with masks_never_compile() as compile_attempts:
                answer = engine.authorize("Brown", EXAMPLE_1_QUERY)
                stream = engine.authorize_stream(
                    "Brown", EXAMPLE_1_QUERY, chunk_size=chunk_size
                )
                assert drain(stream) == answer.delivered == ()
            assert compile_attempts.called
            assert stream.error == answer.error
            assert "mask compilation unavailable" in stream.error

    def test_chunk_size_defaults_to_config(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(stream_chunk_size=7)
        )
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        assert stream.chunk_size == 7

    def test_rejects_non_retrieve(self, paper_engine):
        with pytest.raises(ParseError):
            paper_engine.authorize_stream("Brown", "permit SAE to Brown")

    def test_metadata_available_before_consumption(self, paper_engine):
        stream = paper_engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        assert stream.backend_used == "python"
        assert not stream.finished
        assert stream.total_rows == 0


class TestStreamBudget:
    def test_max_stream_rows_truncates(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(max_stream_rows=1)
        )
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY,
                                         chunk_size=1)
        chunks = list(stream)
        # The first chunk was within budget and stands; the second was
        # never delivered and the stream failed the remainder closed.
        assert len(chunks) == 1
        assert stream.finished
        assert stream.error is not None
        assert "stream-rows" in stream.error

    def test_budget_counts_delivered_rows_not_evaluated_ones(self):
        # Ten orders, one view showing those with QTY >= 8, fully
        # masked rows dropped: the two delivered rows are within a
        # budget of three, although the first chunk alone evaluates
        # four rows, which the mask withholds.
        orders = make_schema("ORDERS", [("ID", STRING), ("QTY", INTEGER)],
                             key=["ID"])
        database = build_database([orders], {"ORDERS": [
            (f"o{i}", i) for i in range(10)
        ]})
        catalog = PermissionCatalog(database.schema)
        catalog.define_view(
            "view BIG (ORDERS.ID, ORDERS.QTY) where ORDERS.QTY >= 8")
        catalog.permit("BIG", "clerk")
        engine = AuthorizationEngine(database, catalog, DEFAULT_CONFIG.but(
            drop_fully_masked_rows=True, max_stream_rows=3))
        query = "retrieve (ORDERS.ID, ORDERS.QTY)"
        answer = engine.authorize("clerk", query)
        assert answer.delivered == (("o8", 8), ("o9", 9))
        stream = engine.authorize_stream("clerk", query, chunk_size=4)
        assert drain(stream) == answer.delivered
        assert stream.error is None
        assert stream.stats() == answer.stats()

    def test_budget_off_by_default(self, paper_engine):
        stream = paper_engine.authorize_stream("Brown", EXAMPLE_1_QUERY,
                                               chunk_size=1)
        assert len(list(stream)) == 2
        assert stream.error is None


class TestFailClosed:
    def test_establishment_fault_denies_whole_stream(self):
        engine = build_paper_engine()
        with faults.inject({"engine.evaluate": faults.Fault("raise")}):
            stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        assert stream.finished
        assert stream.error is not None
        assert drain(stream) == ()

    def test_establishment_fault_raises_in_dev_mode(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(fail_closed=False,
                               backend_retry_attempts=1)
        )
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            with pytest.raises(Exception):
                engine.authorize_stream("Brown", EXAMPLE_1_QUERY)

    def test_midstream_fault_withholds_remainder(self, paper_engine):
        stream = paper_engine.authorize_stream("Brown", EXAMPLE_1_QUERY,
                                               chunk_size=1)

        def broken():
            yield (("bq-45", "Acme"),)
            raise BackendError("mid-stream loss")

        # Re-point the stream at an evaluation that dies after one
        # chunk: the engine's generator must deliver the first chunk,
        # then end the stream failed-closed instead of propagating.
        stream._chunks = paper_engine._stream_chunks(
            stream, broken(), compile_mask(stream.mask)
        )
        chunks = list(stream)
        assert len(chunks) == 1
        assert stream.finished
        assert stream.error is not None
        assert "mid-stream loss" in stream.error

    def test_denied_stream_for_empty_mask_user(self, paper_engine):
        answer = paper_engine.authorize("stranger", EXAMPLE_1_QUERY)
        stream = paper_engine.authorize_stream("stranger",
                                               EXAMPLE_1_QUERY)
        assert drain(stream) == answer.delivered
        assert stream.stats().delivered_cells == 0


class TestFailover:
    def test_stream_establishment_fails_over(self):
        engine = build_paper_engine(
            DEFAULT_CONFIG.but(backend="sqlite",
                               backend_retry_attempts=1)
        )
        reference = build_paper_engine().authorize(
            "Brown", EXAMPLE_1_QUERY
        )
        with faults.inject({"backend.execute": faults.Fault("raise")}):
            stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
            rows = drain(stream)
        assert stream.failed_over
        assert stream.backend_used == "python"
        # SQL backends stream in backend row order; compare as sets.
        assert set(rows) == set(reference.delivered)

    def test_sqlite_backend_streams_via_materialize(self):
        engine = build_paper_engine(DEFAULT_CONFIG.but(backend="sqlite"))
        reference = build_paper_engine().authorize(
            "Brown", EXAMPLE_1_QUERY
        )
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        rows = drain(stream)
        assert stream.backend_used == "sqlite"
        assert not stream.failed_over
        assert set(rows) == set(reference.delivered)

    def test_outcome_carries_primed_chunks(self):
        engine = build_paper_engine()
        plan, _ = engine._plan(
            engine._parse_query(EXAMPLE_1_QUERY, "test")
        )
        outcome = engine.executor.execute_stream(plan, chunk_size=1)
        assert isinstance(outcome, StreamOutcome)
        assert outcome.backend_used == "python"
        assert sum(len(c) for c in outcome.chunks) == 2


class TestStreamAudit:
    def test_one_record_per_stream(self):
        audit = AuditLog()
        engine = build_paper_engine()
        engine.audit = audit
        answer_stats = engine.authorize("Brown", EXAMPLE_1_QUERY).stats()
        assert len(audit) == 1  # the authorize() above
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        assert len(audit) == 1  # nothing recorded until the stream ends
        drain(stream)
        assert len(audit) == 2
        record = audit.records()[-1]
        assert record.stats == answer_stats
        assert record.user == "Brown"
        assert record.backend_used == "python"

    def test_abandoned_stream_records_prefix(self):
        audit = AuditLog()
        engine = build_paper_engine()
        engine.audit = audit
        stream = engine.authorize_stream("Brown", EXAMPLE_1_QUERY,
                                         chunk_size=1)
        next(iter(stream))
        stream.close()
        assert stream.finished
        assert len(audit) == 1
        assert audit.records()[-1].stats.total_rows == 1

    def test_denied_stream_recorded_immediately(self):
        audit = AuditLog()
        engine = build_paper_engine()
        engine.audit = audit
        with faults.inject({"engine.evaluate": faults.Fault("raise")}):
            engine.authorize_stream("Brown", EXAMPLE_1_QUERY)
        assert len(audit) == 1
        assert audit.records()[-1].outcome == "denied"
        assert audit.records()[-1].error is not None


#: What both modes run under in TestOnePipeline: nothing, a fault at
#: establishment, or masks that never compile (both modes deny).
CONDITIONS = {
    "plain": nullcontext,
    "evaluate fault": lambda: faults.inject(
        {"engine.evaluate": faults.Fault("raise")}),
    "compile fails": masks_never_compile,
}


class TestOnePipeline:
    """``authorize`` and a drained ``authorize_stream`` share one
    establishment step, one mask-and-tally step and one audit-record
    builder, so they must leave the same trail."""

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    @pytest.mark.parametrize("user", ["Brown", "Klein", "stranger"])
    @pytest.mark.parametrize("query", EXAMPLES)
    def test_modes_leave_equal_records(self, condition, user, query):
        whole, streamed = build_paper_engine(), build_paper_engine()
        whole.audit, streamed.audit = AuditLog(), AuditLog()
        # Twice on each engine: a fresh derivation, then a cache hit.
        for _ in range(2):
            with CONDITIONS[condition]():
                answer = whole.authorize(user, query)
                stream = streamed.authorize_stream(user, query,
                                                   chunk_size=1)
                rows = drain(stream)
            assert rows == answer.delivered
            for field in ("cache_hit", "degradation_level", "backend_used",
                          "failover_reason", "error"):
                assert getattr(stream, field) == getattr(answer, field), \
                    field
            # The tally matches the oracle count of what was delivered,
            # on the kernel and on a denial alike.
            assert answer.stats() == DeliveryStats.of(
                answer.delivered, answer.answer.arity)
        records = [replace(r, sequence=0) for r in whole.audit.records()]
        assert [replace(r, sequence=0)
                for r in streamed.audit.records()] == records
        assert records[-1].admissible_views \
            == answer.derivation.admissible_views
