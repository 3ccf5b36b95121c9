"""The invariant registry soundlint checks the tree against.

Everything deliberately *allowed* to look dangerous is registered here,
by name, in one reviewable place: the fail-closed exception boundaries,
the compiled/streaming fast paths with their reference oracles, and the
module sets each rule patrols.  Widening an entry is a reviewable act;
code that merely drifts does not get to widen it implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

# ----------------------------------------------------------------------
# SL001 — fail-closed exception discipline
# ----------------------------------------------------------------------

#: ``module:qualname`` of the only functions allowed to catch broad
#: ``Exception``: the engine's authorize pipeline (behind
#: ``authorize``, ``authorize_batch`` and ``authorize_degraded``), its
#: streaming pair, and the degradation ladder's rung loop.  Everything
#: else must narrow to :class:`~repro.errors.ReproError` subtypes or
#: re-raise.
FAIL_CLOSED_BOUNDARIES: FrozenSet[str] = frozenset({
    "repro.core.engine:AuthorizationEngine._authorize_many",
    # The streaming pair: establishment failures fail the whole stream
    # closed, delivery failures fail the *remainder* closed.
    "repro.core.engine:AuthorizationEngine.authorize_stream",
    "repro.core.engine:AuthorizationEngine._stream_chunks",
    "repro.metaalgebra.ladder:derive_mask_resilient",
})

# ----------------------------------------------------------------------
# SL002 — budget coverage
# ----------------------------------------------------------------------

#: Modules whose public operators must charge the derivation
#: :class:`~repro.metaalgebra.budget.Budget` before returning
#: materialized rows.
BUDGETED_MODULES: FrozenSet[str] = frozenset({
    "repro.metaalgebra.product",
    "repro.metaalgebra.selection",
    "repro.metaalgebra.projection",
    "repro.metaalgebra.selfjoin",
    "repro.metaalgebra.prune",
})

#: Budget methods that count as charging (row/pool caps).
BUDGET_CHARGES: FrozenSet[str] = frozenset({
    "charge_rows", "charge_selfjoin",
})

# ----------------------------------------------------------------------
# SL003 — meta-table immutability
# ----------------------------------------------------------------------

#: Parameter types operators must treat as immutable.
IMMUTABLE_TYPES: FrozenSet[str] = frozenset({
    "MaskTable", "MaskRow", "Mask", "MetaTuple", "MetaCell",
})

#: Module prefixes the immutability rule patrols.
IMMUTABLE_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.metaalgebra.",
    "repro.core.mask",
    "repro.core.compiled_mask",
)

#: Method names that mutate their receiver.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
})

# ----------------------------------------------------------------------
# SL004 — determinism of cache/canonical keys
# ----------------------------------------------------------------------

#: Modules whose outputs become cache keys and must be deterministic
#: across processes and runs.
DETERMINISTIC_MODULES: FrozenSet[str] = frozenset({
    "repro.metaalgebra.canonical",
    "repro.core.cache",
    # Definition serials are part of every cache key: a counter, never
    # an id() or a clock.
    "repro.meta.catalog",
    # Resilience policy must be replayable: the breaker's clock is
    # injected.
    "repro.resilience.breaker",
})

#: Modules whose mere import is a nondeterminism smell in key code.
NONDETERMINISTIC_IMPORTS: FrozenSet[str] = frozenset({
    "random", "uuid", "secrets", "time", "datetime",
})

# ----------------------------------------------------------------------
# SL005 — oracle parity for fast paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    """A registered path's oracle and the test that pins the two.

    The one entry shape of :data:`FAST_PATHS` (SL005),
    :data:`EXECUTION_BACKENDS` (SL008) and :data:`FAILOVER_PATHS`
    (SL009).
    """

    oracle: str  # dotted qualname of the reference implementation
    test: str    # repo-relative path of the differential test module


#: Every compiled/streaming fast path must appear here, paired with the
#: interpreted/materializing oracle it must stay byte-identical to and
#: the differential suite that enforces the identity.
FAST_PATHS: Dict[str, OracleEntry] = {
    "repro.core.compiled_mask.compile_mask": OracleEntry(
        oracle="repro.core.mask.Mask.apply",
        test="tests/property/test_compiled_mask.py",
    ),
    # The columnar kernel is the only production masker; it answers
    # to the interpreted Mask.apply.
    "repro.core.compiled_mask.apply_mask_columnar": OracleEntry(
        oracle="repro.core.mask.Mask.apply",
        test="tests/property/test_columnar_relation.py",
    ),
    "repro.algebra.optimize.iter_evaluate_optimized": OracleEntry(
        oracle="repro.algebra.evaluate.evaluate_naive",
        test="tests/property/test_chunked_apply.py",
    ),
    "repro.metaalgebra.product.meta_product_streaming": OracleEntry(
        oracle="repro.metaalgebra.product.meta_product",
        test="tests/property/test_meta_product_streaming.py",
    ),
}

#: Name shapes that mark a module-level function as a fast path in
#: need of registration (checked against public names only).  The
#: calculus *compilers* (``compile_query`` — AST to plan) are not fast
#: paths, so plain ``compile_`` is not a marker; a fast path announces
#: itself either by name or by living in a marked module (below).
FAST_PATH_MARKERS: Tuple[str, ...] = (
    "compiled", "streaming", "columnar", "chunked",
)

#: Modules that *contain* fast paths: every public ``compile_*`` /
#: ``*_streaming`` function defined here must be registered.
FAST_PATH_MODULES: FrozenSet[str] = frozenset({
    "repro.core.compiled_mask",
    "repro.metaalgebra.product",
})

# ----------------------------------------------------------------------
# SL008 — execution-backend parity
# ----------------------------------------------------------------------


#: Every non-oracle execution backend must appear here, paired with
#: the oracle backend it must stay sorted-row identical to and the
#: differential suite that enforces the identity (the backend analogue
#: of :data:`FAST_PATHS`).
EXECUTION_BACKENDS: Dict[str, OracleEntry] = {
    "repro.backends.sqlite.SQLiteBackend": OracleEntry(
        oracle="repro.backends.python.PythonBackend",
        test="tests/property/test_backend_parity.py",
    ),
    "repro.backends.duckdb.DuckDBBackend": OracleEntry(
        oracle="repro.backends.python.PythonBackend",
        test="tests/property/test_backend_parity.py",
    ),
}

#: Backend-shaped classes that need no parity entry: the protocol
#: itself and the oracle (a backend cannot oracle itself).
BACKEND_EXEMPT: FrozenSet[str] = frozenset({
    "repro.backends.base.ExecutionBackend",
    "repro.backends.python.PythonBackend",
})

#: Module prefix the backend-discovery sweep patrols.
BACKEND_MODULE_PREFIX = "repro.backends."

# ----------------------------------------------------------------------
# SL009 — failover paths pinned to the registered oracle
# ----------------------------------------------------------------------


#: Every retry/breaker/failover wrapper that can re-route evaluation
#: away from the configured backend must appear here, paired with the
#: oracle backend it re-routes *to* and the differential suite proving
#: the re-routed answers match.  Failing over to anything but the
#: registered oracle would turn an availability mechanism into a
#: soundness hole; this registry (checked by rule SL009) forbids it.
FAILOVER_PATHS: Dict[str, OracleEntry] = {
    "repro.resilience.failover.ResilientExecutor": OracleEntry(
        oracle="repro.backends.python.PythonBackend",
        test="tests/test_failover.py",
    ),
}

#: Module prefix the failover-discovery sweep patrols: any class here
#: holding both a primary backend and a fallback target is presumed a
#: failover path and must be registered.
FAILOVER_MODULE_PREFIX = "repro.resilience."

#: Attribute names whose *assignment targets* mark a class in the
#: patrolled modules as failover-shaped (it routes between engines).
FAILOVER_MARKERS: FrozenSet[str] = frozenset({
    "oracle", "fallback",
})

# ----------------------------------------------------------------------
# SL006 — no authorize bypass in examples/workloads
# ----------------------------------------------------------------------

#: Module prefixes that must route every data read through
#: ``engine.authorize`` (demo and workload code is what readers copy;
#: test and benchmark code is where a bypass would quietly become
#: load-bearing).  Oracle/differential harnesses, where the bypass IS
#: the point, carry justified ``disable-file=SL006`` suppressions.
AUTHORIZE_ONLY_PREFIXES: Tuple[str, ...] = (
    "examples.",
    "repro.workloads.",
    "tests.",
    "benchmarks.",
)

#: Direct evaluation entry points that bypass the mask.
BYPASS_CALLS: FrozenSet[str] = frozenset({
    "evaluate", "evaluate_optimized",
})

#: Imports that put a bypass in reach.
BYPASS_IMPORTS: FrozenSet[str] = frozenset({
    "repro.algebra.evaluate", "repro.algebra.optimize",
})

# ----------------------------------------------------------------------
# SL010 — interprocedural mask-escape taint
# ----------------------------------------------------------------------

#: ``module:qualname`` of every function whose *return value* is raw,
#: unmasked data: backend reads and direct evaluation of a plan.  The
#: taint pass marks their results as sources regardless of what their
#: bodies look like.
TAINT_SOURCES: FrozenSet[str] = frozenset({
    # The backend protocol and every implementation of it.
    "repro.backends.base:ExecutionBackend.execute",
    "repro.backends.common:_SQLBackend.execute",
    "repro.backends.python:PythonBackend.execute",
    "repro.backends.python:PythonBackend.execute_stream",
    # The failover wrapper re-exposes the backend's raw results.
    "repro.resilience.failover:ResilientExecutor.execute",
    "repro.resilience.failover:ResilientExecutor.execute_stream",
    # Direct evaluation of a plan, optimized or not, chunked or not.
    "repro.algebra.evaluate:evaluate_naive",
    "repro.algebra.evaluate:trace_naive",
    "repro.algebra.optimize:evaluate_optimized",
    "repro.algebra.optimize:iter_evaluate_optimized",
    # Raw relation access on the catalog.
    "repro.algebra.database:Database.instance",
})

#: ``module:qualname`` of every function whose return value is
#: *masked* data: the registered mask applications (the SL005 fast
#: paths and their oracle).  A tainted value passed through one of
#: these comes out clean.
TAINT_SANITIZERS: FrozenSet[str] = frozenset({
    "repro.core.mask:Mask.apply",
    "repro.core.compiled_mask:CompiledMask.apply_rows",
    "repro.core.compiled_mask:apply_mask_columnar",
    # The ladder derives masks (meta-data, never user rows); its
    # output feeds the sanitizers above rather than carrying data.
    "repro.metaalgebra.ladder:derive_mask_resilient",
})


@dataclass(frozen=True)
class TaintSink:
    """A user-facing sink the taint pass checks arguments at.

    ``params`` restricts the check to the named constructor/call
    parameters; ``None`` means every argument is checked.  Sink
    constructors are *envelopes*: their result is clean, because the
    envelope's checked payload was verified on the way in and its
    unchecked fields are internal bookkeeping.
    """

    params: Optional[FrozenSet[str]] = None
    reason: str = ""


#: ``module:qualname`` of every user-facing sink constructor.  A value
#: still tainted when it reaches a checked parameter is a mask escape.
TAINT_SINKS: Dict[str, TaintSink] = {
    # Only ``delivered`` is user-visible; ``answer`` is the raw
    # pre-mask relation the engine keeps for stats/auditing and is
    # *expected* to be tainted.
    "repro.core.answer:AuthorizedAnswer": TaintSink(
        params=frozenset({"delivered"}),
        reason="delivered rows are the user-visible payload",
    ),
    # Audit records are shape-only by design (PAPER: the audit trail
    # must not widen the disclosure channel) — no argument may carry
    # raw rows.
    "repro.core.audit:AuditRecord": TaintSink(
        params=None,
        reason="audit records must stay shape-only",
    ),
    # The stream envelope takes no row payload at construction; its
    # rows flow through the chunk-yield sink below.
    "repro.core.stream:AnswerStream": TaintSink(
        params=frozenset(),
        reason="rows are delivered via the chunk-yield sink",
    ),
}

#: Method names that deliver a value to a waiting client.  Any call
#: ``x.<name>(value)`` is a sink on every argument (serving responses:
#: ``Future.set_result``).
TAINT_SINK_METHODS: FrozenSet[str] = frozenset({
    "set_result",
})

#: Return-annotation markers for *yield sinks*: a generator whose
#: return annotation mentions one of these types delivers each yielded
#: value to the user, so every ``yield`` is a checked sink.
TAINT_YIELD_TYPES: FrozenSet[str] = frozenset({
    "MaskedChunk",
})

#: Calls that merely repackage their arguments: the result's taint is
#: the union of the argument taints.  Everything else unresolved drops
#: taint (documented unsoundness — the closed world ends at the
#: stdlib).
TAINT_PRESERVING_CALLS: FrozenSet[str] = frozenset({
    "tuple", "list", "set", "frozenset", "dict", "iter", "next",
    "sorted", "reversed", "zip", "enumerate", "chain",
})

# ----------------------------------------------------------------------
# SL011 — lockset race detection in serving/resilience
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GuardedClass:
    """A class whose listed fields are guarded by one of its locks.

    ``lock`` names the attribute holding the :mod:`threading` lock (or
    condition); ``fields`` are the attributes that must only be read or
    written inside ``with self.<lock>:`` (or from a held method).
    ``held_methods`` are methods documented as *caller holds the lock*
    — their bodies are checked as if the lock were held, and calls to
    them from outside a held scope are violations.  Methods whose name
    ends in ``_locked`` are implicitly held methods.
    """

    lock: str
    fields: FrozenSet[str]
    held_methods: FrozenSet[str] = field(default_factory=frozenset)


#: ``module:Class`` ⇒ guarded-field declaration for every lock-owning
#: class in the patrolled modules.  A lock created in ``__init__`` of a
#: patrolled class that has no entry here is itself a violation
#: (undeclared lock), so this table cannot rot silently.
GUARDED_FIELDS: Dict[str, GuardedClass] = {
    # Promoted from the prose lock-ordering note in server.py: _work
    # guards all queueing/scheduling state; _schedule documents
    # "caller holds _work".
    "repro.serving.server:AuthorizationServer": GuardedClass(
        lock="_work",
        fields=frozenset({
            "_queues", "_ready", "_scheduled", "_busy", "_stamps",
            "_closing", "_served", "_batches", "_batched_requests",
            "_largest_batch",
        }),
        held_methods=frozenset({"_schedule"}),
    ),
    "repro.serving.admission:AdmissionController": GuardedClass(
        lock="_lock",
        fields=frozenset({
            "_backlog", "_max_backlog", "_admitted", "_completed",
            "_hard_sheds", "_soft_sheds", "_deadline_sheds",
            "_tenant_floors",
        }),
    ),
    "repro.serving.tenants:TenantRegistry": GuardedClass(
        lock="_lock",
        fields=frozenset({"_tenants"}),
    ),
    "repro.resilience.breaker:CircuitBreaker": GuardedClass(
        lock="_lock",
        fields=frozenset({
            "_state", "_failures", "_opened_at", "_probing",
            "_opened", "_reclosed",
        }),
    ),
}

#: Declared lock-acquisition order, as ``(outer, inner)`` edges over
#: ``module:Class.lockattr`` nodes.  The server's condition may be
#: held while taking the admission controller's lock, never the
#: reverse; engine and cache locks are leaves.  The observed-edge
#: graph must be a subset of this declaration and the union must stay
#: acyclic.
LOCK_ORDER: Tuple[Tuple[str, str], ...] = (
    (
        "repro.serving.server:AuthorizationServer._work",
        "repro.serving.admission:AdmissionController._lock",
    ),
)

#: Module prefixes the lockset rule patrols for lock discovery and
#: guarded-field enforcement.
LOCK_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.serving.",
    "repro.resilience.",
)

#: Constructor names (from :mod:`threading`) that create a lock.
LOCK_FACTORIES: FrozenSet[str] = frozenset({
    "Lock", "RLock", "Condition",
})
