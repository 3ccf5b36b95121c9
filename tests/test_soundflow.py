"""The whole-program flow passes: call graph, SL010 taint, SL011 locks.

Fixture trees mirror the registry's real qualnames
(``repro.backends.base:ExecutionBackend.execute`` and friends) so the
source/sanitizer/sink tables apply to them exactly as they do to the
live tree; the lockset fixtures monkeypatch the guarded-field registry
with fixture entries instead.  The seeded-defect tests at the bottom
pin the acceptance shape: each planted bug produces exactly the
expected finding.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis import registry
from repro.analysis.flow import build_graph, lock_edges, taint_for
from repro.analysis.flow.callgraph import CallGraph, ClassInfo, FunctionInfo
from repro.analysis.framework import (
    Context,
    Report,
    collect_files,
    load_source,
    run_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def lint(root: Path, *paths: str,
         select: Optional[Sequence[str]] = None) -> Report:
    return run_paths([root / p for p in paths], select=select, root=root)


def rules_hit(report: Report) -> List[str]:
    return [v.rule for v in report.violations]


def build_context(root: Path) -> Context:
    sources = []
    for path in collect_files([root / "src"]):
        source, _failure = load_source(path, root)
        if source is not None:
            sources.append(source)
    return Context(root=root, sources=sources)


# ----------------------------------------------------------------------
# shared fixture scaffolding
# ----------------------------------------------------------------------

#: The data-plane scaffolding every SL010 fixture shares: a backend
#: source, a mask sanitizer, and the answer envelope sink, under the
#: registry's real qualnames.
PLANE = {
    "src/repro/__init__.py": "",
    "src/repro/backends/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/backends/base.py": """
        class Relation:
            def __init__(self, rows: tuple) -> None:
                self.rows = rows


        class ExecutionBackend:
            def execute(self, plan: str) -> Relation:
                return Relation(())
    """,
    "src/repro/core/mask.py": """
        class Mask:
            def apply(self, relation: object) -> tuple:
                return ()
    """,
    "src/repro/core/answer.py": """
        class AuthorizedAnswer:
            def __init__(self, answer: object = None,
                         delivered: object = None) -> None:
                self.answer = answer
                self.delivered = delivered
    """,
}


def plane_tree(tmp_path: Path, engine: str) -> Path:
    files = dict(PLANE)
    files["src/repro/core/engine.py"] = engine
    return make_tree(tmp_path, files)


# ----------------------------------------------------------------------
# SL010 — mask-escape taint
# ----------------------------------------------------------------------


def test_sl010_flags_direct_escape(tmp_path: Path) -> None:
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def authorize(self, plan: str) -> AuthorizedAnswer:
                raw = self.backend.execute(plan)
                return AuthorizedAnswer(delivered=raw.rows)
    """)
    report = lint(root, "src", select=["SL010"])
    assert rules_hit(report) == ["SL010"]
    message = report.violations[0].message
    assert "AuthorizedAnswer(delivered=...)" in message
    assert "mask application" in message


def test_sl010_accepts_masked_delivery(tmp_path: Path) -> None:
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer
        from repro.core.mask import Mask


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()
                self.mask = Mask()

            def authorize(self, plan: str) -> AuthorizedAnswer:
                raw = self.backend.execute(plan)
                safe = self.mask.apply(raw)
                return AuthorizedAnswer(answer=raw, delivered=safe)
    """)
    assert lint(root, "src", select=["SL010"]).clean


def test_sl010_unchecked_envelope_param_is_allowed(
        tmp_path: Path) -> None:
    # ``answer=`` is the engine's internal pre-mask bookkeeping; only
    # ``delivered=`` is user-visible, so only it is checked.
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def authorize(self, plan: str) -> AuthorizedAnswer:
                raw = self.backend.execute(plan)
                return AuthorizedAnswer(answer=raw, delivered=())
    """)
    assert lint(root, "src", select=["SL010"]).clean


def test_sl010_crosses_function_boundaries(tmp_path: Path) -> None:
    # The escape spans three frames: the source result is returned by
    # one function, forwarded by a second, and sunk by a third.
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def fetch(self, plan: str) -> object:
                return self.backend.execute(plan)

            def wrap(self, rows: object) -> AuthorizedAnswer:
                return AuthorizedAnswer(delivered=rows)

            def authorize(self, plan: str) -> AuthorizedAnswer:
                return self.wrap(self.fetch(plan))
    """)
    report = lint(root, "src", select=["SL010"])
    assert rules_hit(report) == ["SL010"]
    assert "wrap" in report.violations[0].message


def test_sl010_yield_sink(tmp_path: Path) -> None:
    files = dict(PLANE)
    files["src/repro/core/stream.py"] = """
        from typing import Iterator, Tuple

        MaskedChunk = Tuple[tuple, ...]
    """
    files["src/repro/core/engine.py"] = """
        from typing import Iterator

        from repro.backends.base import ExecutionBackend
        from repro.core.mask import Mask
        from repro.core.stream import MaskedChunk


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()
                self.mask = Mask()

            def bad_chunks(self, plan: str) -> Iterator[MaskedChunk]:
                raw = self.backend.execute(plan)
                yield raw.rows

            def good_chunks(self, plan: str) -> Iterator[MaskedChunk]:
                raw = self.backend.execute(plan)
                yield self.mask.apply(raw)
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL010"])
    assert rules_hit(report) == ["SL010"]
    assert "bad_chunks" in report.violations[0].message
    assert "chunk yield" in report.violations[0].message


def test_sl010_set_result_delivery_sink(tmp_path: Path) -> None:
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.mask import Mask


        class Server:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()
                self.mask = Mask()

            def respond_bad(self, future: object, plan: str) -> None:
                future.set_result(self.backend.execute(plan))

            def respond_good(self, future: object, plan: str) -> None:
                raw = self.backend.execute(plan)
                future.set_result(self.mask.apply(raw))
    """)
    report = lint(root, "src", select=["SL010"])
    assert rules_hit(report) == ["SL010"]
    assert "respond_bad" in report.violations[0].message


def test_sl010_taint_survives_repackaging(tmp_path: Path) -> None:
    # tuple()/sorted() and friends repackage rows, they don't mask
    # them; wrapping in a project class doesn't launder either.
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend, Relation
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def authorize(self, plan: str) -> AuthorizedAnswer:
                raw = self.backend.execute(plan)
                rewrapped = Relation(tuple(sorted(raw.rows)))
                return AuthorizedAnswer(delivered=rewrapped)
    """)
    assert rules_hit(lint(root, "src", select=["SL010"])) == ["SL010"]


def test_sl010_suppression_with_justification(tmp_path: Path) -> None:
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def authorize(self, plan: str) -> AuthorizedAnswer:
                raw = self.backend.execute(plan)
                return AuthorizedAnswer(delivered=raw.rows)  # soundlint: disable=SL010 -- test oracle
    """)
    report = lint(root, "src", select=["SL010"])
    assert report.clean
    assert report.suppressed == 1


# ----------------------------------------------------------------------
# SL011 — lockset race detection
# ----------------------------------------------------------------------

COUNTER_OK = """
    import threading


    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._count = 0

        def bump(self) -> None:
            with self._lock:
                self._count += 1

        def read(self) -> int:
            with self._lock:
                return self._count
"""

COUNTER_RACY = """
    import threading


    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._count = 0

        def bump(self) -> None:
            with self._lock:
                self._count += 1

        def read(self) -> int:
            return self._count
"""


def _counter_registry(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(registry, "GUARDED_FIELDS", {
        "repro.serving.counter:Counter": registry.GuardedClass(
            lock="_lock", fields=frozenset({"_count"}),
        ),
    })
    monkeypatch.setattr(registry, "LOCK_ORDER", ())


def test_sl011_accepts_guarded_access(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _counter_registry(monkeypatch)
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/counter.py": COUNTER_OK,
    })
    assert lint(root, "src", select=["SL011"]).clean


def test_sl011_flags_unguarded_read(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _counter_registry(monkeypatch)
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/counter.py": COUNTER_RACY,
    })
    report = lint(root, "src", select=["SL011"])
    assert rules_hit(report) == ["SL011"]
    message = report.violations[0].message
    assert "_count" in message and "read outside" in message


def test_sl011_held_methods(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(registry, "GUARDED_FIELDS", {
        "repro.serving.counter:Counter": registry.GuardedClass(
            lock="_lock", fields=frozenset({"_count"}),
            held_methods=frozenset({"_bump_held"}),
        ),
    })
    monkeypatch.setattr(registry, "LOCK_ORDER", ())
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/counter.py": """
            import threading


            class Counter:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def _bump_held(self) -> None:
                    self._count += 1

                def _reset_locked(self) -> None:
                    self._count = 0

                def good(self) -> None:
                    with self._lock:
                        self._bump_held()
                        self._reset_locked()

                def bad(self) -> None:
                    self._bump_held()
        """,
    })
    report = lint(root, "src", select=["SL011"])
    assert rules_hit(report) == ["SL011"]
    message = report.violations[0].message
    assert "_bump_held" in message and "outside" in message


def test_sl011_undeclared_lock_discovery(tmp_path: Path) -> None:
    # No monkeypatching: the live registry has no entry for this
    # fixture class, so the discovery sweep must flag its lock.
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/rogue.py": """
            import threading


            class Rogue:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
        """,
    })
    report = lint(root, "src", select=["SL011"])
    assert rules_hit(report) == ["SL011"]
    assert "undeclared lock" in report.violations[0].message


def test_sl011_lock_outside_patrol_is_ignored(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/memo.py": """
            import threading


            class Memo:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
        """,
    })
    assert lint(root, "src", select=["SL011"]).clean


LOCK_PAIR = {
    "src/repro/__init__.py": "",
    "src/repro/serving/__init__.py": "",
    "src/repro/serving/inner.py": """
        import threading


        class Inner:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._value = 0

            def poke(self) -> None:
                with self._lock:
                    self._value += 1
    """,
    "src/repro/serving/outer.py": """
        import threading

        from repro.serving.inner import Inner


        class Outer:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._state = 0
                self._inner = Inner()

            def nested(self) -> None:
                with self._lock:
                    self._state += 1
                    self._inner.poke()
    """,
}

_PAIR_FIELDS = {
    "repro.serving.outer:Outer": None,  # filled in below
    "repro.serving.inner:Inner": None,
}


def _pair_registry(monkeypatch: pytest.MonkeyPatch,
                   order: Sequence[Sequence[str]]) -> None:
    monkeypatch.setattr(registry, "GUARDED_FIELDS", {
        "repro.serving.outer:Outer": registry.GuardedClass(
            lock="_lock", fields=frozenset({"_state"}),
        ),
        "repro.serving.inner:Inner": registry.GuardedClass(
            lock="_lock", fields=frozenset({"_value"}),
        ),
    })
    monkeypatch.setattr(
        registry, "LOCK_ORDER",
        tuple((outer, inner) for outer, inner in order),
    )


def test_sl011_undeclared_order_edge(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _pair_registry(monkeypatch, order=())
    root = make_tree(tmp_path, dict(LOCK_PAIR))
    report = lint(root, "src", select=["SL011"])
    assert rules_hit(report) == ["SL011"]
    message = report.violations[0].message
    assert "undeclared lock-order edge" in message
    assert "Outer._lock -> " in message


def test_sl011_declared_order_edge_passes(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _pair_registry(monkeypatch, order=[(
        "repro.serving.outer:Outer._lock",
        "repro.serving.inner:Inner._lock",
    )])
    root = make_tree(tmp_path, dict(LOCK_PAIR))
    assert lint(root, "src", select=["SL011"]).clean


def test_sl011_order_cycle_is_flagged(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    # Both directions declared: the combined graph has a cycle even
    # though each edge on its own is "declared".
    _pair_registry(monkeypatch, order=[
        ("repro.serving.outer:Outer._lock",
         "repro.serving.inner:Inner._lock"),
        ("repro.serving.inner:Inner._lock",
         "repro.serving.outer:Outer._lock"),
    ])
    root = make_tree(tmp_path, dict(LOCK_PAIR))
    report = lint(root, "src", select=["SL011"])
    assert rules_hit(report) == ["SL011"]
    assert "cycle" in report.violations[0].message


def test_sl011_init_is_exempt(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _counter_registry(monkeypatch)
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/counter.py": """
            import threading


            class Counter:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0
        """,
    })
    assert lint(root, "src", select=["SL011"]).clean


# ----------------------------------------------------------------------
# call-graph resolution units
# ----------------------------------------------------------------------


def test_callgraph_resolves_annotated_method_dispatch(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/mask.py": """
            class Mask:
                def apply(self, relation: object) -> tuple:
                    return ()
        """,
        "src/repro/core/use.py": """
            from repro.core.mask import Mask


            def run(mask: Mask, relation: object) -> tuple:
                return mask.apply(relation)
        """,
    })
    graph = build_graph(build_context(root))
    edges = set(graph.edges())
    assert ("repro.core.use:run",
            "repro.core.mask:Mask.apply") in edges


def test_callgraph_resolves_constructor_attr_types(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/parts.py": """
            class Part:
                def spin(self) -> None:
                    return None
        """,
        "src/repro/core/machine.py": """
            from repro.core.parts import Part


            class Machine:
                def __init__(self) -> None:
                    self.part = Part()

                def go(self) -> None:
                    self.part.spin()
        """,
    })
    graph = build_graph(build_context(root))
    assert ("repro.core.machine:Machine.go",
            "repro.core.parts:Part.spin") in set(graph.edges())


def test_callgraph_resolves_reexports(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py":
            "from repro.core.mask import Mask\n",
        "src/repro/core/mask.py": """
            class Mask:
                def apply(self, relation: object) -> tuple:
                    return ()
        """,
        "src/repro/core/use.py": """
            from repro.core import Mask


            def run(mask: Mask, relation: object) -> tuple:
                return mask.apply(relation)
        """,
    })
    graph = build_graph(build_context(root))
    resolved = graph.resolve_dotted("repro.core.Mask")
    assert isinstance(resolved, ClassInfo)
    assert resolved.qualname == "repro.core.mask:Mask"
    assert ("repro.core.use:run",
            "repro.core.mask:Mask.apply") in set(graph.edges())


def test_callgraph_inherited_method_lookup(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/backends/__init__.py": "",
        "src/repro/backends/common.py": """
            class _SQLBackend:
                def execute(self, plan: str) -> tuple:
                    return ()
        """,
        "src/repro/backends/sqlite.py": """
            from repro.backends.common import _SQLBackend


            class SQLiteBackend(_SQLBackend):
                pass
        """,
    })
    graph = build_graph(build_context(root))
    cls = graph.classes["repro.backends.sqlite:SQLiteBackend"]
    method = graph.lookup_method(cls, "execute")
    assert isinstance(method, FunctionInfo)
    assert method.qualname == "repro.backends.common:_SQLBackend.execute"


def test_callgraph_lambdas_are_unresolved_not_guessed(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/dynamic.py": """
            def run(callback: object) -> object:
                hop = lambda value: value
                first = hop(1)
                second = callback(2)
                return (first, second)
        """,
    })
    context = build_context(root)
    graph = build_graph(context)
    taint_for(context)  # populates the unresolved record
    reasons = {u.reason for u in graph.unresolved
               if u.path.endswith("dynamic.py")}
    assert reasons  # recorded, not silently guessed
    assert ("repro.core.dynamic:run",) not in set(graph.edges())


def test_callgraph_container_annotations_do_not_type_elements(
        tmp_path: Path) -> None:
    # ``List[Mask]`` types the list, not a Mask — resolving .append
    # against Mask would be wrong.
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/mask.py": """
            from typing import List, Optional


            class Mask:
                def apply(self, relation: object) -> tuple:
                    return ()


            def collect(masks: List[Mask],
                        chosen: Optional[Mask]) -> None:
                masks.append(chosen)
                if chosen is not None:
                    chosen.apply(())
        """,
    })
    graph = build_graph(build_context(root))
    fn = graph.functions["repro.core.mask:collect"]
    types = graph.local_types(fn)
    assert "masks" not in types          # container, not element
    assert types["chosen"].name == "Mask"  # Optional looks through
    assert ("repro.core.mask:collect",
            "repro.core.mask:Mask.apply") in set(graph.edges())


def test_flow_analysis_is_shared_across_rules(tmp_path: Path) -> None:
    # Single-parse sharing: both whole-program rules reuse one graph
    # and one taint fixpoint through the context cache.
    root = make_tree(tmp_path, dict(PLANE))
    context = build_context(root)
    graph = build_graph(context)
    assert build_graph(context) is graph
    analysis = taint_for(context)
    assert taint_for(context) is analysis
    assert analysis.graph is graph


# ----------------------------------------------------------------------
# seeded defects: each produces exactly the expected finding
# ----------------------------------------------------------------------


def test_seeded_unmasked_escape_is_caught(tmp_path: Path) -> None:
    # The seeded defect: a helper returns backend.execute output and
    # the caller delivers it without masking.
    root = plane_tree(tmp_path, """
        from repro.backends.base import ExecutionBackend
        from repro.core.answer import AuthorizedAnswer


        class Engine:
            def __init__(self) -> None:
                self.backend = ExecutionBackend()

            def raw_rows(self, plan: str) -> object:
                return self.backend.execute(plan).rows

            def authorize(self, plan: str) -> AuthorizedAnswer:
                return AuthorizedAnswer(delivered=self.raw_rows(plan))
    """)
    report = lint(root, "src", select=["SL010"])
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule == "SL010"
    assert violation.path == "src/repro/core/engine.py"
    assert "authorize" in violation.message


def test_seeded_naive_evaluation_escape_is_caught(tmp_path: Path) -> None:
    # The seeded defect: the engine delivers the reference evaluator's
    # answer unmasked.  evaluate_naive reads the raw instances exactly
    # as the backends do, so its output is raw data too.
    files = dict(PLANE)
    files["src/repro/algebra/__init__.py"] = ""
    files["src/repro/algebra/evaluate.py"] = """
        class Relation:
            def __init__(self, rows: tuple) -> None:
                self.rows = rows


        def evaluate_naive(query: str, database: object) -> Relation:
            return Relation(())
    """
    files["src/repro/core/engine.py"] = """
        from repro.algebra.evaluate import evaluate_naive
        from repro.core.answer import AuthorizedAnswer


        def answer_naively(plan: str, database: object
                           ) -> AuthorizedAnswer:
            return AuthorizedAnswer(
                delivered=evaluate_naive(plan, database).rows)
    """
    report = lint(make_tree(tmp_path, files), "src", select=["SL010"])
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule == "SL010"
    assert violation.path == "src/repro/core/engine.py"
    assert "answer_naively" in violation.message


def test_seeded_unguarded_write_is_caught(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _counter_registry(monkeypatch)
    root = make_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/serving/__init__.py": "",
        "src/repro/serving/counter.py": """
            import threading


            class Counter:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self) -> None:
                    self._count += 1
        """,
    })
    report = lint(root, "src", select=["SL011"])
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule == "SL011"
    assert "written outside" in violation.message


def test_seeded_lock_order_cycle_is_caught(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    _pair_registry(monkeypatch, order=[
        ("repro.serving.outer:Outer._lock",
         "repro.serving.inner:Inner._lock"),
        ("repro.serving.inner:Inner._lock",
         "repro.serving.outer:Outer._lock"),
    ])
    root = make_tree(tmp_path, dict(LOCK_PAIR))
    report = lint(root, "src", select=["SL011"])
    assert len(report.violations) == 1
    assert "cycle" in report.violations[0].message


# ----------------------------------------------------------------------
# the live tree through the flow passes
# ----------------------------------------------------------------------


def test_live_tree_flow_passes_are_clean() -> None:
    report = run_paths(
        [REPO_ROOT / "src"], select=["SL010", "SL011"], root=REPO_ROOT,
    )
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"flow violations in the live tree:\n{rendered}"


def _resolves(graph: CallGraph, name: str) -> bool:
    """Whether ``name`` (a module, ``module:qualname`` or a dotted
    qualified name) is defined in the tree ``graph`` indexes."""
    if name in graph.modules:
        return True
    if ":" not in name:
        parts = name.split(".")
        modules = [cut for cut in range(len(parts) - 1, 0, -1)
                   if ".".join(parts[:cut]) in graph.modules]
        if not modules:
            return False
        cut = modules[0]
        name = f"{'.'.join(parts[:cut])}:{'.'.join(parts[cut:])}"
    return name in graph.functions or name in graph.classes


def _assigns(info: ClassInfo, attribute: str) -> bool:
    """Whether a method of ``info`` assigns ``self.<attribute>``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == attribute
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        for node in ast.walk(info.node)
    )


def test_taint_registry_names_resolve() -> None:
    # A registry name that matches nothing in the tree is silently
    # inert: a source that no longer exists taints nothing, a boundary
    # or patrolled module that was deleted exempts or checks nothing.
    # So every name in every table must resolve in the live tree.
    graph = build_graph(build_context(REPO_ROOT))
    entries = {
        **registry.FAST_PATHS, **registry.EXECUTION_BACKENDS,
        **registry.FAILOVER_PATHS,
    }
    names = {
        *registry.FAIL_CLOSED_BOUNDARIES,
        *registry.DETERMINISTIC_MODULES,
        *registry.BUDGETED_MODULES,
        *(f"repro.metaalgebra.budget:Budget.{charge}"
          for charge in registry.BUDGET_CHARGES),
        *registry.FAST_PATH_MODULES,
        *entries, *(entry.oracle for entry in entries.values()),
        *registry.BACKEND_EXEMPT,
        *registry.BYPASS_IMPORTS,
        *registry.TAINT_SOURCES, *registry.TAINT_SANITIZERS,
        *registry.TAINT_SINKS,
        *registry.GUARDED_FIELDS,
        *(f"{owner}.{method}"
          for owner, guarded in registry.GUARDED_FIELDS.items()
          for method in guarded.held_methods),
        *(edge.rsplit(".", 1)[0]
          for pair in registry.LOCK_ORDER for edge in pair),
    }
    stale = sorted(name for name in names if not _resolves(graph, name))
    stale += sorted(
        entry.test for entry in entries.values()
        if not (REPO_ROOT / entry.test).is_file()
    )
    stale += sorted(
        f"{owner}.{attribute}"
        for owner, guarded in registry.GUARDED_FIELDS.items()
        for attribute in {guarded.lock, *guarded.fields}
        if not _assigns(graph.classes[owner], attribute)
    )
    stale += sorted(
        f"{prefix}*" for prefix in registry.IMMUTABLE_MODULE_PREFIXES
        if not any(module.startswith(prefix) for module in graph.modules)
    )
    stale += sorted(
        name for name in registry.IMMUTABLE_TYPES
        if name not in graph.classes_by_name
    )
    assert stale == []


def test_live_tree_taint_reaches_the_engine() -> None:
    # The fixpoint is not vacuous on the real tree: the evaluate path
    # is source-tainted and the built answer is clean.
    context = build_context(REPO_ROOT)
    analysis = taint_for(context)
    evaluate = analysis.summaries[
        "repro.core.engine:AuthorizationEngine._evaluate"]
    assert "source" in evaluate.returns
    answer = analysis.summaries[
        "repro.core.engine:AuthorizationEngine._answer"]
    assert "source" not in answer.returns


def test_live_tree_lock_order_matches_declaration() -> None:
    context = build_context(REPO_ROOT)
    declared, observed = lock_edges(context)
    assert set(observed) <= set(declared)
    assert (
        "repro.serving.server:AuthorizationServer._work",
        "repro.serving.admission:AdmissionController._lock",
    ) in declared
