"""SL005 — oracle parity for compiled/streaming fast paths.

Every optimization PR keeps the interpreted/materializing reference
path alive as an *oracle* and proves the fast path byte-identical to it
with a differential suite (docs/PERFORMANCE.md).  That discipline only
holds if it is checkable: this rule requires every fast path —
registered in :data:`repro.analysis.registry.FAST_PATHS`, discovered by
name shape otherwise — to (a) exist, (b) name an oracle that exists,
and (c) name a differential test file that exists and exercises both.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.framework import Context, SourceFile, Violation, rule
from repro.analysis.registry import (
    FAST_PATH_MARKERS,
    FAST_PATH_MODULES,
    FAST_PATHS,
    OracleEntry,
)


def _resolve(context: Context, dotted: str) -> Tuple[
        Optional[SourceFile], Optional[ast.AST]]:
    """Find the def/class a dotted qualname points at."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:split])
        source = context.by_module(module)
        if source is None:
            continue
        remainder = parts[split:]
        node: ast.AST = source.tree
        for name in remainder:
            body = getattr(node, "body", [])
            node_next = None
            for child in body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)) \
                        and child.name == name:
                    node_next = child
                    break
            if node_next is None:
                return source, None
            node = node_next
        return source, node
    return None, None


def check_registered(
    context: Context, rule_id: str, registry: Dict[str, OracleEntry],
    registry_name: str, kind: str, test_kind: str, dead_oracle: str,
) -> Iterator[Violation]:
    """The registry half shared by SL005, SL008 and SL009.

    Every entry of ``registry`` (named ``registry_name`` in
    :mod:`repro.analysis.registry`) must exist, name an oracle that
    exists, and name a test file that exists and mentions both.
    ``kind`` and ``test_kind`` word the messages ("fast path",
    "differential test"); ``dead_oracle`` says why a vanished oracle
    matters.
    """
    for name, entry in registry.items():
        source, node = _resolve(context, name)
        if source is None:
            # The entry's module is outside this run's paths (e.g. a
            # rule-fixture tree); nothing to check against.
            continue
        if node is None:
            yield Violation(
                rule_id, source.relative, 1,
                f"registered {kind} {name!r} no longer exists; "
                f"update repro.analysis.registry.{registry_name}",
            )
            continue
        line = getattr(node, "lineno", 1)
        oracle_source, oracle_node = _resolve(context, entry.oracle)
        if oracle_source is None or oracle_node is None:
            yield Violation(
                rule_id, source.relative, line,
                f"oracle {entry.oracle!r} for {kind} {name!r} does not "
                f"exist; {dead_oracle}",
            )
        test_path = context.root / entry.test
        if not test_path.is_file():
            yield Violation(
                rule_id, source.relative, line,
                f"{test_kind} {entry.test!r} for {kind} {name!r} is "
                f"missing",
            )
            continue
        text = test_path.read_text(encoding="utf-8")
        leaf = name.rsplit(".", 1)[-1]
        oracle_leaf = entry.oracle.rsplit(".", 1)[-1]
        if leaf not in text or oracle_leaf not in text:
            yield Violation(
                rule_id, source.relative, line,
                f"{test_kind} {entry.test!r} does not exercise both "
                f"{leaf!r} and its oracle {oracle_leaf!r}",
            )


def _is_fast_path(module: str, name: str) -> bool:
    if any(marker in name for marker in FAST_PATH_MARKERS):
        return True
    return module in FAST_PATH_MODULES and (
        name.startswith("compile_") or name.endswith("_streaming")
    )


@rule(
    "SL005",
    "oracle parity",
    "every compiled/streaming fast path has a registered reference "
    "oracle and a differential test exercising both",
    scope="project",
)
def check_oracles(context: Context) -> Iterator[Violation]:
    yield from check_registered(
        context, "SL005", FAST_PATHS, "FAST_PATHS", "fast path",
        "differential test",
        "a fast path without a live reference implementation cannot be "
        "differentially tested",
    )

    # Discovery: fast-path-shaped public functions must be registered.
    for source in context.sources:
        if not source.module.startswith("repro.") or \
                source.module.startswith("repro.analysis"):
            continue
        for node in source.tree.body:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not _is_fast_path(source.module, node.name):
                continue
            qualname = f"{source.module}.{node.name}"
            if qualname not in FAST_PATHS:
                yield source.violation(
                    "SL005", node,
                    f"{qualname!r} looks like a compiled/streaming fast "
                    f"path but has no registered oracle; add it to "
                    f"repro.analysis.registry.FAST_PATHS with a "
                    f"differential test",
                )
