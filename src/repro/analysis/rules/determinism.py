"""SL004 — determinism of cache and canonical-key construction.

The derivation cache's transparency guarantee (docs/CACHING.md) keys
entries by ``(canonical plan key, definition serials)`` and assumes
the key is a pure, stable function of the plan and of the catalog's
definition history.  Anything process-dependent in key
construction — ``id()``, wall-clock reads, ``random``/``uuid``, or
iteration order of an unordered ``set`` — silently fractures the key
space: equivalent plans stop sharing entries at best, and at worst a
stale mask is served under a key that no longer means what it meant.
This rule bans those constructs outright in the key-producing modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import SourceFile, Violation, rule
from repro.analysis.registry import (
    DETERMINISTIC_MODULES,
    NONDETERMINISTIC_IMPORTS,
)


def _dotted(node: ast.expr) -> str:
    """Render an attribute chain like ``datetime.now`` (best effort)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_raw_set(node: ast.expr) -> bool:
    """Is the expression an unordered set constructed in place?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@rule(
    "SL004",
    "deterministic key construction",
    "no id(), clock reads, random/uuid, or unordered set iteration in "
    "canonical-key/cache modules",
)
def check_determinism(source: SourceFile) -> Iterator[Violation]:
    if source.module not in DETERMINISTIC_MODULES:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in NONDETERMINISTIC_IMPORTS:
                    yield source.violation(
                        "SL004", node,
                        f"import of {alias.name!r} in a key-producing "
                        f"module; keys must be process-independent",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in NONDETERMINISTIC_IMPORTS:
                yield source.violation(
                    "SL004", node,
                    f"import from {node.module!r} in a key-producing "
                    f"module; keys must be process-independent",
                )
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                yield source.violation(
                    "SL004", node,
                    "id() is process-dependent and must never reach a "
                    "cache or canonical key",
                )
            elif isinstance(node.func, ast.Attribute):
                dotted = _dotted(node.func)
                root = dotted.split(".")[0]
                if root in NONDETERMINISTIC_IMPORTS or \
                        dotted == "os.urandom":
                    yield source.violation(
                        "SL004", node,
                        f"call to {dotted!r} is nondeterministic; keys "
                        f"must be stable across runs",
                    )
        elif isinstance(node, ast.For) and _is_raw_set(node.iter):
            yield source.violation(
                "SL004", node,
                "iteration over an unordered set in a key-producing "
                "module; wrap in sorted(...) to fix the order",
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for generator in node.generators:
                if _is_raw_set(generator.iter):
                    yield source.violation(
                        "SL004", node,
                        "comprehension over an unordered set in a "
                        "key-producing module; wrap in sorted(...)",
                    )
