"""SL009 — failover paths pinned to the registered oracle.

Failover is only sound because the target it fails over *to* is the
differential oracle every backend is already measured against: the
mask derivation is backend-independent, so re-evaluating on the oracle
preserves the authorization decision exactly.  A failover path aimed
at anything else — another backend, a cache, a stub — would silently
convert an availability mechanism into a soundness hole.

This rule pins the wiring the same way SL005 pins compiled fast paths
and SL008 pins backends: every retry/breaker/failover wrapper —
registered in :data:`repro.analysis.registry.FAILOVER_PATHS`,
discovered by shape otherwise — must (a) exist, (b) name an oracle
that exists, and (c) name a parity test file that exists and exercises
both the wrapper and the oracle.  The discovery sweep walks the
``repro.resilience.`` modules for classes that assign a
``self.oracle``/``self.fallback`` attribute (the shape of routing
between engines) and flags any that are not registered.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Context, Violation, rule
from repro.analysis.registry import (
    FAILOVER_MARKERS,
    FAILOVER_MODULE_PREFIX,
    FAILOVER_PATHS,
)
from repro.analysis.rules.oracles import check_registered


def _assigns_marker(cls: ast.ClassDef) -> bool:
    """Does any method of ``cls`` assign ``self.<marker>``?"""
    for node in ast.walk(cls):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in FAILOVER_MARKERS
            ):
                return True
    return False


@rule(
    "SL009",
    "failover oracle pinning",
    "every breaker/failover path re-routes to a registered oracle and "
    "is covered by a differential parity test",
    scope="project",
)
def check_failover(context: Context) -> Iterator[Violation]:
    yield from check_registered(
        context, "SL009", FAILOVER_PATHS, "FAILOVER_PATHS",
        "failover path", "parity test",
        "failing over to a dead target is a soundness hole",
    )

    # Discovery: failover-shaped classes must be registered.
    for source in context.sources:
        if not source.module.startswith(FAILOVER_MODULE_PREFIX):
            continue
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_"):
                continue
            if not _assigns_marker(node):
                continue
            qualname = f"{source.module}.{node.name}"
            if qualname not in FAILOVER_PATHS:
                yield source.violation(
                    "SL009", node,
                    f"{qualname!r} routes between execution targets "
                    f"(assigns one of {sorted(FAILOVER_MARKERS)}) but "
                    f"has no registered oracle; add it to "
                    f"repro.analysis.registry.FAILOVER_PATHS with a "
                    f"differential parity test",
                )
