"""SL008 — differential parity for execution backends.

The backend contract (``docs/BACKENDS.md``) is the fast-path oracle
discipline of SL005 lifted to whole execution engines: the Python
backend is the reference, and every other backend must return the same
answers, and deliver the same masked rows through the engine, under a
differential suite.  This rule makes the discipline checkable: every
execution backend — registered in
:data:`repro.analysis.registry.EXECUTION_BACKENDS`, discovered by name
shape otherwise — must (a) exist, (b) name an oracle backend that
exists, and (c) name a parity test file that exists and exercises
both.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Context, Violation, rule
from repro.analysis.registry import (
    BACKEND_EXEMPT,
    BACKEND_MODULE_PREFIX,
    EXECUTION_BACKENDS,
)
from repro.analysis.rules.oracles import check_registered


@rule(
    "SL008",
    "backend parity",
    "every execution backend has a registered oracle backend and a "
    "differential parity test exercising both",
    scope="project",
)
def check_backends(context: Context) -> Iterator[Violation]:
    yield from check_registered(
        context, "SL008", EXECUTION_BACKENDS, "EXECUTION_BACKENDS",
        "backend", "parity test",
        "a backend without a live oracle cannot be differentially tested",
    )

    # Discovery: backend-shaped public classes must be registered.
    for source in context.sources:
        if not source.module.startswith(BACKEND_MODULE_PREFIX):
            continue
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_"):
                continue
            if not node.name.endswith("Backend"):
                continue
            qualname = f"{source.module}.{node.name}"
            if qualname in BACKEND_EXEMPT:
                continue
            if qualname not in EXECUTION_BACKENDS:
                yield source.violation(
                    "SL008", node,
                    f"{qualname!r} looks like an execution backend but "
                    f"has no registered oracle; add it to "
                    f"repro.analysis.registry.EXECUTION_BACKENDS with "
                    f"a differential parity test",
                )
