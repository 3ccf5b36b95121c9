"""SL007 — strict annotation coverage (the offline typing gate).

CI runs ``mypy --strict`` over ``src/repro``; this rule is the part of
that gate soundlint can enforce without mypy installed: every function
in the package annotates every parameter (including ``*args`` /
``**kwargs``) and its return type.  A signature mypy cannot see is a
signature mypy cannot check — untyped defs are exactly where widening
bugs (a mask where a relation was expected) slip through the strict
run via ``Any``.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.framework import (
    FunctionNode,
    SourceFile,
    Violation,
    rule,
)


def _missing_annotations(node: FunctionNode) -> List[str]:
    missing: List[str] = []
    args = node.args
    positional = args.posonlyargs + args.args
    for index, arg in enumerate(positional):
        if arg.annotation is not None:
            continue
        if index == 0 and arg.arg in ("self", "cls"):
            continue
        missing.append(arg.arg)
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    return missing


@rule(
    "SL007",
    "strict annotation coverage",
    "every function in src/repro annotates all parameters and its "
    "return type, so the mypy --strict CI gate sees every signature",
)
def check_typing(source: SourceFile) -> Iterator[Violation]:
    if not source.module.startswith("repro."):
        return
    for qualname, node in source.functions():
        missing = _missing_annotations(node)
        if missing:
            yield source.violation(
                "SL007", node,
                f"{qualname!r} leaves parameters unannotated: "
                f"{', '.join(missing)}",
            )
        if node.returns is None:
            yield source.violation(
                "SL007", node,
                f"{qualname!r} has no return annotation (use '-> None' "
                f"for procedures)",
            )
