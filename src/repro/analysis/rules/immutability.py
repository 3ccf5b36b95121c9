"""SL003 — meta-table immutability inside operators.

The soundness Theorem's argument is compositional: each operator's
output is a function of its *unchanged* inputs, so a mask can be
replayed, cached, and compared against the oracle path.  An operator
that mutates a ``MaskTable``/``Mask``/``MetaTuple`` parameter corrupts
whatever else holds a reference — a cached derivation, a trace, the
compiled-mask kernel — and turns the differential suites into liars.
This rule flags attribute/subscript assignment and mutating method
calls on parameters annotated with a protected meta type.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.analysis.framework import (
    FunctionNode,
    SourceFile,
    Violation,
    rule,
)
from repro.analysis.registry import (
    IMMUTABLE_MODULE_PREFIXES,
    IMMUTABLE_TYPES,
    MUTATOR_METHODS,
)

_TYPE_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _protected_params(node: FunctionNode) -> Set[str]:
    """Parameter names annotated with a protected meta type."""
    names: Set[str] = set()
    for arg in (node.args.posonlyargs + node.args.args
                + node.args.kwonlyargs):
        if arg.annotation is None:
            continue
        words = set(_TYPE_WORD.findall(ast.unparse(arg.annotation)))
        if words & IMMUTABLE_TYPES:
            names.add(arg.arg)
    return names


def _root_name(node: ast.expr) -> str:
    """The base ``Name`` of an attribute/subscript chain, or ''."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _mutations(node: FunctionNode,
               protected: Set[str]) -> Iterator[ast.AST]:
    for child in ast.walk(node):
        targets: list = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        elif isinstance(child, ast.Delete):
            targets = list(child.targets)
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) \
                    and _root_name(target) in protected:
                yield child
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATOR_METHODS
                and _root_name(child.func.value) in protected):
            yield child


@rule(
    "SL003",
    "meta-table immutability",
    "operators never mutate MaskTable/Mask/MetaTuple parameters; "
    "derivation outputs must be pure functions of unchanged inputs",
)
def check_immutability(source: SourceFile) -> Iterator[Violation]:
    if not source.module.startswith(IMMUTABLE_MODULE_PREFIXES):
        return
    for qualname, node in source.functions():
        protected = _protected_params(node)
        if not protected:
            continue
        for mutation in _mutations(node, protected):
            yield source.violation(
                "SL003", mutation,
                f"{qualname!r} mutates a parameter of a protected meta "
                f"type (immutable inputs: "
                f"{', '.join(sorted(protected))}); build and return a "
                f"new value instead",
            )
