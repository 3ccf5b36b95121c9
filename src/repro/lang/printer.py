"""Pretty-printer producing the paper's multi-line statement layout.

The ASTs' ``__str__`` give compact one-line renderings; this module
formats statements the way the paper typesets them::

    view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE,
              PROJECT.NUMBER, PROJECT.BUDGET)
    where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
    and PROJECT.NUMBER = ASSIGNMENT.P_NO
    and PROJECT.BUDGET >= 250,000
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Union

from repro.calculus.ast import (
    Condition,
    Query,
    ViewDefinition,
    _multi_occurrence_relations,
    _render_condition,
)
from repro.lang.parser import PermitCommand, RevokeCommand

Statement = Union[ViewDefinition, Query, PermitCommand, RevokeCommand]


def format_statement(statement: Statement, width: int = 72) -> str:
    """Render ``statement`` in the paper's layout."""
    if isinstance(statement, ViewDefinition):
        head = f"view {statement.name} "
        return _format_headed(head, statement, width)
    if isinstance(statement, Query):
        return _format_headed("retrieve ", statement, width)
    return str(statement)


def _format_headed(head: str, expression: Union[ViewDefinition, Query],
                   width: int) -> str:
    multi = _multi_occurrence_relations(expression)
    targets = [t.render(t.relation in multi) for t in expression.target]
    lines = _wrap_parenthesized(head, targets, width)
    lines.extend(_format_conditions(expression.conditions, multi))
    return "\n".join(lines)


def _wrap_parenthesized(head: str, items: List[str], width: int) -> List[str]:
    lines: List[str] = []
    indent = " " * (len(head) + 1)
    current = head + "("
    for i, item in enumerate(items):
        suffix = ")" if i == len(items) - 1 else ","
        candidate = current + item + suffix
        if len(candidate) > width and current.strip() not in (head.strip() + "(", "("):
            lines.append(current.rstrip())
            current = indent + item + suffix
        else:
            current = candidate
        if suffix == ",":
            current += " "
    lines.append(current)
    return lines


def _format_conditions(conditions: Sequence[Condition],
                       multi: FrozenSet[str]) -> List[str]:
    lines: List[str] = []
    for i, condition in enumerate(conditions):
        keyword = "where" if i == 0 else "and"
        lines.append(f"{keyword} {_render_condition(condition, multi)}")
    return lines
