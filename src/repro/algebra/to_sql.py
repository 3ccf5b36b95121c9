"""Compiling PSJ plans into SQL.

The paper fixes *what* to evaluate (a product–selection–projection
plan and the mask A' derived alongside it) but not *where*.  The
pluggable execution backends (:mod:`repro.backends`) evaluate the plan
in an embedded SQL engine; this module is their shared compiler.  The
mask never reaches SQL: the engine applies it to the answer the
backend returns, with the same kernel it uses for every backend.

:func:`plan_to_sql` turns a :class:`~repro.algebra.expression.PSJQuery`
into one ``SELECT`` over the cross join of its occurrences, with every
atomic condition as a ``WHERE`` conjunct.  ``DISTINCT`` gives
:class:`~repro.algebra.relation.Relation`'s set semantics when the
projection drops a column; the in-process evaluator dedupes under the
same rule.  A projection that keeps every product column
(``PSJQuery.keeps_every_column``) needs none: each stored table is a
deduplicated ``Relation``, so their filtered product is a set already.

The emitted SQL sticks to a portable SQL-92 subset — quoted
identifiers, inline escaped literals, ``<>`` — shared by the sqlite3
and DuckDB drivers.  Tables are named after relations; the columns of
a relation of arity n are ``c0 .. c{n-1}``, and the plan's output
columns are aliased ``a0 .. a{k-1}``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Operand,
    PSJQuery,
)
from repro.algebra.schema import DatabaseSchema
from repro.algebra.types import Value
from repro.errors import BackendError
from repro.predicates.comparators import Comparator

#: Comparator → SQL spelling (NE is ``<>`` for dialect portability).
_COMPARATOR_SQL = {
    Comparator.LT: "<",
    Comparator.LE: "<=",
    Comparator.GT: ">",
    Comparator.GE: ">=",
    Comparator.EQ: "=",
    Comparator.NE: "<>",
}


def quote_identifier(name: str) -> str:
    """Double-quote ``name`` as a SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def table_name(relation: str) -> str:
    """The SQL table holding relation ``relation``."""
    return quote_identifier(relation)


def column_name(index: int) -> str:
    """The SQL column holding attribute position ``index``."""
    return f"c{index}"


def output_name(index: int) -> str:
    """The alias of the plan's ``index``-th output column."""
    return f"a{index}"


def sql_literal(value: Value) -> str:
    """Render a database value as an inline SQL literal."""
    if isinstance(value, bool):  # bool subclasses int; domains forbid it
        raise BackendError(f"boolean value {value!r} has no SQL literal")
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise BackendError(f"value {value!r} has no SQL literal")


def comparator_sql(op: Comparator) -> str:
    """The SQL spelling of comparator ``op``."""
    return _COMPARATOR_SQL[op]


# ----------------------------------------------------------------------
# plan compilation
# ----------------------------------------------------------------------


def _product_refs(plan: PSJQuery, schema: DatabaseSchema) -> Tuple[str, ...]:
    """SQL expression for each positional column of the plan's product."""
    refs: List[str] = []
    for index, occ in enumerate(plan.occurrences):
        arity = schema.get(occ.relation).arity
        refs.extend(
            f"t{index}.{column_name(local)}" for local in range(arity)
        )
    return tuple(refs)


def _operand_sql(operand: Operand, refs: Tuple[str, ...]) -> str:
    if isinstance(operand, Col):
        return refs[operand.index]
    return sql_literal(operand.value)


def _condition_sql(condition: AtomicCondition,
                   refs: Tuple[str, ...]) -> str:
    """Render one plan conjunct over the column expressions ``refs``."""
    return (f"{_operand_sql(condition.lhs, refs)} "
            f"{comparator_sql(condition.op)} "
            f"{_operand_sql(condition.rhs, refs)}")


def plan_to_sql(plan: PSJQuery, schema: DatabaseSchema) -> str:
    """Compile ``plan`` into a single ``SELECT`` statement.

    The statement is ``SELECT DISTINCT`` unless the projection keeps
    every product column, whose answer is a set without it.  Self-joins
    work because each occurrence gets its own table alias
    ``t0, t1, ...`` — the positional product columns of the plan map
    one-to-one onto ``t{occurrence}.c{local}`` references, so the
    ``ATTR:k`` relabelling of the Python evaluator needs no SQL
    counterpart (positions, not labels, carry the semantics).
    """
    refs = _product_refs(plan, schema)
    select = ", ".join(
        f"{refs[position]} AS {output_name(k)}"
        for k, position in enumerate(plan.output)
    )
    tables = ", ".join(
        f"{table_name(occ.relation)} AS t{index}"
        for index, occ in enumerate(plan.occurrences)
    )
    distinct = "" if plan.keeps_every_column(schema) else "DISTINCT "
    sql = f"SELECT {distinct}{select} FROM {tables}"
    if plan.conditions:
        conjuncts = " AND ".join(
            _condition_sql(c, refs) for c in plan.conditions
        )
        sql += f" WHERE {conjuncts}"
    return sql
