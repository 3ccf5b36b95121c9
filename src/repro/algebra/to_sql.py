"""Compiling PSJ plans — and compiled masks — into SQL.

The paper fixes *what* to evaluate (a product–selection–projection
plan and the mask A' derived alongside it) but not *where*.  The
pluggable execution backends (:mod:`repro.backends`) push both down
into an embedded SQL engine; this module is the shared compiler.

Two translations are provided:

* :func:`plan_to_sql` — a :class:`~repro.algebra.expression.PSJQuery`
  becomes one ``SELECT`` over the cross join of its occurrences, with
  every atomic condition as a ``WHERE`` conjunct.  ``DISTINCT`` gives
  :class:`~repro.algebra.relation.Relation`'s set semantics when the
  projection drops a column; the in-process evaluator dedupes under
  the same rule.  A projection that keeps every product column
  (``PSJQuery.keeps_every_column``) needs none: each stored table is
  a deduplicated ``Relation``, so their filtered product is a set
  already.
* :func:`masked_plan_to_sql` — wraps the plan SELECT in an outer query
  that applies a compiled mask: each output column becomes
  ``CASE WHEN <visible> THEN column END``, so masking happens *inside*
  the query engine and fully masked cells come back as SQL ``NULL``
  (the stored domains never produce NULL, so the backend can translate
  NULL to the ``MASKED`` sentinel unambiguously).

The mask is not lowered here.  :func:`repro.core.compiled_mask.compile_mask`
lowers each mask row once into a tuple of comparisons over answer
positions, the same :class:`~repro.algebra.expression.AtomicCondition`
shape as a plan's conjuncts; the columnar kernel runs those comparisons
in Python and this module prints them with the renderer of plan
conjuncts, which is possible exactly when no row keeps a residual
constraint-store check (``CompiledMask.pushdown``).  ``repro.algebra``
sits below ``repro.core``, so the compiled mask is read by its
attributes rather than imported.

The emitted SQL sticks to a portable SQL-92 subset — quoted
identifiers, inline escaped literals, ``CASE``, ``<>`` — shared by the
sqlite3 and DuckDB drivers.  Tables are named after relations; the
columns of a relation of arity n are ``c0 .. c{n-1}``, and the plan's
output columns are aliased ``a0 .. a{k-1}``.
"""

from __future__ import annotations

from typing import Any, List, Tuple

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

#: Dialect-portable boolean literals (DuckDB has TRUE/FALSE, older
#: SQLite does not; ``(1=1)``/``(1=0)`` work everywhere).
SQL_TRUE = "(1=1)"
SQL_FALSE = "(1=0)"


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
    """Render one comparison over the column expressions ``refs``.

    Shared by a plan's ``WHERE`` conjuncts and a compiled mask row's
    checks, which have the same shape.
    """
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


# ----------------------------------------------------------------------
# mask predicates
# ----------------------------------------------------------------------


def row_predicate_sql(row: Any, refs: Tuple[str, ...]) -> str:
    """The SQL condition under which compiled mask row ``row`` matches.

    ``row`` is a :class:`repro.core.compiled_mask.CompiledRow` without
    a residual: its comparisons are the row's whole semantics, printed
    in the order the lowering holds them.
    """
    if not row.checks:
        return SQL_TRUE
    return "(" + " AND ".join(
        _condition_sql(check, refs) for check in row.checks
    ) + ")"


def visibility_sql(mask: Any, refs: Tuple[str, ...]) -> Tuple[str, ...]:
    """Per-column SQL conditions: is output column ``j`` visible?

    Column ``j`` is visible for a tuple iff ``j`` is always visible or
    some row starring ``j`` matches the tuple — the union semantics of
    ``Mask.visible_positions``, as a disjunction.
    """
    conditions: List[str] = []
    for j in range(mask.ncols):
        if j in mask.always_visible:
            conditions.append(SQL_TRUE)
            continue
        matches = [
            row_predicate_sql(row, refs)
            for row in mask.rows if j in row.star_set
        ]
        if not matches:
            conditions.append(SQL_FALSE)
        elif len(matches) == 1:
            conditions.append(matches[0])
        else:
            conditions.append("(" + " OR ".join(matches) + ")")
    return tuple(conditions)


def masked_plan_to_sql(plan: PSJQuery, schema: DatabaseSchema,
                       mask: Any, drop_fully_masked: bool = False) -> str:
    """Compile ``plan`` masked by compiled ``mask`` into one statement.

    ``mask`` is a :class:`repro.core.compiled_mask.CompiledMask`.  The
    plan SELECT becomes a subquery ``q``; the outer SELECT turns each
    output column into ``CASE WHEN <visible_j> THEN a{j} END``,
    yielding NULL exactly where the mask withholds a cell.  With
    ``drop_fully_masked`` the outer WHERE keeps only tuples some row
    (or an always-visible column) delivers at least one cell of.

    Raises:
        BackendError: when the mask's arity differs from the plan's
            output, or some row needs a residual store check
            (``mask.pushdown`` is false) that SQL cannot express.
    """
    if len(plan.output) != mask.ncols:
        raise BackendError(
            f"mask arity {mask.ncols} does not match plan output "
            f"arity {len(plan.output)}"
        )
    if not mask.pushdown:
        raise BackendError(
            "mask has a row with a residual store check; it cannot be "
            "pushed into SQL"
        )
    inner = plan_to_sql(plan, schema)
    refs = tuple(output_name(j) for j in range(mask.ncols))
    visible = visibility_sql(mask, refs)
    select = ", ".join(
        f"CASE WHEN {condition} THEN {ref} END AS m{j}"
        for j, (condition, ref) in enumerate(zip(visible, refs))
    )
    sql = f"SELECT {select} FROM ({inner}) AS q"
    if drop_fully_masked and not mask.always_visible:
        matches = [row_predicate_sql(row, refs) for row in mask.rows]
        any_visible = " OR ".join(matches) if matches else SQL_FALSE
        sql += f" WHERE {any_visible}"
    return sql
