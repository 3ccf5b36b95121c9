"""S1 — the relational substrate.

Typed domains, relation/database schemes with keys, immutable relation
instances with the conjunctive-algebra operators (product, selection,
projection), PSJ query plans, and two evaluators: a naive one mirroring
the paper's products-then-selections-then-projections order, and an
optimized one for the data side that filters each relation once before
it joins and hashes the filtered side.
"""

from repro.algebra.database import Database, build_database
from repro.algebra.evaluate import EvaluationTrace, evaluate_naive, trace_naive
from repro.algebra.expression import (
    AtomicCondition,
    Col,
    Const,
    Occurrence,
    PSJQuery,
)
from repro.algebra.optimize import evaluate_optimized
from repro.algebra.relation import Column, Relation, Row, empty_like
from repro.algebra.schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    make_schema,
)
from repro.algebra.types import (
    INTEGER,
    REAL,
    STRING,
    Domain,
    Value,
    domain_named,
    domain_of_value,
)

__all__ = [
    "Attribute",
    "AtomicCondition",
    "Col",
    "Column",
    "Const",
    "Database",
    "DatabaseSchema",
    "Domain",
    "EvaluationTrace",
    "INTEGER",
    "Occurrence",
    "PSJQuery",
    "REAL",
    "Relation",
    "RelationSchema",
    "Row",
    "STRING",
    "Value",
    "build_database",
    "domain_named",
    "domain_of_value",
    "empty_like",
    "evaluate_naive",
    "evaluate_optimized",
    "make_schema",
    "trace_naive",
]
