"""repro — Motro's view-based access authorization model (ICDE 1989).

A complete implementation of "An Access Authorization Model for
Relational Databases Based on Algebraic Manipulation of View
Definitions": permissions are conjunctive views, queries address the
actual relations, and the engine infers — by running the query's plan
over meta-relations — the subviews of each answer the user may see,
delivering a masked answer plus inferred ``permit`` statements.

Quickstart::

    from repro import AuthorizationEngine, PermissionCatalog
    from repro.workloads import build_paper_database

    database = build_paper_database()
    catalog = PermissionCatalog(database.schema)
    catalog.define_view(
        "view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) "
        "where PROJECT.SPONSOR = Acme"
    )
    catalog.permit("PSA", "brown")

    engine = AuthorizationEngine(database, catalog)
    answer = engine.authorize(
        "brown",
        "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
        "where PROJECT.BUDGET >= 250,000",
    )
    print(answer.render())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure, table and example.
"""

from repro.algebra import (
    INTEGER,
    REAL,
    STRING,
    Attribute,
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    build_database,
    make_schema,
)
from repro.backends import (
    ExecutionBackend,
    PythonBackend,
    SQLiteBackend,
    make_backend,
)
from repro.calculus import (
    AttrRef,
    Condition,
    ConstTerm,
    Query,
    ViewDefinition,
)
from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG, EngineConfig
from repro.core import (
    MASKED,
    AuthorizationEngine,
    AuthorizedAnswer,
    FrontEnd,
    InferredPermit,
    Mask,
    Session,
)
from repro.errors import (
    AuthorizationError,
    ParseError,
    ReproError,
    SafetyError,
    SchemaError,
)
from repro.lang import (
    PermitCommand,
    RevokeCommand,
    format_statement,
    parse_program,
    parse_query,
    parse_statement,
    parse_view,
)
from repro.meta import MetaCell, MetaTuple, PermissionCatalog
from repro.predicates import Comparator

__version__ = "1.0.0"

__all__ = [
    "AttrRef",
    "Attribute",
    "AuthorizationEngine",
    "AuthorizationError",
    "AuthorizedAnswer",
    "BASE_MODEL_CONFIG",
    "Comparator",
    "Condition",
    "ConstTerm",
    "DEFAULT_CONFIG",
    "Database",
    "DatabaseSchema",
    "EngineConfig",
    "ExecutionBackend",
    "FrontEnd",
    "INTEGER",
    "InferredPermit",
    "MASKED",
    "Mask",
    "MetaCell",
    "MetaTuple",
    "ParseError",
    "PermissionCatalog",
    "PermitCommand",
    "PythonBackend",
    "Query",
    "REAL",
    "Relation",
    "RelationSchema",
    "ReproError",
    "RevokeCommand",
    "SQLiteBackend",
    "STRING",
    "SafetyError",
    "SchemaError",
    "Session",
    "ViewDefinition",
    "build_database",
    "format_statement",
    "make_backend",
    "make_schema",
    "parse_program",
    "parse_query",
    "parse_statement",
    "parse_view",
]
