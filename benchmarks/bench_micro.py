"""Micro-benchmarks for the substrates behind the experiments.

Not tied to a single paper artifact; these isolate the components that
dominate the end-to-end numbers: the statement parser, the view
encoder, the meta-selection operator, constraint-store operations, and
the containment checker.
"""

from repro.algebra.expression import AtomicCondition, Col, Const
from repro.calculus.containment import is_contained_in
from repro.config import DEFAULT_CONFIG
from repro.lang.parser import parse_statement
from repro.meta.catalog import PermissionCatalog
from repro.metaalgebra.selection import meta_select
from repro.metaalgebra.table import MaskTable
from repro.predicates.comparators import Comparator
from repro.predicates.store import ConstraintStore
from repro.workloads.paperdb import (
    VIEW_STATEMENTS,
    build_paper_database,
)

ELP_TEXT = VIEW_STATEMENTS[1]


def test_parse_view_statement(benchmark):
    view = benchmark(parse_statement, ELP_TEXT)
    assert view.name == "ELP"


def test_encode_view(benchmark):
    database = build_paper_database()

    def encode():
        catalog = PermissionCatalog(database.schema)
        return catalog.define_view(ELP_TEXT)

    encoded = benchmark(encode)
    assert len(encoded.tuples) == 3


def test_meta_selection_operator(benchmark, paper_engine):
    derivation = paper_engine.derive(
        "Klein",
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
        "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
    )
    table = derivation.pruned_product
    condition = AtomicCondition(Col(5), Comparator.GE, Const(300_000))

    selected = benchmark(meta_select, table, condition, DEFAULT_CONFIG)
    assert isinstance(selected, MaskTable)


def test_store_operations(benchmark):
    def churn():
        store = ConstraintStore.empty()
        for i in range(20):
            store = store.constrain(f"x{i % 5}", Comparator.GE, i)
        store = store.relate("x0", Comparator.LT, "x1")
        store = store.relate("x1", Comparator.LT, "x2")
        return store.is_definitely_unsat()

    assert benchmark(churn) is False


def test_containment_check(benchmark):
    from repro.lang.parser import parse_query

    database = build_paper_database()
    narrow = parse_query(
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
        "PROJECT.BUDGET) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
        "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
        "and PROJECT.BUDGET > 500,000"
    )
    wide = parse_query(
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
        "PROJECT.BUDGET) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
        "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
        "and PROJECT.BUDGET >= 250,000"
    )

    result = benchmark(is_contained_in, narrow, wide, database.schema)
    assert result is True


def test_mask_application(benchmark, paper_engine):
    from repro.workloads.paperdb import EXAMPLE_3_QUERY

    answer = paper_engine.authorize("Brown", EXAMPLE_3_QUERY)

    delivered = benchmark(answer.mask.apply, answer.answer)
    assert len(delivered) == answer.answer.cardinality
