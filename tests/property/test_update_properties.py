# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests for the update-permission extension.

Invariants:

* an authorized insert leaves the inserted row *fully visible* to the
  inserter (you can see what you wrote);
* an authorized delete leaves no fully visible row matching the
  qualification (you deleted everything you could see);
* denied updates leave the database byte-identical.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calculus.ast import AttrRef, Condition, ConstTerm
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.errors import AuthorizationError
from repro.extensions.updates import UpdateAuthorizer
from repro.predicates.comparators import Comparator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def build(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=2, views=3, users=1,
                        rows_per_relation=6)
    workload = generator.workload(spec)
    engine = AuthorizationEngine(workload.database, workload.catalog)
    return generator, spec, workload, engine


def full_row_query(schema, relation):
    from repro.calculus.ast import Query

    rel = schema.get(relation)
    return Query(tuple(
        AttrRef(relation, name) for name in rel.attribute_names
    ))


@SLOW
@given(seeds)
def test_authorized_insert_is_visible(seed):
    generator, spec, workload, engine = build(seed)
    authorizer = UpdateAuthorizer(engine)
    user = workload.users[0]
    schema = workload.database.schema

    for relation in schema.names():
        rel = schema.get(relation)
        row = tuple(
            generator._random_value(spec, a.domain.name)
            for a in rel.attributes
        )
        decision = authorizer.check_insert(user, relation, row)
        if not decision.allowed:
            continue
        authorizer.insert(user, relation, row)
        answer = engine.authorize(user, full_row_query(schema, relation))
        visible = {
            r for r in answer.delivered
            if all(v is not MASKED for v in r)
        }
        assert row in visible, (seed, relation, row)


@SLOW
@given(seeds)
def test_denied_updates_change_nothing(seed):
    generator, spec, workload, engine = build(seed)
    authorizer = UpdateAuthorizer(engine)
    user = workload.users[0]
    schema = workload.database.schema

    snapshot = {
        name: workload.database.instance(name).rows
        for name in schema.names()
    }
    for relation in schema.names():
        rel = schema.get(relation)
        row = tuple(
            generator._random_value(spec, a.domain.name)
            for a in rel.attributes
        )
        if authorizer.check_insert(user, relation, row).allowed:
            continue
        try:
            authorizer.insert(user, relation, row)
        except AuthorizationError:
            pass
    for name, rows in snapshot.items():
        assert workload.database.instance(name).rows == rows


@SLOW
@given(seeds)
def test_lenient_delete_removes_exactly_the_visible(seed):
    generator, spec, workload, engine = build(seed)
    authorizer = UpdateAuthorizer(engine, strict=False)
    user = workload.users[0]
    schema = workload.database.schema
    relation = schema.names()[0]
    rel = schema.get(relation)

    # Qualify on the key attribute of the first existing row.
    rows = workload.database.instance(relation).rows
    if not rows:
        return
    key_attr = rel.attribute_names[0]
    key_value = rows[0][0]
    conditions = [Condition(
        AttrRef(relation, key_attr), Comparator.EQ, ConstTerm(key_value)
    )]

    answer = engine.authorize(
        user,
        type(full_row_query(schema, relation))(
            full_row_query(schema, relation).target, tuple(conditions)
        ),
    )
    visible = {
        r for r in answer.delivered if all(v is not MASKED for v in r)
    }
    removed = authorizer.delete(user, relation, conditions)
    assert removed == len(visible)
    remaining = set(workload.database.instance(relation).rows)
    assert visible & remaining == set()
