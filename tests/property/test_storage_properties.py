# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Property tests: persistence round-trips on random workloads."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import storage
from repro.core.engine import AuthorizationEngine
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


@SLOW
@given(seeds)
def test_snapshot_roundtrip_preserves_everything(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=6)
    workload = generator.workload(spec)

    database, catalog = storage.loads(
        storage.dumps(workload.database, workload.catalog)
    )

    assert database.relation_names() == workload.database.relation_names()
    for name in database.relation_names():
        assert database.instance(name).same_rows(
            workload.database.instance(name)
        )
    assert catalog.view_names() == workload.catalog.view_names()
    assert catalog.permission_rows() == workload.catalog.permission_rows()


@SLOW
@given(seeds)
def test_reloaded_engine_is_behaviourally_identical(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=6)
    workload = generator.workload(spec)
    database, catalog = storage.loads(
        storage.dumps(workload.database, workload.catalog)
    )

    original = AuthorizationEngine(workload.database, workload.catalog)
    reloaded = AuthorizationEngine(database, catalog)
    for _ in range(3):
        query = generator.query(spec, workload.database.schema)
        for user in workload.users:
            first = original.authorize(user, query)
            second = reloaded.authorize(user, query)
            assert first.delivered == second.delivered, (seed, query)
            assert [str(p) for p in first.permits] == \
                [str(p) for p in second.permits]
