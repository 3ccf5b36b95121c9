"""Property tests: delivery under injected faults never exceeds the
fault-free delivery.

Random workloads (schemas, instances, views, grants, queries from
:class:`~repro.workloads.generator.WorkloadGenerator`) are authorized
twice — once clean, once with a fault plan installed at a random site
with a random action — and the fault run must (a) never raise and
(b) deliver a subset of the clean run's visible cells.  This is the
fail-closed contract stated as a property rather than as examples.

The example budget is small by default so the tier-1 run stays fast;
the resilience CI job raises ``REPRO_HYPOTHESIS_MAX_EXAMPLES`` (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.testing.faults import Fault, inject
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "20"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)

#: Every instrumented site on the authorize path.
SITES = (
    "plan", "selfjoin", "product", "prune", "selection", "projection",
    "closure", "cache.get", "cache.put", "cache.entry",
    "engine.evaluate", "backend.execute",
)

fault_specs = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(["raise", "corrupt", "slow"]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)


def make_workload(seed):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=3, users=2,
                        rows_per_relation=6)
    return generator, spec, generator.workload(spec)


def visible_cells(answer):
    return {
        (i, j, cell)
        for i, row in enumerate(answer.delivered)
        for j, cell in enumerate(row)
        if cell is not MASKED
    }


class TestFaultedDelivery:
    @SLOW
    @given(seeds, st.lists(fault_specs, min_size=1, max_size=3))
    def test_faults_only_ever_shrink_delivery(self, seed, fault_list):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        clean_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        faulted_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        plan = {
            site: Fault(action, times=times)
            for site, action, times in fault_list
        }
        for user in workload.users:
            clean = clean_engine.authorize(user, query)
            with inject(plan):
                faulted = faulted_engine.authorize(user, query)
            assert visible_cells(faulted) <= visible_cells(clean), (
                f"seed={seed} user={user} plan={sorted(plan)}: "
                f"fault widened the delivery"
            )

    @SLOW
    @given(seeds, st.sampled_from(SITES))
    def test_persistent_raise_fault_never_escapes(self, seed, site):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        with inject({site: "raise"}):
            for user in workload.users:
                answer = engine.authorize(user, query)  # must not raise
                assert answer.user == user

    @SLOW
    @given(seeds)
    def test_slow_faults_under_deadline_shrink_delivery(self, seed):
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        clean = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        budgeted = AuthorizationEngine(
            workload.database, workload.catalog,
            DEFAULT_CONFIG.but(derivation_deadline_ms=100.0),
        )
        plan = {"selection": Fault("slow", seconds=5.0)}
        for user in workload.users:
            baseline = clean.authorize(user, query)
            with inject(plan):
                answer = budgeted.authorize(user, query)
            assert visible_cells(answer) <= visible_cells(baseline)

    @SLOW
    @given(seeds)
    def test_transient_faults_recover_to_full_fidelity(self, seed):
        """After a fault plan is exhausted, the next authorize is
        indistinguishable from a fault-free engine's."""
        generator, spec, workload = make_workload(seed)
        query = generator.query(spec, workload.database.schema)
        clean_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        faulted_engine = AuthorizationEngine(
            workload.database, workload.catalog, DEFAULT_CONFIG
        )
        user = workload.users[0]
        clean = clean_engine.authorize(user, query)
        with inject({"plan": Fault("raise", times=1)}):
            faulted_engine.authorize(user, query)
        recovered = faulted_engine.authorize(user, query)
        assert visible_cells(recovered) == visible_cells(clean)
        assert recovered.degradation_level == 0
