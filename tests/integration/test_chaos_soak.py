"""Chaos soak: seeded random faults under concurrent serving traffic.

The short soaks run on every PR (a few hundred requests at 2 and at 8
workers — seconds of wall time); the 10^4-request soak runs nightly
behind the ``slow`` marker and writes its numbers to the gitignored
``.bench_out/chaos_soak.json`` (the committed ``BENCH_PR8.json`` is
the historical record of the run that introduced the soak).  Every
soak asserts the same four things, straight
from :class:`repro.testing.chaos.ChaosReport`: clean answers match the
faultless serial replay, no answer ever reveals cells outside it, the
audit trail is gapless, and goodput stays above the floor.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.testing.chaos import (
    ChaosReport,
    ChaosSpec,
    fault_schedule,
    run_chaos,
)
from repro.testing.faults import SITES
from repro.workloads.traffic import TrafficSpec

RESULTS_PATH = (Path(__file__).resolve().parents[2] / ".bench_out"
                / "chaos_soak.json")


def assert_sound(report: ChaosReport,
                 goodput_floor: float = 0.99) -> None:
    assert report.parity_violations == (), report.parity_violations
    assert report.unsound == (), report.unsound
    assert report.audit_gapless
    assert report.answered + report.submit_rejected == report.requests
    assert report.goodput >= goodput_floor, (
        f"goodput {report.goodput:.4f} below {goodput_floor}"
    )
    assert report.ok(goodput_floor)


class TestFaultSchedule:
    def test_schedule_is_a_pure_function_of_the_spec(self):
        spec = ChaosSpec(seed=7)
        assert fault_schedule(spec).faults \
            == fault_schedule(spec).faults

    def test_different_seeds_differ(self):
        a = fault_schedule(ChaosSpec(seed=1)).faults
        b = fault_schedule(ChaosSpec(seed=2)).faults
        assert a != b  # per-site coin seeds derive from the spec seed

    def test_schedule_covers_every_registered_site(self):
        plan = fault_schedule(ChaosSpec(seed=3))
        assert set(plan.faults) == set(SITES)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(fault_probability=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(backend_fault_probability=-0.1)
        with pytest.raises(ValueError):
            ChaosSpec(sites=("no.such.site",))
        with pytest.raises(ValueError):
            ChaosSpec(workers=0)


@pytest.mark.parametrize("workers", [2, 8])
def test_short_soak_is_sound(workers):
    spec = ChaosSpec(
        traffic=TrafficSpec(clients=6, ops_per_client=60,
                            seed=60 + workers, distinct_queries=8,
                            churn_every=7),
        seed=60 + workers,
        workers=workers,
    )
    report = run_chaos(spec)
    assert report.fault_trips > 0, "no fault ever fired — vacuous soak"
    assert_sound(report)


def test_soak_with_deadlines_stays_sound():
    # Tight per-request budgets under chaos: expired requests may be
    # denied (hurting goodput by design), but soundness, parity of
    # the answers that do run clean, and the gapless trail must hold.
    spec = ChaosSpec(
        traffic=TrafficSpec(clients=6, ops_per_client=40, seed=91,
                            distinct_queries=6),
        seed=91,
        workers=2,
        request_deadline_ms=5.0,
    )
    report = run_chaos(spec)
    assert report.parity_violations == ()
    assert report.unsound == ()
    assert report.audit_gapless
    assert report.answered + report.submit_rejected == report.requests


@pytest.mark.slow
def test_long_soak_meets_the_acceptance_bar():
    """The PR 8 acceptance soak: >= 10^4 requests, zero parity
    violations, zero unsound answers, goodput >= 99% — written to
    ``.bench_out/chaos_soak.json``."""
    spec = ChaosSpec(
        traffic=TrafficSpec(clients=12, ops_per_client=1000, seed=88,
                            distinct_queries=16, churn_every=10),
        seed=88,
        workers=8,
    )
    report = run_chaos(spec)
    assert report.requests >= 10_000
    assert report.fault_trips > 50, "long soak barely injected"
    assert report.failovers > 0, "oracle failover never exercised"
    assert_sound(report)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps({"chaos_soak": report.to_json()}, indent=2) + "\n",
        encoding="utf-8",
    )
