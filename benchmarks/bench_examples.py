"""E3 / E4 / E5 — the Section 5 examples, end to end.

Each benchmark runs the complete authorization process (compile,
evaluate, derive mask, apply, infer permits) for one worked example and
asserts the paper's printed outcome.
"""

from repro.core.mask import MASKED
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
)


def test_example1_brown_large_projects(benchmark, paper_engine):
    answer = benchmark(paper_engine.authorize, "Brown", EXAMPLE_1_QUERY)
    assert set(answer.delivered) == {("bq-45", "Acme"), (MASKED, MASKED)}
    assert [str(p) for p in answer.permits] == [
        "permit (NUMBER, SPONSOR) where SPONSOR = Acme",
    ]


def test_example2_klein_engineers(benchmark, paper_engine):
    answer = benchmark(paper_engine.authorize, "Klein", EXAMPLE_2_QUERY)
    assert answer.delivered == (("Brown", MASKED),)
    assert [str(p) for p in answer.permits] == ["permit (NAME)"]


def test_example3_brown_same_title(benchmark, paper_engine):
    answer = benchmark(paper_engine.authorize, "Brown", EXAMPLE_3_QUERY)
    assert answer.is_fully_delivered
    assert answer.permits == ()


def test_example2_mask_only(benchmark, paper_engine):
    """The meta-side alone (Figure 2's dashed path), no data touched."""
    derivation = benchmark(paper_engine.derive, "Klein", EXAMPLE_2_QUERY)
    assert derivation.mask is not None
    assert derivation.mask.cardinality == 1


def test_example3_selfjoin_cold_cache(benchmark, paper_engine):
    """Example 3 with the derivation cache cleared each round — the
    price of the derivation, self-join closure included."""

    def run():
        paper_engine._derivation_cache.clear()
        return paper_engine.authorize("Brown", EXAMPLE_3_QUERY)

    answer = benchmark(run)
    assert answer.is_fully_delivered
