"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one of DESIGN.md's experiments
(EXPERIMENTS.md records the paper-vs-measured outcome) while measuring
the hot path with pytest-benchmark.  Every benchmarked function also
*asserts* the paper's outcome, so a regression in behaviour fails the
benchmark run rather than silently timing the wrong thing.

The benchmark tree is also inside the static-analysis perimeter
(``docs/STATIC_ANALYSIS.md``): CI's ``static-analysis`` job runs
``ruff check`` over ``benchmarks/`` and soundlint's SL006
authorize-bypass rule over ``tests/`` and ``benchmarks/`` — a
harness that reads relations around the mask carries a justified
``# soundlint: disable-file=SL006 -- ...`` suppression or fails the
gate.  The fast-path pairs measured here (``compile_mask`` vs
``Mask.apply``, ``meta_product_streaming`` vs ``meta_product``) are
exactly the oracle registrations soundlint's SL005 rule keeps honest
— delete a differential test and the lint gate, not just this
harness, fails.  Fixtures here stay annotation-light because
``benchmarks/`` is outside ``src/repro`` and therefore outside the
SL007/mypy strict scope; anything promoted into the package must
arrive fully annotated.
"""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.workloads.paperdb import build_paper_engine


@pytest.fixture
def paper_engine():
    # The derivation cache is disabled so repeated benchmark rounds
    # keep measuring the meta-algebra itself; bench_cache.py measures
    # the cache explicitly with its own engines.
    return build_paper_engine(DEFAULT_CONFIG.but(derivation_cache_size=0))
