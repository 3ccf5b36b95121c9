"""Fault tolerance for execution backends: retry, breaker, failover.

The package composes two layers:

* :mod:`repro.resilience.breaker` — a thread-safe per-(tenant,
  backend) :class:`~repro.resilience.breaker.CircuitBreaker` with an
  injected clock;
* :mod:`repro.resilience.failover` — the
  :class:`~repro.resilience.failover.ResilientExecutor` that wraps a
  backend with immediate retries and the breaker and, when they are
  exhausted, soundly re-evaluates on the registered Python oracle.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.failover import (
    ExecutionOutcome,
    ResilientExecutor,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerPolicy",
    "CircuitBreaker",
    "ResilientExecutor",
    "ExecutionOutcome",
]
