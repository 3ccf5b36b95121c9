"""Concurrent multi-tenant authorization serving.

The serving layer fronts :class:`~repro.core.engine.AuthorizationEngine`
with a thread-pool batch server (:mod:`repro.serving.server`),
per-tenant isolation with one engine, catalog and derivation cache
each (:mod:`repro.serving.tenants`), and admission control that sheds
fidelity down the degradation ladder instead of queueing unboundedly
(:mod:`repro.serving.admission`).  See
docs/SERVING.md for the architecture and its soundness arguments.
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionSnapshot,
)
from repro.serving.server import (
    AuthorizationServer,
    ServerConfig,
    ServerTelemetry,
)
from repro.serving.tenants import Tenant, TenantRegistry

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionSnapshot",
    "AuthorizationServer",
    "ServerConfig",
    "ServerTelemetry",
    "Tenant",
    "TenantRegistry",
]
