"""Per-tenant isolation: one engine, catalog, cache, and audit each.

A multi-tenant authorization service must guarantee that tenant A's
grants, revocations, cached derivations, and audit trail are invisible
to tenant B.  Rather than tagging shared structures with tenant ids
(and auditing every lookup for a missing tag), each :class:`Tenant`
owns a complete engine stack: its own :class:`PermissionCatalog`, its
own derivation cache, and its own :class:`AuditLog`.  Cache keys from
different tenants can collide on ``(plan key, definition serials)``
harmlessly because they never share a cache.

:class:`TenantRegistry` is the thread-safe name → tenant map the
server routes requests through.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import ExecutionBackend

from repro.core.audit import AuditLog
from repro.core.engine import AuthorizationEngine
from repro.errors import ServingError, UnknownTenantError


@dataclass(frozen=True)
class Tenant:
    """One tenant's isolated authorization stack."""

    name: str
    engine: AuthorizationEngine

    @property
    def backend(self) -> "ExecutionBackend":
        """The tenant engine's execution backend.

        Backends are part of the isolation story: each tenant's
        backend instance (and, for the SQL backends, its embedded
        store) is private to that tenant's engine — one tenant's bulk
        load or re-sync never blocks another's queries.
        """
        return self.engine.backend

    @property
    def audit(self) -> AuditLog:
        """The tenant's audit trail (raises if attached without one)."""
        log = self.engine.audit
        if log is None:
            raise ServingError(
                f"tenant {self.name!r} has no audit log attached"
            )
        return log


class TenantRegistry:
    """Thread-safe registry of named tenants.

    Registration is expected at deployment time, but grant/revoke
    churn *within* a tenant is fully concurrent with lookups — the
    registry lock only guards the name map, never an engine.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}

    def add(self, tenant: Tenant) -> Tenant:
        """Register ``tenant``; duplicate names are refused."""
        with self._lock:
            if tenant.name in self._tenants:
                raise ServingError(
                    f"tenant already registered: {tenant.name!r}"
                )
            self._tenants[tenant.name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise UnknownTenantError(name) from None

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._tenants
