"""The System R authorization baseline (Griffiths & Wade, 1976).

Reimplements the scheme the paper contrasts with in Section 1: access
permissions are granted on named objects — base relations and views —
optionally with the grant option; grants form a graph with timestamps
and revocation is recursive (a revoked grantee's own grants survive
only if independently supported by an earlier valid grant).

The paper's criticism is structural, not about grants: a view V over
relations A and B "is not only a statement of the permissions, but the
actual access window as well".  A query addressed at A or B is rejected
for lack of permissions on those relations even when the requested data
lies entirely within V; only queries addressed *at V* succeed.
:meth:`SystemRModel.authorize_query` reproduces exactly that behaviour,
and :meth:`authorize_view_query` provides the window path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.algebra.database import Database
from repro.algebra.optimize import evaluate_optimized
from repro.baselines.interface import Decision, Outcome
from repro.calculus.ast import Query, ViewDefinition
from repro.calculus.normalize import normalize_view
from repro.calculus.to_algebra import compile_query
from repro.errors import GrantError, UnknownViewError
from repro.lang.parser import parse_statement


@dataclass(frozen=True)
class Grant:
    """One edge of the grant graph."""

    grantor: str
    grantee: str
    object_name: str
    grant_option: bool
    timestamp: int


class SystemRModel:
    """Grant-based authorization with views as access windows."""

    name = "System R"

    def __init__(self, database: Database) -> None:
        self.database = database
        self._owners: Dict[str, str] = {}
        self._views: Dict[str, ViewDefinition] = {}
        self._grants: List[Grant] = []
        self._clock = itertools.count(1)
        # Base relations are owned by the DBA pseudo-user.
        for name in database.schema.names():
            self._owners[name] = "_dba"

    # ------------------------------------------------------------------
    # object management
    # ------------------------------------------------------------------

    def create_view(self, owner: str,
                    view: Union[ViewDefinition, str]) -> None:
        """Register a named view owned by ``owner``.

        System R would require the owner to hold privileges on the
        underlying relations; for the comparison harness the owner is
        assumed entitled to define the view (the DBA scenario).
        """
        if isinstance(view, str):
            parsed = parse_statement(view)
            assert isinstance(parsed, ViewDefinition)
            view = parsed
        if view.name in self._owners:
            raise GrantError(f"object {view.name!r} already exists")
        normalize_view(view, self.database.schema)  # validate
        self._views[view.name] = view
        self._owners[view.name] = owner

    # ------------------------------------------------------------------
    # GRANT / REVOKE
    # ------------------------------------------------------------------

    def _holds(self, user: str, object_name: str,
               need_option: bool = False,
               grants: Optional[List[Grant]] = None,
               before: Optional[int] = None) -> bool:
        if self._owners.get(object_name) == user:
            return True
        for grant in (grants if grants is not None else self._grants):
            if before is not None and grant.timestamp >= before:
                continue
            if (grant.grantee == user and grant.object_name == object_name
                    and (grant.grant_option or not need_option)):
                return True
        return False

    def grant(self, grantor: str, grantee: str, object_name: str,
              grant_option: bool = False) -> None:
        """``GRANT SELECT ON object TO grantee [WITH GRANT OPTION]``.

        Raises:
            GrantError: when the grantor lacks the grant option.
            UnknownViewError: for a nonexistent object.
        """
        if object_name not in self._owners:
            raise UnknownViewError(object_name)
        if not self._holds(grantor, object_name, need_option=True):
            raise GrantError(
                f"{grantor} may not grant on {object_name!r}"
            )
        self._grants.append(Grant(
            grantor, grantee, object_name, grant_option, next(self._clock)
        ))

    def revoke(self, grantor: str, grantee: str, object_name: str) -> None:
        """Revoke ``grantor``'s grants to ``grantee``, recursively.

        Implements the Griffiths-Wade semantics: after removing the
        direct grants, every remaining grant must be supportable by a
        chain of earlier grants not passing through the revoked edge;
        unsupported grants are deleted transitively.
        """
        remaining = [
            g for g in self._grants
            if not (g.grantor == grantor and g.grantee == grantee
                    and g.object_name == object_name)
        ]
        # Iteratively delete grants whose grantor no longer held the
        # grant option at the time of granting.
        changed = True
        while changed:
            changed = False
            supported: List[Grant] = []
            for grant in remaining:
                if self._holds(
                    grant.grantor, grant.object_name, need_option=True,
                    grants=[g for g in remaining if g is not grant],
                    before=grant.timestamp,
                ):
                    supported.append(grant)
                else:
                    changed = True
            remaining = supported
        self._grants = remaining

    def readable_objects(self, user: str) -> Set[str]:
        """Objects ``user`` may read (owned or granted)."""
        owned = {o for o, owner in self._owners.items() if owner == user}
        granted = {g.object_name for g in self._grants if g.grantee == user}
        return owned | granted

    # ------------------------------------------------------------------
    # authorization
    # ------------------------------------------------------------------

    def authorize_query(self, user: str,
                        query: Union[Query, str]) -> Decision:
        """A query addressed at base relations: all-or-nothing.

        Authorized iff the user may read *every* referenced relation;
        a granted view over those relations does not help — that is the
        limitation the paper's model removes.
        """
        if isinstance(query, str):
            parsed = parse_statement(query)
            assert isinstance(parsed, Query)
            query = parsed
        plan = compile_query(query, self.database.schema)
        readable = self.readable_objects(user)
        missing = sorted(plan.relation_names() - readable)
        if missing:
            return Decision(
                Outcome.DENIED, (), (),
                note=f"no READ permission on {', '.join(missing)}",
            )
        answer = evaluate_optimized(plan, self.database)
        return Decision(
            Outcome.FULL, answer.labels(), answer.rows,
            note="all referenced relations readable",
        )

    def authorize_view_query(self, user: str, view_name: str) -> Decision:
        """A query addressed at a named view: the access-window path."""
        if view_name not in self._views:
            raise UnknownViewError(view_name)
        if view_name not in self.readable_objects(user):
            return Decision(
                Outcome.DENIED, (), (),
                note=f"no READ permission on view {view_name}",
            )
        view = self._views[view_name]
        normalized = normalize_view(view, self.database.schema)
        plan = normalized.materialization_psj(self.database.schema)
        answer = evaluate_optimized(plan, self.database)
        return Decision(
            Outcome.FULL, answer.labels(), answer.rows,
            note=f"via access window {view_name}",
        )
