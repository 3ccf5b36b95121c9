"""The permission catalog: meta-relations, COMPARISON and PERMISSION.

Section 3 extends the database with one meta-relation R' per relation
R, plus two auxiliary relations::

    COMPARISON = (VIEW, X, COMPARE, Y)
    PERMISSION = (USER, VIEW)

:class:`PermissionCatalog` is that extension.  It owns the view
definitions (encoded as meta-tuples), the global constraint store
(COMPARISON), and the user grants (PERMISSION), and serves the pruning
queries the authorization process needs: "pruned to include only tuples
of views that the user is permitted to access, and that are defined in
these relations in their entirety".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.algebra.schema import DatabaseSchema
from repro.calculus.ast import ViewDefinition
from repro.errors import DuplicateViewError, UnknownViewError
from repro.lang.parser import parse_view
from repro.meta.encode import EncodedView, encode_view
from repro.meta.metatuple import MetaTuple, TupleId
from repro.predicates.store import ConstraintStore


@dataclass(frozen=True)
class ViewSnapshot:
    """Some views of a catalog, frozen with their definition serials.

    Everything a mask derivation reads of the catalog: the encodings
    of the views it may use, in grant order.  ``serials`` names that
    content, because a catalog never reuses a serial: equal serials
    mean equal definitions, and a ``permit``, ``revoke`` or
    redefinition yields different serials.
    """

    views: Tuple[EncodedView, ...]
    serials: Tuple[int, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(view.name for view in self.views)

    def tuples_for(self, relation: str) -> Tuple[MetaTuple, ...]:
        """Meta-tuples of the views stored in meta-relation
        ``relation``', in view/ordinal order."""
        return tuple(
            meta for view in self.views for rel, meta in view.tuples
            if rel == relation
        )

    def store(self) -> ConstraintStore:
        """The COMPARISON constraints of the views, merged."""
        store = ConstraintStore.empty()
        for view in self.views:
            store = store.merge(view.store)
        return store

    def defining_tuples(self) -> Dict[str, FrozenSet[TupleId]]:
        """The D(x) map of every variable of the views."""
        out: Dict[str, FrozenSet[TupleId]] = {}
        for view in self.views:
            out.update(view.defining_tuples)
        return out


class PermissionCatalog:
    """Views, their meta-tuple encodings, and user grants.

    Mutators (``define_view`` / ``drop_view`` / ``permit`` /
    ``revoke``) are serialized by an internal lock, and
    :meth:`snapshot` reads under the same lock, so a snapshot is
    always one state of the catalog: never a grant list from before a
    mutation paired with a definition from after it.  Other readers
    are lock-free: they take GIL-atomic reads of dicts and of grant
    lists that mutators replace wholesale.

    ``define_view`` stamps each definition with a serial it never
    reuses, not even for a view dropped and defined again under the
    same name.  A derivation cache keyed by the serials of a
    snapshot therefore cannot serve a mask derived from other
    definitions or other grants (see :mod:`repro.core.cache`).
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._views: Dict[str, EncodedView] = {}
        self._serials: Dict[str, int] = {}  # view name -> its serial
        self._grants: Dict[str, List[str]] = {}  # user -> view names, in grant order
        self._var_counter = 0
        self._serial_counter = 0
        self._mutate_lock = threading.RLock()
        #: Monotonic version, bumped on every mutation (kept for
        #: backward compatibility and coarse observers).
        self.version = 0

    # ------------------------------------------------------------------
    # view definition
    # ------------------------------------------------------------------

    def _fresh_var(self) -> str:
        self._var_counter += 1
        return f"x{self._var_counter}"

    def define_view(self, view: Union[ViewDefinition, str]) -> EncodedView:
        """Define (and encode) a view.

        Accepts either an AST or the surface-syntax text of a ``view``
        statement.

        Raises:
            DuplicateViewError: when the name is taken.
        """
        if isinstance(view, str):
            view = parse_view(view)
        with self._mutate_lock:
            if view.name in self._views:
                raise DuplicateViewError(view.name)
            encoded = encode_view(view, self.schema, self._fresh_var)
            self._serial_counter += 1
            self._views[view.name] = encoded
            self._serials[view.name] = self._serial_counter
            self.version += 1
        return encoded

    def drop_view(self, name: str) -> None:
        """Remove a view and every grant that references it."""
        with self._mutate_lock:
            if name not in self._views:
                raise UnknownViewError(name)
            del self._views[name]
            del self._serials[name]
            for user in list(self._grants):
                remaining = [
                    v for v in self._grants[user] if v != name
                ]
                if remaining:
                    self._grants[user] = remaining
                else:
                    del self._grants[user]
            self.version += 1

    def view(self, name: str) -> EncodedView:
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(name) from None

    def view_names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    def has_view(self, name: str) -> bool:
        return name in self._views

    # ------------------------------------------------------------------
    # PERMISSION
    # ------------------------------------------------------------------

    def permit(self, view_name: str, user: str) -> None:
        """Grant ``user`` access to ``view_name`` (idempotent)."""
        with self._mutate_lock:
            if view_name not in self._views:
                raise UnknownViewError(view_name)
            granted = self._grants.get(user, [])
            if view_name not in granted:
                # Replace the list wholesale so lock-free readers see
                # either the before or the after state, never a
                # half-applied mutation.
                self._grants[user] = granted + [view_name]
                self.version += 1

    def revoke(self, view_name: str, user: str) -> None:
        """Withdraw a grant (no-op when absent)."""
        with self._mutate_lock:
            granted = self._grants.get(user, [])
            if view_name in granted:
                remaining = [v for v in granted if v != view_name]
                if remaining:
                    self._grants[user] = remaining
                else:
                    del self._grants[user]
                self.version += 1

    def views_of(self, user: str) -> Tuple[str, ...]:
        """Views granted to ``user``, in grant order."""
        return tuple(self._grants.get(user, ()))

    def users(self) -> Tuple[str, ...]:
        return tuple(self._grants)

    def is_permitted(self, user: str, view_name: str) -> bool:
        return view_name in self._grants.get(user, ())

    # ------------------------------------------------------------------
    # pruning services for the authorization process
    # ------------------------------------------------------------------

    def snapshot(self, user: str,
                 relations: Iterable[str]) -> ViewSnapshot:
        """The views permitted to ``user`` and defined entirely within
        ``relations`` (the stage-one pruning of Section 5's examples),
        in grant order, read as one state of the catalog."""
        universe = frozenset(relations)
        with self._mutate_lock:
            return self.snapshot_of(
                name for name in self._grants.get(user, ())
                if self._views[name].relation_names() <= universe
            )

    def snapshot_of(self, view_names: Iterable[str]) -> ViewSnapshot:
        """A snapshot of the named views."""
        names = tuple(view_names)
        return ViewSnapshot(
            views=tuple(self.view(name) for name in names),
            serials=tuple(self._serials[name] for name in names),
        )

    # ------------------------------------------------------------------
    # display (the Figure 1 tables)
    # ------------------------------------------------------------------

    def meta_relation_rows(self, relation: str,
                           view_names: Optional[Iterable[str]] = None
                           ) -> Tuple[Tuple[str, MetaTuple], ...]:
        """(VIEW, meta-tuple) rows of meta-relation ``relation``'.

        Restricted to ``view_names`` when given; definition order
        otherwise, matching Figure 1.
        """
        names = tuple(view_names) if view_names is not None \
            else self.view_names()
        rows: List[Tuple[str, MetaTuple]] = []
        for name in names:
            for rel, meta in self.view(name).tuples:
                if rel == relation:
                    rows.append((name, meta))
        return tuple(rows)

    def comparison_rows(self, view_names: Optional[Iterable[str]] = None
                        ) -> Tuple[Tuple[str, str, str, str], ...]:
        """(VIEW, X, COMPARE, Y) display rows of the COMPARISON relation."""
        names = tuple(view_names) if view_names is not None \
            else self.view_names()
        rows: List[Tuple[str, str, str, str]] = []
        for name in names:
            store = self.view(name).store
            for var in sorted(store.mentioned_vars(),
                              key=_variable_sort_key):
                for clause in store.interval_for(var).describe(var):
                    subject, op, bound = clause.split(" ", 2)
                    rows.append((name, subject, op, bound))
            for relation in store.relations():
                rows.append((name, relation.left, str(relation.op),
                             relation.right))
        return tuple(rows)

    def permission_rows(self) -> Tuple[Tuple[str, str], ...]:
        """(USER, VIEW) display rows of the PERMISSION relation."""
        rows: List[Tuple[str, str]] = []
        for user, views in self._grants.items():
            for view_name in views:
                rows.append((user, view_name))
        return tuple(rows)


def _variable_sort_key(var: str) -> Tuple[int, str]:
    """Sort x2 before x10 while tolerating non-numeric names."""
    if var.startswith("x") and var[1:].isdigit():
        return (int(var[1:]), "")
    return (1 << 30, var)
