"""The soundness oracle.

The paper's Theorem guarantees that every view in A' is a view of the
permitted views V1..Vm.  The semantic consequence — and the property a
security reviewer actually cares about — is *non-interference*: if two
database instances agree on every view the user is permitted to access,
the authorization process must deliver indistinguishable answers.  Any
difference would prove the user learned something not derivable from
the permitted views.

This module makes that property executable:

* :func:`materialize_view` / :func:`materialize_views` — evaluate
  permitted views over an instance;
* :func:`views_agree` — do two instances agree on a user's views?
* :func:`delivered_view` — the information content of a delivery
  (the *set* of delivered rows; see the multiplicity note below);
* :func:`delivered_rows` — everything a client observes of a delivery
  (the *multiset* of delivered rows, fully masked ones included);
* :func:`check_non_interference` — the end-to-end oracle.

Multiplicity caveat: the paper delivers the answer's tuples with masked
values.  Two answer tuples that differ only in masked cells deliver the
same visible row, but their *count* still reveals that the hidden cells
differ — an inherent property of cell-masking presentations, not of the
mask derivation.  The oracle therefore compares delivered row *sets*,
which is exactly the information content of the permitted subviews the
Theorem speaks about.  ``strict=True`` drops that allowance and
compares :func:`delivered_rows`: the count of delivered rows, fully
masked ones included, can reveal the size of an answer that no
permitted view determines.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, Tuple, Union

from repro.algebra.database import Database
from repro.algebra.optimize import evaluate_optimized
from repro.algebra.relation import Relation
from repro.calculus.ast import Query
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.core.answer import AuthorizedAnswer
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.meta.catalog import PermissionCatalog


def materialize_view(catalog: PermissionCatalog, name: str,
                     database: Database) -> Relation:
    """Evaluate view ``name`` over ``database``."""
    normalized = catalog.view(name).normalized
    plan = normalized.materialization_psj(database.schema)
    return evaluate_optimized(plan, database)


def materialize_views(catalog: PermissionCatalog, names: Iterable[str],
                      database: Database) -> Dict[str, Relation]:
    """Evaluate several views over ``database``."""
    return {
        name: materialize_view(catalog, name, database) for name in names
    }


def views_agree(catalog: PermissionCatalog, user: str,
                first: Database, second: Database) -> bool:
    """Do the two instances agree on every view permitted to ``user``?"""
    for name in catalog.views_of(user):
        left = materialize_view(catalog, name, first)
        right = materialize_view(catalog, name, second)
        if not left.same_rows(right):
            return False
    return True


def _shown(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """``row`` as a client sees it: masked cells are all alike."""
    return tuple("#" if value is MASKED else value for value in row)


def delivered_view(answer: AuthorizedAnswer) -> FrozenSet[Tuple]:
    """The information content of a delivery: its set of visible rows.

    Fully masked rows carry no information beyond the multiplicity
    caveat discussed in the module docstring and are dropped.
    """
    return frozenset(
        _shown(row) for row in answer.delivered
        if any(value is not MASKED for value in row)
    )


def delivered_rows(answer: AuthorizedAnswer) -> "Counter[Tuple]":
    """Every delivered row with its count, fully masked rows included:
    all a client observes of a delivery."""
    return Counter(map(_shown, answer.delivered))


def check_non_interference(
    catalog: PermissionCatalog,
    user: str,
    query: Union[Query, str],
    first: Database,
    second: Database,
    config: EngineConfig = DEFAULT_CONFIG,
    strict: bool = False,
) -> Tuple[bool, str]:
    """The end-to-end soundness check.

    Returns ``(ok, detail)``.  When the two instances agree on the
    user's permitted views, the deliveries must be equal; a mismatch is
    reported with both sides.  Instances that disagree on the views are
    vacuously fine (the check does not apply).  Deliveries are compared
    as sets of visible rows (:func:`delivered_view`), or with
    ``strict`` as multisets of all delivered rows
    (:func:`delivered_rows`).
    """
    if not views_agree(catalog, user, first, second):
        return True, "instances differ on permitted views; check vacuous"

    first_answer = AuthorizationEngine(first, catalog, config) \
        .authorize(user, query)
    second_answer = AuthorizationEngine(second, catalog, config) \
        .authorize(user, query)

    if strict:
        left = delivered_rows(first_answer)
        right = delivered_rows(second_answer)
    else:
        left = Counter(delivered_view(first_answer))
        right = Counter(delivered_view(second_answer))
    if left == right:
        return True, "deliveries agree"
    only_left = sorted(map(str, (left - right).elements()))
    only_right = sorted(map(str, (right - left).elements()))
    return False, (
        "NON-INTERFERENCE VIOLATION: "
        f"only in first: {only_left}; only in second: {only_right}"
    )
