"""Seeded random workloads.

The paper promises experimentation with a front-end prototype but
reports no workload; this generator provides the synthetic equivalent:
random multi-relation schemas, instances over small value pools (so
joins actually join), random conjunctive views in the paper's surface
form, random conjunctive queries overlapping those views, and random
grants.  Everything is driven by a single :class:`random.Random` seed,
so tests, property checks and benchmarks are reproducible.

Instance mutation helpers support the non-interference oracle: a
mutated instance either agrees with the original on the user's views
(the check must then find identical deliveries) or differs (vacuous).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import ExecutionBackend

from repro.algebra.database import Database, build_database
from repro.algebra.relation import Row
from repro.algebra.schema import DatabaseSchema, RelationSchema, make_schema
from repro.algebra.types import INTEGER, STRING
from repro.calculus.ast import (
    AttrRef,
    Condition,
    ConstTerm,
    Query,
    ViewDefinition,
)
from repro.errors import SafetyError
from repro.meta.catalog import PermissionCatalog
from repro.predicates.comparators import Comparator


@dataclass
class WorkloadSpec:
    """Shape parameters of a generated workload."""

    relations: int = 3
    min_arity: int = 2
    max_arity: int = 4
    rows_per_relation: int = 12
    string_pool: int = 6
    int_range: int = 20
    views: int = 4
    users: int = 2
    max_view_relations: int = 2
    comparison_probability: float = 0.6
    include_selection_attrs: float = 0.8
    seed: int = 0


@dataclass
class Workload:
    """A generated database, catalog, and query stream."""

    spec: WorkloadSpec
    database: Database
    catalog: PermissionCatalog
    users: Tuple[str, ...]
    views: Tuple[ViewDefinition, ...] = ()
    queries: List[Query] = field(default_factory=list)


class WorkloadGenerator:
    """Deterministic generator of schemas, instances, views, queries."""

    _ORDER_OPS = (Comparator.GE, Comparator.GT, Comparator.LE, Comparator.LT)

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # schema and instance
    # ------------------------------------------------------------------

    def schema(self, spec: WorkloadSpec) -> DatabaseSchema:
        """A random database scheme with keyed relations.

        Attribute domains alternate so every relation has both string
        and integer attributes; the first attribute is the key.
        """
        db_schema = DatabaseSchema()
        for r in range(spec.relations):
            arity = self.rng.randint(spec.min_arity, spec.max_arity)
            attributes = []
            for a in range(arity):
                name = f"{string.ascii_uppercase[a]}{r}"
                domain = STRING if a % 2 == 0 else INTEGER
                attributes.append((name, domain))
            db_schema.add(make_schema(
                f"R{r}", attributes, key=[attributes[0][0]]
            ))
        return db_schema

    def instance(self, spec: WorkloadSpec,
                 db_schema: DatabaseSchema) -> Database:
        """A random instance over small value pools."""
        instances: Dict[str, List[Tuple]] = {}
        for rel in db_schema:
            rows = []
            for _ in range(spec.rows_per_relation):
                row = tuple(
                    self._random_value(spec, attribute.domain.name)
                    for attribute in rel.attributes
                )
                rows.append(row)
            instances[rel.name] = rows
        return build_database(list(db_schema), instances)

    def _random_value(self, spec: WorkloadSpec,
                      domain_name: str) -> Union[str, int]:
        if domain_name == "string":
            return f"s{self.rng.randrange(spec.string_pool)}"
        return self.rng.randrange(spec.int_range)

    def iter_rows(self, spec: WorkloadSpec, relation: RelationSchema,
                  count: int) -> Iterator[Tuple[Union[str, int], ...]]:
        """Lazily generate ``count`` random rows for ``relation``.

        A generator rather than a list so that large-instance builders
        (:meth:`scaled_instance`, the backend benchmarks) never hold a
        second copy of a 10^6-row relation: rows stream straight into
        the consumer.  Duplicates are possible — set semantics dedupe
        them downstream, so the materialized relation may be smaller
        than ``count``.
        """
        for _ in range(count):
            yield tuple(
                self._random_value(spec, attribute.domain.name)
                for attribute in relation.attributes
            )

    def scaled_instance(
        self,
        spec: WorkloadSpec,
        db_schema: DatabaseSchema,
        rows_per_relation: Union[int, Mapping[str, int]],
        backend: Optional["ExecutionBackend"] = None,
    ) -> Database:
        """A random instance with per-relation row counts.

        Unlike :meth:`instance` (which reads ``spec.rows_per_relation``
        uniformly), this scales each relation independently — an int
        applies one count to every relation, a mapping sets counts per
        relation name (missing names fall back to the spec) — and
        streams rows from :meth:`iter_rows` instead of materializing
        intermediate lists.  When ``backend`` is given, the finished
        database is bulk-loaded into it before returning (the SQL
        backends chunk their inserts, so this is how 10^6-row stores
        are populated without a giant parameter list).
        """
        instances: Dict[str, Iterable[Row]] = {}
        for rel in db_schema:
            if isinstance(rows_per_relation, int):
                count = rows_per_relation
            else:
                count = rows_per_relation.get(
                    rel.name, spec.rows_per_relation
                )
            instances[rel.name] = self.iter_rows(spec, rel, count)
        database = build_database(list(db_schema), instances)
        if backend is not None:
            backend.load(database)
        return database

    # ------------------------------------------------------------------
    # views and queries
    # ------------------------------------------------------------------

    def view(self, spec: WorkloadSpec, db_schema: DatabaseSchema,
             name: str, attempts: int = 20) -> ViewDefinition:
        """A random safe conjunctive view."""
        for _ in range(attempts):
            try:
                candidate = self._expression(spec, db_schema, name)
                from repro.calculus.normalize import normalize_view

                normalize_view(candidate, db_schema)
                return candidate
            except SafetyError:
                continue
        # Fall back to a trivially safe full view of one relation.
        relation = self.rng.choice(list(db_schema))
        target = tuple(
            AttrRef(relation.name, a.name) for a in relation.attributes
        )
        return ViewDefinition(name, target, ())

    def query(self, spec: WorkloadSpec, db_schema: DatabaseSchema,
              attempts: int = 20) -> Query:
        """A random safe conjunctive query."""
        view = self.view(spec, db_schema, "_q", attempts)
        return Query(view.target, view.conditions)

    def _expression(self, spec: WorkloadSpec, db_schema: DatabaseSchema,
                    name: str) -> ViewDefinition:
        relations = list(db_schema)
        count = self.rng.randint(1, spec.max_view_relations)
        chosen: List[RelationSchema] = [
            self.rng.choice(relations) for _ in range(count)
        ]

        # Assign occurrence indices per relation.
        occ_counter: Dict[str, int] = {}
        occurrences: List[Tuple[RelationSchema, int]] = []
        for rel in chosen:
            occ_counter[rel.name] = occ_counter.get(rel.name, 0) + 1
            occurrences.append((rel, occ_counter[rel.name]))

        conditions: List[Condition] = []

        # Chain joins between consecutive occurrences on compatible
        # domains, so multi-relation views are connected.
        for (left, left_occ), (right, right_occ) in zip(
            occurrences, occurrences[1:]
        ):
            pairs = [
                (la, ra)
                for la in left.attributes
                for ra in right.attributes
                if la.domain.comparable_with(ra.domain)
            ]
            if not pairs:
                continue
            la, ra = self.rng.choice(pairs)
            conditions.append(Condition(
                AttrRef(left.name, la.name, left_occ),
                Comparator.EQ,
                AttrRef(right.name, ra.name, right_occ),
            ))

        # Sprinkle comparisons.
        selection_refs: List[AttrRef] = []
        for rel, occ in occurrences:
            if self.rng.random() > spec.comparison_probability:
                continue
            attribute = self.rng.choice(rel.attributes)
            ref = AttrRef(rel.name, attribute.name, occ)
            if attribute.domain is INTEGER:
                op = self.rng.choice(self._ORDER_OPS)
                bound = self.rng.randrange(spec.int_range)
                conditions.append(Condition(ref, op, ConstTerm(bound)))
            else:
                value = f"s{self.rng.randrange(spec.string_pool)}"
                op = self.rng.choice((Comparator.EQ, Comparator.NE))
                conditions.append(Condition(ref, op, ConstTerm(value)))
            selection_refs.append(ref)

        # Target list: a nonempty random subset per occurrence,
        # preferentially including the selection attributes (the
        # paper's advice) and the key (helps self-joins).
        target: List[AttrRef] = []
        for rel, occ in occurrences:
            names = [a.name for a in rel.attributes]
            take = self.rng.randint(1, len(names))
            picked = set(self.rng.sample(names, take))
            if self.rng.random() < spec.include_selection_attrs:
                picked.update(
                    r.attribute for r in selection_refs
                    if r.relation == rel.name and r.occurrence == occ
                )
                for condition in conditions:
                    for r in condition.attr_refs():
                        if r.relation == rel.name and r.occurrence == occ:
                            picked.add(r.attribute)
                picked.add(rel.key[0])
            target.extend(
                AttrRef(rel.name, n, occ) for n in names if n in picked
            )
        if not target:
            rel, occ = occurrences[0]
            target.append(AttrRef(rel.name, rel.attributes[0].name, occ))

        return ViewDefinition(name, tuple(target), tuple(conditions))

    # ------------------------------------------------------------------
    # query streams
    # ------------------------------------------------------------------

    def zipf_query_stream(
        self,
        spec: WorkloadSpec,
        db_schema: DatabaseSchema,
        distinct: int = 8,
        length: int = 100,
        skew: float = 1.2,
    ) -> List[Query]:
        """A Zipf-skewed stream over a pool of ``distinct`` queries.

        Real query traffic is heavily repetitive: a few hot statements
        dominate.  The stream samples query *rank* r with probability
        proportional to ``1 / (r+1)**skew`` — ``skew=0`` is uniform,
        larger values concentrate the mass on the head.  This is the
        workload the derivation cache is built for; see
        ``benchmarks/bench_cache.py``.
        """
        pool = [self.query(spec, db_schema) for _ in range(distinct)]
        weights = [1.0 / (rank + 1) ** skew for rank in range(distinct)]
        return [
            pool[i] for i in self.rng.choices(
                range(distinct), weights=weights, k=length
            )
        ]

    # ------------------------------------------------------------------
    # full workloads
    # ------------------------------------------------------------------

    def workload(self, spec: Optional[WorkloadSpec] = None) -> Workload:
        """Generate a complete workload: database, views, grants."""
        spec = spec or WorkloadSpec()
        db_schema = self.schema(spec)
        database = self.instance(spec, db_schema)
        catalog = PermissionCatalog(db_schema)

        views: List[ViewDefinition] = []
        for v in range(spec.views):
            view = self.view(spec, db_schema, f"V{v}")
            catalog.define_view(view)
            views.append(view)

        users = tuple(f"user{u}" for u in range(spec.users))
        for user in users:
            granted = self.rng.sample(
                views, self.rng.randint(1, len(views))
            )
            for view in granted:
                catalog.permit(view.name, user)

        return Workload(
            spec=spec,
            database=database,
            catalog=catalog,
            users=users,
            views=tuple(views),
        )

    # ------------------------------------------------------------------
    # instance mutation (for the non-interference oracle)
    # ------------------------------------------------------------------

    def mutate(self, spec: WorkloadSpec, database: Database) -> Database:
        """A copy of ``database`` with one random row edit.

        The edit may change a cell, insert a row, or delete a row; the
        oracle decides afterwards whether the user's views noticed.
        """
        schemas = list(database.schema)
        copy = build_database(
            schemas,
            {name: list(rel.rows) for name, rel in database},
        )
        relation = self.rng.choice(schemas)
        # Construction-time access: this edits the *ground truth* the
        # non-interference oracle compares against, not data shown to a
        # user, so it must not be filtered through any mask.
        rows = list(copy.instance(relation.name).rows)  # soundlint: disable=SL006 -- oracle ground truth, not user-visible data
        action = self.rng.choice(("edit", "insert", "delete"))
        if action == "edit" and rows:
            index = self.rng.randrange(len(rows))
            row = list(rows[index])
            column = self.rng.randrange(len(row))
            row[column] = self._random_value(
                spec, relation.attributes[column].domain.name
            )
            rows[index] = tuple(row)
        elif action == "delete" and rows:
            rows.pop(self.rng.randrange(len(rows)))
        else:
            rows.append(tuple(
                self._random_value(spec, a.domain.name)
                for a in relation.attributes
            ))
        copy.load(relation.name, rows)
        return copy
