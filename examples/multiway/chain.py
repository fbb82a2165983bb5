"""N-way chain join queries: the query model of the pipeline.

A :class:`MultiwayQuery` joins ``n >= 2`` relations with ``n - 1``
equality conditions over bare attributes, plus optional local filters.
The join graph must be a **path** (a chain): every relation connects to
at most two others, so the pipeline order is unambiguous.  The text is
parsed by the library's one SQL grammar (:func:`repro.sql.parser.parse_clauses`);
only the chain rules live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import QueryError, Schema
from repro.sql import AttrRef, Expression, LocalFilter
from repro.sql.parser import parse_clauses


@dataclass(frozen=True)
class ChainCondition:
    """One equality ``R.x = S.y`` between two relations of the chain."""

    left: AttrRef
    right: AttrRef

    def relations(self) -> frozenset[str]:
        return frozenset((self.left.relation, self.right.relation))

    def attribute_for(self, relation: str) -> str:
        if self.left.relation == relation:
            return self.left.attribute
        if self.right.relation == relation:
            return self.right.attribute
        raise QueryError(f"condition {self} does not involve {relation}")

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class MultiwayQuery:
    """An N-way chain equi-join.

    ``relations`` is ordered along the chain; ``conditions[k]`` links
    ``relations[k]`` with ``relations[k + 1]``.
    """

    select: tuple[AttrRef, ...]
    relations: tuple[str, ...]
    conditions: tuple[ChainCondition, ...]
    filters: dict[str, tuple[LocalFilter, ...]]

    def __post_init__(self):
        if len(self.relations) < 2:
            raise QueryError("a multiway query needs at least two relations")
        if len(self.conditions) != len(self.relations) - 1:
            raise QueryError(
                f"a chain over {len(self.relations)} relations needs exactly "
                f"{len(self.relations) - 1} join conditions"
            )
        for ref in self.select:
            if ref.relation not in self.relations:
                raise QueryError(
                    f"select attribute {ref} references a relation outside FROM"
                )

    def filters_for(self, relation: str) -> tuple[LocalFilter, ...]:
        return self.filters.get(relation, ())

    def condition_for_step(self, step: int) -> ChainCondition:
        """The condition joining ``relations[step + 1]`` to the prefix."""
        return self.conditions[step]

    def __str__(self) -> str:
        select = ", ".join(str(ref) for ref in self.select)
        conjuncts = [str(c) for c in self.conditions]
        for relation in self.relations:
            conjuncts.extend(f"{relation}.{f}" for f in self.filters_for(relation))
        return (
            f"SELECT {select} FROM {', '.join(self.relations)} "
            f"WHERE {' AND '.join(conjuncts)}"
        )


def _order_chain(
    relations: tuple[str, ...], raw_conditions: tuple[tuple[Expression, Expression], ...]
) -> tuple[tuple[str, ...], tuple[ChainCondition, ...]]:
    """Order the relations along the join path.

    Builds the join graph, verifies it is a simple path covering every
    relation, and returns (ordered relations, conditions in step order).
    """
    conditions: list[ChainCondition] = []
    for left, right in raw_conditions:
        if not (isinstance(left, AttrRef) and isinstance(right, AttrRef)):
            raise QueryError(
                "multiway join conditions must be bare attribute equalities"
            )
        conditions.append(ChainCondition(left, right))

    adjacency: dict[str, list[ChainCondition]] = {name: [] for name in relations}
    seen_pairs: set[frozenset[str]] = set()
    for condition in conditions:
        pair = condition.relations()
        if len(pair) != 2:
            raise QueryError(f"condition {condition} must span two relations")
        if pair in seen_pairs:
            raise QueryError(f"duplicate join condition between {sorted(pair)}")
        seen_pairs.add(pair)
        for name in pair:
            adjacency[name].append(condition)

    degrees = {name: len(edges) for name, edges in adjacency.items()}
    if any(degree == 0 for degree in degrees.values()):
        raise QueryError("join graph is disconnected")
    if any(degree > 2 for degree in degrees.values()):
        raise QueryError(
            "join graph must be a chain (a relation joins at most two others)"
        )
    endpoints = [name for name in relations if degrees[name] == 1]
    if len(relations) > 2 and len(endpoints) != 2:
        raise QueryError("join graph must be an acyclic chain")

    # Walk the path from a deterministic endpoint (FROM-clause order).
    current = endpoints[0] if len(relations) > 2 else relations[0]
    ordered = [current]
    ordered_conditions: list[ChainCondition] = []
    used: set[frozenset[str]] = set()
    while len(ordered) < len(relations):
        step = next(
            (c for c in adjacency[current] if c.relations() not in used), None
        )
        if step is None:
            raise QueryError("join graph is disconnected")
        used.add(step.relations())
        current = next(name for name in step.relations() if name != current)
        ordered.append(current)
        ordered_conditions.append(step)
    return tuple(ordered), tuple(ordered_conditions)


def parse_multiway_query(
    text: str, schema: Optional[Schema] = None
) -> MultiwayQuery:
    """Parse an N-way chain join (same SQL dialect, ``n >= 2`` relations).

    >>> q = parse_multiway_query(
    ...     "SELECT R.A, T.Z FROM R, S, T WHERE R.B = S.E AND S.F = T.Y"
    ... )
    >>> q.relations
    ('R', 'S', 'T')
    """
    clauses = parse_clauses(text, schema)
    relations, conditions = _order_chain(clauses.relations, clauses.join_conjuncts)
    return MultiwayQuery(clauses.select, relations, conditions, clauses.filters)
