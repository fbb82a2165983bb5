"""Workload generation: continuous queries and tuple streams.

The standard experiment shape (Chapter 5, reconstructed from the list
of figures) is:

1. build a network of ``N`` nodes;
2. install ``|Q|`` continuous T1 queries over a two-relation schema;
3. stream ``T`` tuples whose attribute values follow a skewed (Zipf)
   distribution, with the two relations' arrival rates balanced by the
   ``bos`` (balance-of-streams) ratio;
4. measure traffic and per-node load.

:class:`WorkloadGenerator` draws the random queries and tuples;
:func:`build_workload` assembles them into a timestamped
:class:`Workload` that the harness replays against an engine (and,
in tests, against the centralized oracle).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Literal, Optional

from ..sql.expr import AttrRef, BinaryOp, Const
from ..sql.query import JoinQuery, LocalFilter, QuerySide
from ..sql.schema import Relation, Schema
from .distributions import PermutedZipf, UniformValues, ValueDistribution
from .schema_gen import synthetic_schema


@dataclass(frozen=True)
class WorkloadEvent:
    """One timestamped workload action."""

    time: float
    kind: Literal["query", "tuple"]
    #: ``JoinQuery`` template for queries; ``(Relation, values)`` for tuples.
    payload: Any


@dataclass
class Workload:
    """A replayable script of query subscriptions and tuple insertions."""

    schema: Schema
    events: list[WorkloadEvent]
    params: "WorkloadParams"

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_queries(self) -> int:
        return sum(1 for event in self.events if event.kind == "query")

    @property
    def n_tuples(self) -> int:
        return sum(1 for event in self.events if event.kind == "tuple")


@dataclass
class WorkloadParams:
    """Knobs of the synthetic workload (defaults follow DESIGN.md §4)."""

    n_queries: int = 1000
    n_tuples: int = 2000
    n_relations: int = 2
    attributes_per_relation: int = 4
    domain_size: int = 500
    #: Zipf exponent of attribute values; 0 = uniform.
    zipf_s: float = 0.9
    #: Balance-of-streams ratio: tuples of R0 per tuple of R1 ([R]
    #: reconstruction of the paper's "bos ratio", see DESIGN.md).
    bos_ratio: float = 1.0
    #: Probability a query carries one local equality filter.
    filter_probability: float = 0.0
    #: Fraction of generated queries that are type T2 (DAI-V only).
    t2_fraction: float = 0.0
    #: Simulated time between consecutive tuple insertions.
    tuple_interval: float = 1.0
    #: Simulated time between consecutive query subscriptions.
    query_interval: float = 0.0
    #: Tuples streamed *before* any query is installed, so the
    #: rate-probing index-choice strategies (Section 4.3.6) see real
    #: arrival statistics at subscription time.
    warmup_tuples: int = 0
    seed: int = 0


class WorkloadGenerator:
    """Draws random T1/T2 queries and tuples over a schema."""

    def __init__(
        self,
        schema: Schema,
        params: WorkloadParams,
        rng: Optional[random.Random] = None,
    ):
        self.schema = schema
        self.params = params
        self.rng = rng if rng is not None else random.Random(params.seed)
        self._distributions: dict[tuple[str, str], ValueDistribution] = {}

    # ------------------------------------------------------------------
    # Value sampling
    # ------------------------------------------------------------------
    def distribution_for(self, relation: str, attribute: str) -> ValueDistribution:
        """The (cached) value distribution of one attribute.

        Each attribute gets its own permutation of the Zipf ranks so
        hotspots are de-correlated across attributes, while joined
        attributes still share the same integer domain.
        """
        key = (relation, attribute)
        if key not in self._distributions:
            if self.params.zipf_s <= 0:
                self._distributions[key] = UniformValues(self.params.domain_size)
            else:
                # zlib.crc32 is a stable hash (unlike builtin ``hash``,
                # which is randomized per process) so workloads are
                # reproducible across runs.
                permutation_seed = zlib.crc32(f"{relation}.{attribute}".encode())
                self._distributions[key] = PermutedZipf(
                    self.params.domain_size,
                    s=self.params.zipf_s,
                    permutation_seed=permutation_seed,
                )
        return self._distributions[key]

    def random_tuple_values(self, relation: Relation) -> dict[str, int]:
        """Random values for one tuple of ``relation``."""
        return {
            attribute: self.distribution_for(relation.name, attribute).sample(self.rng)
            for attribute in relation.attributes
        }

    # ------------------------------------------------------------------
    # Query sampling
    # ------------------------------------------------------------------
    def _pick_relations(self) -> tuple[Relation, Relation]:
        left, right = self.rng.sample(self.schema.names, 2)
        return self.schema.relation(left), self.schema.relation(right)

    def random_t1_query(self) -> JoinQuery:
        """A random type-T1 query: ``SELECT ... WHERE R.x = S.y``."""
        left_rel, right_rel = self._pick_relations()
        left_attr = self.rng.choice(left_rel.attributes)
        right_attr = self.rng.choice(right_rel.attributes)
        select = (
            AttrRef(left_rel.name, self.rng.choice(left_rel.attributes)),
            AttrRef(right_rel.name, self.rng.choice(right_rel.attributes)),
        )
        left_filters = self._maybe_filter(left_rel)
        right_filters = self._maybe_filter(right_rel)
        return JoinQuery(
            select=select,
            left=QuerySide(left_rel.name, AttrRef(left_rel.name, left_attr), left_filters),
            right=QuerySide(
                right_rel.name, AttrRef(right_rel.name, right_attr), right_filters
            ),
        )

    def random_t2_query(self) -> JoinQuery:
        """A random type-T2 query with small linear expressions.

        Shapes like ``a * R.x + b = S.y + S.z`` keep the value ranges of
        the two sides overlapping so notifications actually occur.
        """
        left_rel, right_rel = self._pick_relations()
        left_attr = self.rng.choice(left_rel.attributes)
        coefficient = self.rng.randint(1, 3)
        offset = self.rng.randint(0, 5)
        left_expr = BinaryOp(
            "+",
            BinaryOp("*", Const(coefficient), AttrRef(left_rel.name, left_attr)),
            Const(offset),
        )
        right_attrs = self.rng.sample(
            right_rel.attributes, k=min(2, len(right_rel.attributes))
        )
        right_expr = AttrRef(right_rel.name, right_attrs[0])
        for attribute in right_attrs[1:]:
            right_expr = BinaryOp(
                "+", right_expr, AttrRef(right_rel.name, attribute)
            )
        select = (
            AttrRef(left_rel.name, self.rng.choice(left_rel.attributes)),
            AttrRef(right_rel.name, self.rng.choice(right_rel.attributes)),
        )
        return JoinQuery(
            select=select,
            left=QuerySide(left_rel.name, left_expr),
            right=QuerySide(right_rel.name, right_expr),
        )

    def random_query(self) -> JoinQuery:
        """T1 or T2 according to ``params.t2_fraction``."""
        if self.rng.random() < self.params.t2_fraction:
            return self.random_t2_query()
        return self.random_t1_query()

    def _maybe_filter(self, relation: Relation) -> tuple[LocalFilter, ...]:
        if self.rng.random() >= self.params.filter_probability:
            return ()
        attribute = self.rng.choice(relation.attributes)
        value = self.distribution_for(relation.name, attribute).sample(self.rng)
        return (LocalFilter(attribute, value),)

    # ------------------------------------------------------------------
    # Tuple stream
    # ------------------------------------------------------------------
    def pick_stream_relation(self) -> Relation:
        """The relation of the next stream tuple, honouring ``bos_ratio``.

        With two relations, ``bos_ratio = r`` makes R0 tuples ``r``
        times as frequent as R1 tuples.  Additional relations (if any)
        share R1's rate.
        """
        names = self.schema.names
        if len(names) == 2:
            probability_first = self.params.bos_ratio / (1.0 + self.params.bos_ratio)
            name = names[0] if self.rng.random() < probability_first else names[1]
            return self.schema.relation(name)
        weights = [self.params.bos_ratio] + [1.0] * (len(names) - 1)
        return self.schema.relation(self.rng.choices(names, weights=weights, k=1)[0])


def iter_workload_events(
    params: WorkloadParams, schema: Schema
) -> Iterator[WorkloadEvent]:
    """Stream the standard experiment workload one event at a time.

    Queries are installed first (at ``query_interval`` spacing), then
    tuples stream in at ``tuple_interval`` spacing — matching the
    paper's continuous-query semantics where only tuples published
    after a subscription can trigger it.

    The RNG draw order is exactly that of :func:`build_workload` (which
    delegates here), so the streamed sequence is element-for-element
    identical to the materialized one; large-scale sweeps iterate this
    directly and never hold millions of :class:`WorkloadEvent` objects
    at once (:func:`repro.sim.shard.run_sharded` takes it an epoch at a
    time).
    """
    generator = WorkloadGenerator(schema, params)
    now = 0.0
    for _ in range(params.warmup_tuples):
        relation = generator.pick_stream_relation()
        values = generator.random_tuple_values(relation)
        yield WorkloadEvent(now, "tuple", (relation, values))
        now += params.tuple_interval
    for _ in range(params.n_queries):
        yield WorkloadEvent(now, "query", generator.random_query())
        now += params.query_interval
    now += 1.0  # queries precede the stream
    for _ in range(params.n_tuples):
        relation = generator.pick_stream_relation()
        values = generator.random_tuple_values(relation)
        yield WorkloadEvent(now, "tuple", (relation, values))
        now += params.tuple_interval


def build_workload(
    params: WorkloadParams, schema: Optional[Schema] = None
) -> Workload:
    """Assemble the standard experiment workload as a replayable list.

    Thin materializing wrapper over :func:`iter_workload_events`; use
    the iterator directly when the workload is too large to hold.
    """
    if schema is None:
        schema = synthetic_schema(
            params.n_relations, params.attributes_per_relation
        )
    return Workload(
        schema=schema,
        events=list(iter_workload_events(params, schema)),
        params=params,
    )
