"""Continuous N-way chain joins via two-way pipelines.

The paper evaluates two-way joins and names multi-way joins as future
work; the authors' follow-up evaluates them by decomposing the join
into a pipeline of two-way joins whose **intermediate results are
re-published into the network**.  This module implements that strategy
as a client of the unmodified two-way engine's public API:

* an N-way chain ``R1 ⋈ R2 ⋈ ... ⋈ Rn`` becomes ``n - 1`` ordinary
  two-way continuous queries;
* stage ``k`` joins the intermediate relation ``I_{k-1}`` (or ``R1``
  for the first stage) with ``R_{k+1}``;
* the subscriber node acts as the **pipeline coordinator**: whenever a
  stage query delivers a new answer row
  (:meth:`~repro.ContinuousQueryEngine.add_notification_listener`), the
  coordinator publishes it as a tuple of the next intermediate
  relation, which flows through the standard tuple-indexing machinery
  and triggers the next stage.

Every stage query is type T1 (bare attribute equalities), so the
pipeline runs under any of the four algorithms.  Limitations, by
design of the strategy:

* intermediate relation names carry the pipeline's ordinal on its
  engine, so intermediate streams of different pipelines never
  interfere (and never group — the cost the follow-up paper optimizes);
* sliding windows are rejected: an intermediate tuple's publication
  time is the pipeline's reaction time, not its constituents' times,
  which would skew window semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union
from weakref import WeakKeyDictionary

from repro import (
    ChordNode,
    ContinuousQueryEngine,
    DataTuple,
    JoinQuery,
    Notification,
    QueryError,
    Relation,
    Schema,
)
from repro.sql import AttrRef, QuerySide

from .chain import MultiwayQuery, parse_multiway_query

#: Per engine, a counter of the pipelines built on it.  The ordinal names
#: a pipeline's intermediate relations, and those names decide where
#: their rewriters and evaluators hash to: a sequence of calls gives the
#: same names, hence the same traffic, in every process, and a pipeline
#: subscribed after another was cancelled still gets names of its own.
_ORDINALS: WeakKeyDictionary = WeakKeyDictionary()


@dataclass
class MultiwaySubscription:
    """A running N-way pipeline and its accumulated answers."""

    key: str
    query: MultiwayQuery
    coordinator: ChordNode
    engine: ContinuousQueryEngine
    #: The internal two-way stage queries, in pipeline order.
    stage_queries: list[JoinQuery]
    #: Intermediate relations fed by the coordinator (one per non-final
    #: stage).
    intermediate_relations: list[Relation]
    #: Final answer rows, in the user's SELECT order.
    results: set[tuple[Any, ...]] = field(default_factory=set)
    #: Final notifications, in delivery order.
    notifications: list[Notification] = field(default_factory=list)
    #: Intermediate tuples re-published into the network, per stage.
    republished: list[int] = field(default_factory=list)

    def cancel(self) -> None:
        """Best-effort teardown of every stage subscription."""
        for stage_query in self.stage_queries:
            if stage_query.key in self.engine.queries:
                self.engine.unsubscribe(self.coordinator, stage_query)


def _intermediate_attr(relation: str, attribute: str) -> str:
    """Attribute name of a base attribute inside an intermediate relation."""
    return f"{relation}__{attribute}"


class _PipelineBuilder:
    """Builds the stage queries and wires the coordinator callbacks."""

    def __init__(
        self,
        engine: ContinuousQueryEngine,
        origin: ChordNode,
        query: MultiwayQuery,
    ):
        if engine.config.window is not None:
            raise QueryError(
                "multiway pipelines require an unbounded window (intermediate "
                "publication times would skew sliding-window semantics)"
            )
        self.engine = engine
        self.origin = origin
        self.query = query
        self.ordinal = next(_ORDINALS.setdefault(engine, itertools.count()))

    # ------------------------------------------------------------------
    def build(self) -> MultiwaySubscription:
        path = self.query.relations
        stage_queries: list[JoinQuery] = []
        intermediates: list[Relation] = []

        for step in range(len(path) - 1):
            select = self._stage_select(step, intermediates)
            stage_query = JoinQuery(
                select=select,
                left=self._left_side(step, intermediates),
                right=self._right_side(step),
            )
            stage_queries.append(stage_query)
            if step < len(path) - 2:
                intermediates.append(self._intermediate_relation(step, select))

        # Subscribe every stage *before* wiring listeners so all stages
        # share one insertion time (tuples older than the subscription
        # never count, per the paper's time semantics).
        bound_queries = [
            self.engine.subscribe(self.origin, stage_query)
            for stage_query in stage_queries
        ]
        subscription = MultiwaySubscription(
            key=bound_queries[-1].key,
            query=self.query,
            coordinator=self.origin,
            engine=self.engine,
            stage_queries=bound_queries,
            intermediate_relations=intermediates,
            republished=[0] * len(intermediates),
        )

        for step, bound in enumerate(bound_queries[:-1]):
            relation = intermediates[step]
            select = stage_queries[step].select

            def republish(
                notification: Notification,
                *,
                _relation=relation,
                _select=select,
                _step=step,
            ) -> None:
                values = {
                    self._column(ref): value
                    for ref, value in zip(_select, notification.row)
                }
                subscription.republished[_step] += 1
                self.engine.publish(self.origin, _relation, values)

            self.engine.add_notification_listener(bound.key, republish)

        def collect(notification: Notification) -> None:
            subscription.results.add(notification.row)
            subscription.notifications.append(notification)

        self.engine.add_notification_listener(bound_queries[-1].key, collect)
        return subscription

    # ------------------------------------------------------------------
    def _entity_name(self, step: int, intermediates: list[Relation]) -> str:
        """The left-side relation name of stage ``step``."""
        if step == 0:
            return self.query.relations[0]
        return intermediates[step - 1].name

    def _prefix_ref(
        self, step: int, intermediates: list[Relation], relation: str, attribute: str
    ) -> AttrRef:
        """Reference a prefix attribute as seen by stage ``step``."""
        if step == 0:
            return AttrRef(relation, attribute)
        return AttrRef(
            intermediates[step - 1].name, _intermediate_attr(relation, attribute)
        )

    def _left_side(self, step: int, intermediates: list[Relation]) -> QuerySide:
        condition = self.query.condition_for_step(step)
        prefix_relation = self.query.relations[step]
        attribute = condition.attribute_for(prefix_relation)
        expr = self._prefix_ref(step, intermediates, prefix_relation, attribute)
        filters = self.query.filters_for(prefix_relation) if step == 0 else ()
        return QuerySide(self._entity_name(step, intermediates), expr, filters)

    def _right_side(self, step: int) -> QuerySide:
        condition = self.query.condition_for_step(step)
        relation = self.query.relations[step + 1]
        attribute = condition.attribute_for(relation)
        return QuerySide(
            relation, AttrRef(relation, attribute), self.query.filters_for(relation)
        )

    def _needed_from_prefix(self, step: int) -> list[tuple[str, str]]:
        """(relation, attribute) pairs of the prefix needed after stage
        ``step``: the user's select attributes plus the next chain
        condition's prefix-side attribute."""
        prefix = set(self.query.relations[: step + 2])
        needed = [
            (ref.relation, ref.attribute)
            for ref in self.query.select
            if ref.relation in prefix
        ]
        if step + 1 < len(self.query.conditions):
            next_condition = self.query.condition_for_step(step + 1)
            bridge = self.query.relations[step + 1]
            needed.append((bridge, next_condition.attribute_for(bridge)))
        return list(dict.fromkeys(needed))

    def _stage_select(
        self, step: int, intermediates: list[Relation]
    ) -> tuple[AttrRef, ...]:
        path = self.query.relations
        if step == len(path) - 2:  # final stage: the user's rows directly
            needed = [(ref.relation, ref.attribute) for ref in self.query.select]
        else:
            needed = self._needed_from_prefix(step)
        return tuple(
            AttrRef(relation, attribute)
            if relation == path[step + 1]
            else self._prefix_ref(step, intermediates, relation, attribute)
            for relation, attribute in needed
        )

    def _column(self, ref: AttrRef) -> str:
        """The name a stage's select item takes in an intermediate relation."""
        if ref.relation in self.query.relations:
            return _intermediate_attr(ref.relation, ref.attribute)
        return ref.attribute

    def _intermediate_relation(
        self, step: int, select: tuple[AttrRef, ...]
    ) -> Relation:
        names = dict.fromkeys(self._column(ref) for ref in select)
        return Relation(f"I{step}_{self.ordinal}", tuple(names))


def subscribe_multiway(
    engine: ContinuousQueryEngine,
    origin: ChordNode,
    query: Union[str, MultiwayQuery],
    schema: Optional[Schema] = None,
) -> MultiwaySubscription:
    """Install an N-way chain join as a two-way pipeline.

    Returns a :class:`MultiwaySubscription`; answer rows accumulate in
    ``subscription.results`` as matching tuples stream in.  Two-relation
    queries degrade gracefully to a single ordinary stage.
    """
    if isinstance(query, str):
        query = parse_multiway_query(query, schema)
    return _PipelineBuilder(engine, origin, query).build()


def brute_force_rows(
    query: MultiwayQuery,
    tuples: Iterable[DataTuple],
    insertion_time: float = 0.0,
) -> set[tuple[Any, ...]]:
    """Ground-truth answer set of an N-way chain (testing oracle).

    Nested-loop over all relation combinations: every constituent tuple
    must satisfy ``pubT >= insertion_time`` and its relation's filters,
    and every chain condition must hold.
    """
    by_relation: dict[str, list[DataTuple]] = {name: [] for name in query.relations}
    for tup in tuples:
        name = tup.relation.name
        if name not in by_relation or tup.pub_time < insertion_time:
            continue
        if all(f.holds(tup) for f in query.filters_for(name)):
            by_relation[name].append(tup)

    rows: set[tuple[Any, ...]] = set()

    def extend(step: int, chosen: dict[str, DataTuple]) -> None:
        if step == len(query.relations):
            row = tuple(
                chosen[ref.relation].value(ref.attribute) for ref in query.select
            )
            rows.add(row)
            return
        relation = query.relations[step]
        for candidate in by_relation[relation]:
            if step > 0:
                condition = query.condition_for_step(step - 1)
                previous = query.relations[step - 1]
                left_value = chosen[previous].value(condition.attribute_for(previous))
                right_value = candidate.value(condition.attribute_for(relation))
                if left_value != right_value:
                    continue
            chosen[relation] = candidate
            extend(step + 1, chosen)
            del chosen[relation]

    extend(0, {})
    return rows
