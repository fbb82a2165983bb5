"""Shared machinery of the four query-processing algorithms (Chapter 4).

All algorithms follow the same two-level template:

1. a query is indexed at the **attribute level** (one side for SAI,
   both sides for the DAI family) and waits at rewriter nodes;
2. every incoming tuple is indexed at the attribute level (and, except
   under DAI-V, at the value level too);
3. a rewriter receiving a tuple triggers, rewrites and reindexes the
   stored queries toward **value-level** evaluators;
4. evaluators combine rewritten queries with tuples to create
   notifications — *when* they do so is exactly what distinguishes
   SAI / DAI-Q / DAI-T / DAI-V.

This module implements the template; the algorithm classes override the
evaluator placement and the value-level behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..chord.node import ChordNode
from ..errors import QueryError
from ..sim.messages import (
    ALIndexMessage,
    JoinMessage,
    QueryIndexMessage,
    VLIndexMessage,
)
from ..sim.stats import NodeLoad
from ..perf import PERF
from ..sql.query import JoinQuery, RewrittenGroup, rewrite, select_row
from ..sql.tuples import DataTuple
from ..sql.expr import canonical_value
from .index_choice import ArrivalStats
from .jfrt import JoinFingersRoutingTable
from .notifications import Notification
from .tables import (
    AttributeLevelQueryTable,
    ProjectionStore,
    QueryGroup,
    StoredQuery,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


def dis_key(record: RewrittenGroup) -> tuple:
    """``(relation, attribute, value)`` of the tuples ``record`` can match."""
    shape = record.shape
    return shape.relation, shape.dis_attribute or "", record.dis_value


@dataclass
class StorageBreakdown:
    """Per-node storage-load split by role (rewriter vs evaluator)."""

    attribute_level: int
    value_level: int
    parked_notifications: int

    @property
    def total(self) -> int:
        return self.attribute_level + self.value_level + self.parked_notifications


class NodeState:
    """Per-node application state attached to ``ChordNode.app``."""

    def __init__(self, node: ChordNode, jfrt_capacity: int = 0):
        self.node = node
        self.alqt = AttributeLevelQueryTable()
        self.vlqt = ValueLevelQueryTable()
        self.vltt = ValueLevelTupleTable()
        self.projections = ProjectionStore()
        #: Notifications parked for offline subscribers, keyed by
        #: subscriber identifier (routing identifier for handoff).
        self.parked: dict[int, list[Notification]] = {}
        #: Notifications delivered to this node as a subscriber.
        self.inbox: list[Notification] = []
        self.load = NodeLoad()
        #: Tuple-arrival statistics per (relation, attribute) — kept by
        #: rewriters for the index-attribute-choice probes (§4.3.6).
        self.arrivals: dict[tuple[str, str], ArrivalStats] = {}
        self.jfrt: Optional[JoinFingersRoutingTable] = (
            JoinFingersRoutingTable(jfrt_capacity) if jfrt_capacity > 0 else None
        )
        #: Identities of notifications already emitted by this node (the
        #: set semantics of answers; bookkeeping, not storage load).
        self.emitted: set[tuple[str, str, tuple]] = set()
        #: Reorder buffer: ``(relation, attribute, value)`` -> ``[(time, half)]``.
        self.held: dict[tuple, list] = {}

    def storage_breakdown(self) -> StorageBreakdown:
        """Storage load of this node, split by indexing level."""
        parked = sum(len(batch) for batch in self.parked.values())
        return StorageBreakdown(
            attribute_level=len(self.alqt),
            value_level=len(self.vlqt) + len(self.vltt) + len(self.projections),
            parked_notifications=parked,
        )

    def evict_expired(self, cutoff: float) -> int:
        """Sliding-window eviction of value-level state.

        Guarded by :meth:`~repro.core.tables.ValueLevelQueryTable.pending_before`
        peeks: eviction rounds sweep every adopted node, and on large
        rings almost all of them hold nothing old enough to evict.
        """
        total = 0
        if self.vlqt.pending_before(cutoff):
            total += self.vlqt.evict_older_than(cutoff)
        if self.vltt.pending_before(cutoff):
            total += self.vltt.evict_older_than(cutoff)
        if self.projections.pending_before(cutoff):
            total += self.projections.evict_older_than(cutoff)
        return total

    def transfer_to(self, other: "NodeState", should_move) -> int:
        """Move items whose routing identifier satisfies ``should_move``.

        Implements the application side of Chord key handoff on node
        join (partial transfer) and voluntary leave (full transfer).
        """
        moved = 0
        for stored_query in self.alqt.pop_matching(should_move):
            other.alqt.add(stored_query)
            moved += 1
        for cohort in self.vlqt.pop_matching(should_move):
            other.vlqt.insert_cohort(cohort)
            moved += len(cohort)
        for stored_tuple in self.vltt.pop_matching(should_move):
            other.vltt.add(stored_tuple)
            moved += 1
        for stored_projection in self.projections.pop_matching(should_move):
            other.projections.add(stored_projection)
            moved += 1
        for subscriber_ident in list(self.parked):
            if should_move(subscriber_ident):
                batch = self.parked.pop(subscriber_ident)
                other.parked.setdefault(subscriber_ident, []).extend(batch)
                moved += len(batch)
        return moved


class Algorithm:
    """Template base class for SAI, DAI-Q, DAI-T and DAI-V."""

    #: Short name used in configuration and reports.
    name = "base"
    #: Whether the algorithm can evaluate type-T2 queries (only DAI-V).
    supports_t2 = False
    #: Whether tuples are indexed at the value level (all but DAI-V).
    indexes_tuples_at_value_level = True
    #: DAI-Q / DAI-T: an arriving half pairs only with stored halves
    #: published no later than its trigger (the later publish answers).
    orders_pairs = False

    # ------------------------------------------------------------------
    # Query indexing
    # ------------------------------------------------------------------
    def validate_query(self, query: JoinQuery) -> None:
        """Reject queries the algorithm cannot evaluate."""
        if not self.supports_t2 and query.query_type == "T2":
            raise QueryError(
                f"{self.name} only supports type-T1 queries (both join "
                f"sides must be single attributes); use DAI-V for "
                f"{query.key or query!s}"
            )

    def index_labels(
        self, engine: "ContinuousQueryEngine", origin: ChordNode, query: JoinQuery
    ) -> list[str]:
        """Which side(s) the query is indexed under."""
        raise NotImplementedError

    def index_query(
        self,
        engine: "ContinuousQueryEngine",
        origin: ChordNode,
        query: JoinQuery,
        *,
        labels: Optional[list[str]] = None,
        refresh: bool = False,
    ) -> list[str]:
        """Route ``query(q, Id(n), IP(n))`` messages to the rewriter(s).

        With attribute-level replication the query is stored at every
        replica so that no replica misses a triggering tuple.  Returns
        the index side(s) used; lease renewals pass them back in via
        ``labels`` (with ``refresh=True``) so the soft-state refresh
        reaches exactly the rewriters chosen at subscription time.
        """
        self.validate_query(query)
        if labels is None:
            labels = self.index_labels(engine, origin, query)
        idents: list[int] = []
        messages: list[QueryIndexMessage] = []
        for label in labels:
            side = query.side(label)
            attribute = query.index_attribute(label)
            for ident in engine.replication.rewriter_identifiers(
                engine.network.hash, side.relation, attribute
            ):
                idents.append(ident)
                messages.append(
                    QueryIndexMessage(
                        query=query,
                        index_side=label,
                        routing_ident=ident,
                        refresh=refresh,
                    )
                )
        transport = engine.transport
        if len(idents) == 1:
            transport.send(origin, messages[0], idents[0])
        else:
            transport.multisend(
                origin, messages, idents, recursive=engine.config.recursive_multisend
            )
        return labels

    def on_query(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: QueryIndexMessage
    ) -> None:
        """Rewriter stores the query in its ALQT (Section 4.3.1).

        Re-installation is idempotent (the ALQT deduplicates); a lease
        renewal that actually restores a missing copy is counted as a
        crash-recovery re-install.
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        _, is_new = state.alqt.add(
            StoredQuery(msg.query, msg.index_side, msg.routing_ident)
        )
        if msg.refresh and is_new:
            state.load.lease_reinstalls += 1

    # ------------------------------------------------------------------
    # Tuple indexing (Section 4.2)
    # ------------------------------------------------------------------
    def index_tuple(
        self,
        engine: "ContinuousQueryEngine",
        origin: ChordNode,
        tup: DataTuple,
        *,
        refresh: bool = False,
    ) -> None:
        """Send the ``al-index``/``vl-index`` messages for every attribute.

        One ``multisend`` ships the full set (``2h`` identifiers, or
        ``h`` under DAI-V which skips the value level).  Crash-recovery
        republication sets ``refresh`` so receivers deduplicate instead
        of double-counting.
        """
        relation = tup.relation
        idents: list[int] = []
        messages: list[Any] = []
        for attribute in relation.attributes:
            a_ident = engine.replication.pick_identifier(
                engine.network.hash, relation.name, attribute, engine.rng
            )
            idents.append(a_ident)
            messages.append(
                ALIndexMessage(tuple=tup, index_attribute=attribute, refresh=refresh)
            )
            if self.indexes_tuples_at_value_level:
                v_ident = engine.network.hash.hash_parts(
                    relation.name, attribute, canonical_value(tup.value(attribute))
                )
                idents.append(v_ident)
                messages.append(
                    VLIndexMessage(tuple=tup, index_attribute=attribute, refresh=refresh)
                )
        engine.transport.multisend(
            origin, messages, idents, recursive=engine.config.recursive_multisend
        )

    # ------------------------------------------------------------------
    # Attribute level: trigger, rewrite, reindex (Section 4.3.2)
    # ------------------------------------------------------------------
    def on_al_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: ALIndexMessage
    ) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        tup = msg.tuple
        relation = tup.relation.name
        attribute = msg.index_attribute
        if not msg.refresh:
            stats = state.arrivals.setdefault((relation, attribute), ArrivalStats())
            stats.record(tup.value(attribute))

        groups = state.alqt.groups_for(relation, attribute)
        if not groups:
            return
        state.load.add_attribute_level(sum(len(group) for group in groups))

        batches: dict[int, tuple[list[RewrittenGroup], list[Any]]] = {}
        sent_by_group: list[tuple[QueryGroup, RewrittenGroup]] = []
        remembers = self.remembers_sent_keys(engine)
        splits = self.splits_groups(engine)
        for group in groups:
            record = rewrite(group, group.index_label, tup)
            if record is None:
                continue
            if remembers:
                # ``msg.refresh`` bypasses the never-resend memory so
                # republished tuples rebuild evaluator state lost to a crash.
                if not msg.refresh:
                    record = group.unsent(record)
                    if record is None:
                        continue
                sent_by_group.append((group, record))
            projection = None
            if self.wants_projection:
                plan = group.rewrite_plan(group.index_label)
                projection = tup.project(plan.needed_attributes)
            for shipped in record.split() if splits else (record,):
                ident = self.evaluator_ident(engine, shipped)
                batch = batches.get(ident)
                if batch is None:
                    batch = batches[ident] = ([], [])
                batch[0].append(shipped)
                if projection is not None:
                    batch[1].append(projection)
        if batches:
            self._dispatch_join_batches(engine, node, batches)
            for group, record in sent_by_group:
                group.remember(record)

    # Hooks specialized by the algorithms -------------------------------
    #: DAI-V ships, per group record, the trigger tuple projected on the
    #: union of what its members need (their select lists can differ;
    #: queries subscribed later never match it: ``pubT >= insT`` fails).
    wants_projection = False

    def remembers_sent_keys(self, engine: "ContinuousQueryEngine") -> bool:
        """DAI-T's never-resend optimization (see its docstring)."""
        return False

    def evaluator_ident(
        self, engine: "ContinuousQueryEngine", record: RewrittenGroup
    ) -> int:
        """The value-level identifier a group record is sent to:
        ``VIndex = Hash(DisR + DisA + valDA)`` (Section 4.3.2)."""
        shape = record.shape
        return engine.network.hash.hash_parts(
            shape.relation, shape.dis_attribute, record.dis_value
        )

    def splits_groups(self, engine: "ContinuousQueryEngine") -> bool:
        """Whether members of one group go to different evaluators.  They
        do not — "for the same incoming tuple all similar queries will
        require the same evaluator" (§4.3.5) — except under keyed DAI-V."""
        return False

    def _dispatch_join_batches(
        self,
        engine: "ContinuousQueryEngine",
        node: ChordNode,
        batches: dict[int, tuple[list[RewrittenGroup], list[Any]]],
    ) -> None:
        """Ship one ``join()`` message per evaluator (grouping, §4.3.5).

        Identifiers with a valid JFRT entry are served in one hop; the
        rest travel in a single recursive ``multisend`` whose answers
        refresh the JFRT.
        """
        state = engine.state(node)
        transport = engine.transport
        routed_idents: list[int] = []
        routed_messages: list[JoinMessage] = []
        for ident, (records, projections) in batches.items():
            message = JoinMessage(
                rewritten=tuple(records), projections=tuple(projections)
            )
            cached = state.jfrt.lookup(ident) if state.jfrt is not None else None
            if cached is not None:
                transport.send_direct(node, message, cached)
            else:
                routed_idents.append(ident)
                routed_messages.append(message)
        if routed_idents:
            targets = transport.multisend(
                node,
                routed_messages,
                routed_idents,
                recursive=engine.config.recursive_multisend,
            )
            if state.jfrt is not None:
                for ident, target in zip(routed_idents, targets):
                    state.jfrt.learn(ident, target)

    # ------------------------------------------------------------------
    # Value level (specialized per algorithm)
    # ------------------------------------------------------------------
    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        raise NotImplementedError

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared value-level helpers
    # ------------------------------------------------------------------
    def _notify(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        record: RewrittenGroup,
        tuples: list,
        trigger_time: float,
    ) -> list[Notification]:
        """One notification per (member of ``record``, tuple) pair whose
        tuple is not older than the member (``pubT >= insT``) and whose
        identity this node has not emitted yet.

        ``tuples`` already passed everything the members share; what is
        left differs per member.  The answer row depends only on the
        member's select list, so it is built once per (select list,
        tuple) — and only once a member passes the time test: a DAI-V
        projection stored before a member subscribed may lack the
        attributes that member selects (see ``wants_projection``).  No
        member is expanded to a flat query.
        """
        perf = PERF.enabled
        emitted = state.emitted
        value_repr = repr(record.required_value)
        created_at = engine.clock.now
        rows_by_select: dict[int, list[Optional[tuple]]] = {}
        notifications = []
        for member in record.shape.members:
            select_index = member.select_index
            rows = rows_by_select.get(select_index)
            if rows is None:
                rows = rows_by_select[select_index] = [None] * len(tuples)
            query_key = member.query_key
            insertion_time = member.insertion_time
            for position, tup in enumerate(tuples):
                if tup.pub_time < insertion_time:
                    if perf:
                        PERF.count("evaluator.rejected.time")
                    continue
                row = rows[position]
                if row is None:
                    row = rows[position] = select_row(record.selects[select_index], tup)
                identity = (query_key, value_repr, row)
                if identity in emitted:
                    if perf:
                        PERF.count("evaluator.rejected.repeat")
                    continue
                emitted.add(identity)
                notifications.append(
                    Notification(
                        query_key=query_key,
                        subscriber_ident=member.subscriber.ident,
                        row=row,
                        join_value_repr=value_repr,
                        trigger_pub_time=trigger_time,
                        match_pub_time=tup.pub_time,
                        created_at=created_at,
                    )
                )
        state.load.notifications_created += len(notifications)
        return notifications

    def _match_rewritten_against_tuples(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        record: RewrittenGroup,
        tuples: Optional[list] = None,
    ) -> list[Notification]:
        """Evaluate the members of ``record`` against ``tuples``, by
        default the stored dis-side tuples (VLTT; under DAI-V the stored
        projections; :attr:`orders_pairs`: none published after the trigger).

        Window, filters and, for projections, the join value (which
        makes identifier collisions harmless) are checked once per
        candidate for the whole record, so an empty bucket costs O(1).
        TF still counts every (member, candidate) pair.
        """
        check_value = self.wants_projection
        shape = record.shape
        trigger_time = record.trigger_pub_time
        if tuples is None and check_value:
            tuples = [
                stored.projection
                for stored in state.projections.candidates(
                    shape.group_signature, shape.relation, record.required_value
                )
            ]
        elif tuples is None:
            latest = trigger_time if self.orders_pairs else math.inf
            tuples = [
                stored.tuple
                for stored in state.vltt.candidates(
                    shape.relation, shape.dis_attribute or "", record.dis_value
                )
                if stored.tuple.pub_time <= latest
            ]
        pairs = len(shape.members)
        state.load.add_value_level(len(tuples) * pairs)
        perf = PERF.enabled
        window = engine.config.window
        checked = check_value or shape.filters
        live = []
        for tup in tuples:
            if window is not None and abs(trigger_time - tup.pub_time) > window:
                if perf:
                    PERF.count("evaluator.rejected.window", pairs)
            elif checked and not record.accepts(tup, check_value=check_value):
                if perf:
                    PERF.count("evaluator.rejected.filter", pairs)
            else:
                live.append(tup)
        if not live:
            return []
        return self._notify(engine, state, record, live, trigger_time)

    def _match_tuple_against_rewritten(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        tup: DataTuple,
        attribute: str,
    ) -> list[Notification]:
        """Evaluate an arriving tuple against the local VLQT (under
        :attr:`orders_pairs` the cohorts first triggered no later than it):
        window, filters once per cohort, the rest per member; TF: members."""
        cohorts = state.vlqt.candidates(
            tup.relation.name, attribute, tup.value(attribute)
        )
        perf = PERF.enabled
        window = engine.config.window
        pub_time = tup.pub_time
        if self.orders_pairs:
            cohorts = [c for c in cohorts if c.record.trigger_pub_time <= pub_time]
        live = [tup]
        examined = 0
        notifications = []
        for cohort in cohorts:
            record = cohort.record
            shape = record.shape
            examined += len(shape.members)
            trigger_time = cohort.latest_trigger_time
            if window is not None and abs(pub_time - trigger_time) > window:
                if perf:
                    PERF.count("evaluator.rejected.window", len(cohort))
            elif shape.filters and not record.accepts(tup, check_value=False):
                if perf:
                    # Counted as a per-member test would: time before filter.
                    for member in shape.members:
                        PERF.count(
                            "evaluator.rejected.time"
                            if pub_time < member.insertion_time
                            else "evaluator.rejected.filter"
                        )
            else:
                notifications.extend(
                    self._notify(engine, state, record, live, trigger_time)
                )
        state.load.add_value_level(examined)
        return notifications
