"""The continuous-query engine: algorithms wired onto a Chord network.

:class:`ContinuousQueryEngine` is the public entry point of the
library.  It attaches per-node state to every node of a
:class:`~repro.chord.network.ChordNetwork`, registers the protocol
message handlers, and exposes the operations of the paper's system
model (Section 3.1): any node can **subscribe** continuous queries and
**publish** tuples; the network cooperates to deliver notifications.

Typical use::

    network = ChordNetwork.build(256)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-t"))
    node = network.nodes[0]
    query = engine.subscribe(node, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
    engine.publish(network.nodes[1], relation_r, {"A": 1, "B": 7})
    engine.publish(network.nodes[2], relation_s, {"D": 2, "E": 7})
    engine.notifications(node)   # -> one notification, row (1, 2)
"""

from __future__ import annotations

import heapq
import itertools
import logging
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Mapping, Optional, Union

from ..chord.network import ChordNetwork
from ..chord.node import ChordNode
from ..errors import QueryError
from ..perf import PERF
from ..sim.clock import LogicalClock
from ..sim.messages import NotificationMessage, UnsubscribeMessage
from ..sql.parser import parse_query
from ..sql.query import JoinQuery, Subscriber
from ..sql.schema import Relation, Schema
from ..sql.tuples import DataTuple
from .base import Algorithm, NodeState
from .dai_q import DAIQuery
from .dai_t import DAITuple
from .dai_v import DAIValue
from .index_choice import make_strategy
from .metrics import LoadSnapshot, snapshot
from .notifications import Notification, group_by_subscriber
from .replication import ReplicationScheme
from .sai import SingleAttributeIndex

#: One INFO record per full lease refresh, naming its cause (silent by default).
logger = logging.getLogger("repro.core")
logger.addHandler(logging.NullHandler())

#: Registry of the four algorithms by configuration name.
ALGORITHMS: dict[str, type[Algorithm]] = {
    SingleAttributeIndex.name: SingleAttributeIndex,
    DAIQuery.name: DAIQuery,
    DAITuple.name: DAITuple,
    DAIValue.name: DAIValue,
}


def make_algorithm(name: str) -> Algorithm:
    """Instantiate an algorithm by name (``sai``, ``dai-q``, ``dai-t``,
    ``dai-v``)."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise QueryError(
            f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None


@dataclass
class EngineConfig:
    """Tunable behaviour of the engine.

    Defaults reproduce the paper's baseline setting: SAI with the
    min-rate index-attribute choice, no replication, no JFRT, unbounded
    window, recursive ``multisend``.
    """

    algorithm: str = "sai"
    #: SAI index-attribute strategy: random | min-rate | max-rate | uniformity.
    index_choice: str = "min-rate"
    #: Attribute-level rewriter replication factor (Section 4.7.2); 1 = off.
    replication_factor: int = 1
    #: JFRT capacity per rewriter (Section 4.7.1); 0 disables the cache.
    jfrt_capacity: int = 0
    #: Sliding window over tuple publication times; ``None`` = unbounded.
    window: Optional[float] = None
    #: Use the recursive multisend (Section 2.3); False = iterative.
    recursive_multisend: bool = True
    #: DAI-V keyed variant (``Hash(Key(q) + valJC)``, Section 4.5 end).
    daiv_keyed: bool = False
    seed: int = 0


class ContinuousQueryEngine:
    """Continuous two-way equi-join processing over a Chord overlay."""

    def __init__(
        self,
        network: ChordNetwork,
        config: EngineConfig | None = None,
        clock: LogicalClock | None = None,
    ):
        self.network = network
        self.config = config if config is not None else EngineConfig()
        self.clock = clock if clock is not None else LogicalClock()
        self.rng = random.Random(self.config.seed)
        self.algorithm = make_algorithm(self.config.algorithm)
        self.replication = ReplicationScheme(self.config.replication_factor)
        self.index_choice = make_strategy(self.config.index_choice)
        self._query_counter = itertools.count()
        #: Queries by key, as bound at subscription time.
        self.queries: dict[str, JoinQuery] = {}
        #: Index side(s) chosen for each query at subscription time —
        #: lease renewals and unsubscription replay exactly this choice
        #: instead of re-running the (possibly randomized) strategy.
        self._query_labels: dict[str, list[str]] = {}
        #: Subscriber node by identifier, for direct delivery.
        self._subscriber_nodes: dict[int, ChordNode] = {}
        #: Online/offline presence per subscriber identifier.
        self._presence: dict[int, bool] = {}
        #: Publication log in ``pub_time`` order — the soft-state source
        #: for crash-recovery republication (publishers are assumed to
        #: keep their own tuples, as in the paper's best-effort model).
        self._publications: list[DataTuple] = []
        #: Notifications by query key, in delivery order.
        self.delivered: dict[str, list[Notification]] = {}
        self._delivered_identities: dict[str, set] = {}
        #: Notifications whose identity had already been delivered
        #: (should stay 0; tracked for the duplicate-avoidance claims).
        self.duplicate_deliveries = 0
        #: Re-created notifications filtered before the network hop
        #: because the subscriber already holds the identity (the
        #: crash-recovery duplicate-suppression path).
        self.suppressed_renotifications = 0
        #: Callbacks fired on first delivery of each answer identity,
        #: keyed by query key (used by the multiway-join pipeline).
        self._notification_listeners: dict[str, list] = {}
        #: Interception point for sharded execution: when set, evaluator
        #: output is handed to ``gateway(from_node, notifications)``
        #: instead of being shipped, so a driver can resolve
        #: duplicate-suppression in global order at a barrier (see
        #: :mod:`repro.sim.shard`).
        self.notification_gateway = None
        #: ``(time, seq, state, key)`` per held half, oldest first.
        self._holds: list = []
        self._hold_seq = itertools.count()
        self._held_peak = 0
        #: Membership generation and losses when the last refresh started.
        self._refreshed_at = (network._membership_generation, network.losses)
        #: Every node state this engine ever attached, by identifier.
        #: Window eviction iterates this registry instead of the whole
        #: ring, so lazily adopted million-node networks pay per
        #: *touched* node, not per member (see :meth:`adopted_states`).
        self._adopted: dict[int, NodeState] = {}
        #: The protocol handlers every adopted node registers — built
        #: once, lazy adoption attaches thousands of nodes per run.  The
        #: algorithm's methods are looked up per message, not bound here.
        algorithm = self.algorithm
        self._handlers = (
            ("query", lambda n, m: algorithm.on_query(self, n, m)),
            ("al-index", lambda n, m: algorithm.on_al_index(self, n, m)),
            ("vl-index", lambda n, m: algorithm.on_vl_index(self, n, m)),
            ("join", lambda n, m: algorithm.on_join(self, n, m)),
            ("notification", self._on_notification),
            ("unsubscribe", self._on_unsubscribe),
        )

        # State and handlers attach on a node's first delivery (or first
        # ``state(node)``): large sweeps touch a sparse subset of nodes.
        adopt = self.adopt
        for node in network:
            node.adopt_hook = adopt
        network.transfer_hook = self._transfer

    @property
    def transport(self):
        """The active message transport (see :mod:`repro.transport`).

        Resolved through the network on every access so installing a
        live transport (``network.use_transport``) after the engine was
        built — the order the cluster bootstrap uses — takes effect
        immediately.
        """
        return self.network.transport

    # ------------------------------------------------------------------
    # Node state management
    # ------------------------------------------------------------------
    def adopt(self, node: ChordNode) -> NodeState:
        """Attach engine state and protocol handlers to a node."""
        if isinstance(node.app, NodeState):
            self._adopted[node.ident] = node.app
            return node.app
        state = NodeState(node, self.config.jfrt_capacity)
        node.app = state
        self._adopted[node.ident] = state
        for message_type, handler in self._handlers:
            node.register_handler(message_type, handler)
        return state

    def state(self, node: ChordNode) -> NodeState:
        """The engine state of ``node`` (attaching it if needed)."""
        if isinstance(node.app, NodeState):
            return node.app
        return self.adopt(node)

    def _transfer(self, source: ChordNode, target: ChordNode) -> None:
        """Chord key handoff: move application items between nodes.

        The network arranges for ``target`` to already own the moved
        range when the hook fires (both on join and on voluntary
        leave), so ownership is the single predicate needed.
        """
        self.state(source).transfer_to(self.state(target), target.owns)

    # ------------------------------------------------------------------
    # Public operations (system model, Section 3.1)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        origin: ChordNode,
        query: Union[str, JoinQuery],
        schema: Optional[Schema] = None,
    ) -> JoinQuery:
        """Pose a continuous query from ``origin``; returns the bound query.

        ``query`` may be SQL text (parsed against ``schema`` when
        given) or an already built :class:`~repro.sql.query.JoinQuery`.
        The query key is ``Key(n)`` concatenated with a positive
        integer (Section 3.2).
        """
        if isinstance(query, str):
            query = parse_query(query, schema)
        key = f"{origin.key}#{next(self._query_counter)}"
        bound = query.with_subscription(
            key,
            self.clock.now,
            Subscriber(origin.key, origin.ident, origin.ip),
        )
        self.queries[key] = bound
        self._subscriber_nodes[origin.ident] = origin
        self._presence.setdefault(origin.ident, True)
        self.delivered.setdefault(key, [])
        self._delivered_identities.setdefault(key, set())
        self._query_labels[key] = self.algorithm.index_query(self, origin, bound)
        return bound

    def publish(
        self,
        origin: ChordNode,
        relation: Relation,
        values: Mapping[str, Any],
    ) -> DataTuple:
        """Insert a tuple from ``origin`` (``pubT`` = current time)."""
        tup = DataTuple.make(relation, values, pub_time=self.clock.now)
        self._publications.append(tup)
        self.algorithm.index_tuple(self, origin, tup)
        return tup

    def lease_refresh_steps(self):
        """Yield ``(kind, replay)`` thunks re-asserting all soft state —
        if the membership generation moved or a delivery was given up on
        (``network.losses``) since the last refresh *started*; nothing
        otherwise: the refresh is crash recovery (DESIGN.md §8).

        ``kind`` is ``"query"`` or ``"tuple"``; calling ``replay()``
        re-sends that one item with ``refresh=True``.  The generator is
        lazy so a live driver can pace the replay against its in-flight
        budget (firing every step of a large publication log at once
        overflows send windows); :meth:`refresh_leases` is the one-shot
        consumer.
        """
        network = self.network
        (generation, losses) = mark = (network._membership_generation, network.losses)
        if mark == self._refreshed_at:
            PERF.count("engine.refresh.skipped")
            return
        (before, lost), self._refreshed_at = self._refreshed_at, mark
        PERF.count("engine.refresh.full")
        cause = f"membership generation {before} -> {generation}"
        logger.info("lease refresh: full (%s)", cause if generation != before
                    else f"{losses - lost} deliveries lost")
        algorithm = self.algorithm
        for key, query in list(self.queries.items()):
            origin = self._subscriber_nodes.get(query.subscriber.ident)
            if origin is None or not origin.alive:
                origin = network.responsible_node(query.subscriber.ident)
            labels = self._query_labels.get(key)
            yield "query", partial(
                algorithm.index_query, self, origin, query, labels=labels, refresh=True
            )
        window = self.config.window
        horizon = None if window is None else self.clock.now - window
        for tup in self._publications:
            if horizon is None or tup.pub_time >= horizon:
                origin = network.responsible_node(network.hash(tup.relation.name))
                replay = partial(algorithm.index_tuple, self, origin, tup, refresh=True)
                yield "tuple", replay

    def refresh_leases(self) -> dict[str, int]:
        """Re-assert all soft state (queries as leases, tuples replayed)
        if anything was lost since the last refresh started.

        Crash recovery in the spirit of the paper's best-effort model:
        subscribers periodically re-install their queries (the ALQT
        deduplicates, so an intact rewriter is a no-op and a restarted
        one recovers the query) and publishers replay tuples still
        inside the window with ``refresh=True`` so receivers rebuild
        lost value-level state without double-counting.  Duplicate
        notifications re-created along the way are suppressed against
        the subscriber's delivered set.  Returns the renewal counts.
        """
        counts = {"queries": 0, "tuples": 0}
        for kind, replay in self.lease_refresh_steps():
            replay()
            counts["queries" if kind == "query" else "tuples"] += 1
        return counts

    def unsubscribe(self, origin: ChordNode, query: JoinQuery) -> None:
        """Best-effort removal of a query from its rewriter(s).

        Attribute-level copies are removed; value-level rewritten
        queries created earlier stay inert (their notifications are
        suppressed at delivery) and age out with the window, mirroring
        the paper's best-effort semantics.
        """
        if query.key not in self.queries:
            raise QueryError(f"unknown query {query.key!r}")
        del self.queries[query.key]
        message = UnsubscribeMessage(query_key=query.key)
        labels = self._query_labels.pop(query.key, None)
        if labels is None:
            labels = self.algorithm.index_labels(self, origin, query)
        for label in labels:
            side = query.side(label)
            attribute = query.index_attribute(label)
            for ident in self.replication.rewriter_identifiers(
                self.network.hash, side.relation, attribute
            ):
                self.transport.send(origin, message, ident)

    # ------------------------------------------------------------------
    # Reorder buffers of the DAI-Q / DAI-T value nodes (DESIGN.md §13)
    # ------------------------------------------------------------------
    def hold(self, state: NodeState, time: float, halves) -> None:
        """Keep the arriving ``(key, half)`` pairs triggered at ``time`` at
        ``state`` while the transport's low watermark is below ``time``:
        an older publish may still land a stored half under ``key``."""
        ledger = self.network.transport.ledger
        if ledger is None or ledger.low_watermark() >= time:
            return
        ledger.listener = self._release_held
        holds = self._holds  # one record per held half
        for key, half in halves:
            state.held.setdefault(key, []).append((time, half))
            heapq.heappush(holds, (time, next(self._hold_seq), state, key))
            PERF.count("engine.reorder.buffered")
        if PERF.enabled and len(holds) > self._held_peak:
            PERF.count("engine.reorder.peak", len(holds) - self._held_peak)
            self._held_peak = len(holds)

    def held(self, state: NodeState, key: tuple, since: float) -> list:
        """What a stored half published at ``since`` pairs with as it
        lands: the halves held under ``key`` triggered no earlier."""
        items = [item for time, item in state.held.get(key, ()) if time >= since]
        if items and PERF.enabled:
            PERF.count("engine.reorder.matched", len(items))
        return items

    def _release_held(self) -> None:
        holds = self._holds
        watermark = self.transport.low_watermark()
        while holds and holds[0][0] <= watermark:
            _, _, state, key = heapq.heappop(holds)
            kept = [e for e in state.held.pop(key, ()) if e[0] > watermark]
            if kept:
                state.held[key] = kept

    # ------------------------------------------------------------------
    # Presence / notification plumbing
    # ------------------------------------------------------------------
    def go_offline(self, node: ChordNode) -> None:
        """The subscriber stops accepting direct deliveries; further
        notifications are routed to ``Successor(Id(n))`` and parked."""
        self._presence[node.ident] = False

    def come_online(self, node: ChordNode) -> list[Notification]:
        """Resume deliveries and collect notifications parked locally
        (Chord key handoff has already moved them here on rejoin)."""
        self._presence[node.ident] = True
        self._subscriber_nodes[node.ident] = node
        state = self.state(node)
        parked = state.parked.pop(node.ident, [])
        for notification in parked:
            if self._record_delivery(state, notification):
                state.inbox.append(notification)
        return parked

    def is_online(self, ident: int) -> bool:
        return self._presence.get(ident, False)

    def deliver_notifications(
        self, from_node: ChordNode, notifications: Iterable[Notification]
    ) -> None:
        """Ship notifications to their subscribers (Section 4.6).

        Identities the subscriber has already received are filtered out
        before the network hop: a restarted evaluator loses its
        ``emitted`` memory, so crash-recovery replay can legitimately
        re-create an answer — the filter keeps delivery exactly-once.
        """
        gateway = self.notification_gateway
        if gateway is not None:
            gateway(from_node, notifications)
            return
        for subscriber_ident, batch in group_by_subscriber(notifications).items():
            live = []
            for notification in batch:
                if notification.query_key not in self.queries:
                    continue
                seen = self._delivered_identities.get(notification.query_key)
                if seen is not None and notification.identity in seen:
                    self.suppressed_renotifications += 1
                    continue
                live.append(notification)
            if not live:
                continue
            message = NotificationMessage(
                notifications=tuple(live), subscriber_ident=subscriber_ident
            )
            target = self._subscriber_nodes.get(subscriber_ident)
            if (
                target is not None
                and target.alive
                and self._presence.get(subscriber_ident, False)
            ):
                self.transport.send_direct(from_node, message, target)
            else:
                self.transport.send(from_node, message, subscriber_ident)

    def _on_notification(self, node: ChordNode, msg: NotificationMessage) -> None:
        state = self.state(node)
        if node.ident == msg.subscriber_ident and self._presence.get(
            msg.subscriber_ident, False
        ):
            for notification in msg.notifications:
                if self._record_delivery(state, notification):
                    state.inbox.append(notification)
        else:
            state.parked.setdefault(msg.subscriber_ident, []).extend(
                msg.notifications
            )

    def add_notification_listener(self, query_key: str, callback) -> None:
        """Invoke ``callback(notification)`` on each *new* answer identity.

        Listeners see every distinct answer exactly once, in delivery
        order — the reactive hook the multiway-join pipeline builds on.
        """
        self._notification_listeners.setdefault(query_key, []).append(callback)

    def _record_delivery(self, state: NodeState, notification: Notification) -> bool:
        """Record one arriving notification; True when its identity is new.

        Duplicate identities (possible only when crash recovery replays
        an answer) are counted and dropped so the delivered lists and
        subscriber inboxes keep the paper's set semantics.
        """
        identities = self._delivered_identities.setdefault(
            notification.query_key, set()
        )
        if notification.identity in identities:
            self.duplicate_deliveries += 1
            return False
        identities.add(notification.identity)
        self.delivered.setdefault(notification.query_key, []).append(notification)
        for callback in self._notification_listeners.get(
            notification.query_key, ()
        ):
            callback(notification)
        return True

    def _on_unsubscribe(self, node: ChordNode, msg: UnsubscribeMessage) -> None:
        self.state(node).alqt.remove(msg.query_key)

    # ------------------------------------------------------------------
    # Churn helpers
    # ------------------------------------------------------------------
    def disconnect(self, node: ChordNode) -> None:
        """Subscriber goes offline *and* leaves the ring voluntarily."""
        self.go_offline(node)
        self.network.leave(node)

    def reconnect(self, key: str) -> ChordNode:
        """A previously disconnected node rejoins under the same key.

        Chord assigns it the same identifier (``Hash(Key(n))``), so the
        join handoff returns all data related to ``Id(n)`` — including
        parked notifications, which :meth:`come_online` then surfaces.
        """
        node = self.network.join(key)
        self.adopt(node)
        self.come_online(node)
        return node

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def adopted_states(self):
        """Yield ``(ident, state)`` for adopted *current-member* nodes.

        The registry may retain states whose node has since left or
        been replaced under the same identifier; the identity check
        against the live membership table skips those, so iterating
        here is equivalent to scanning the whole ring for
        ``NodeState``-carrying members — at the cost of the touched
        nodes only.
        """
        members = self.network._nodes
        for ident, state in self._adopted.items():
            if members.get(ident) is state.node:
                yield ident, state

    def evict_expired(self, cutoff: float | None = None) -> int:
        """Apply sliding-window eviction on every adopted node (no-op
        when the window is unbounded); returns the evicted-item count.

        ``cutoff`` defaults to ``clock.now - window``; the sharded
        executor passes it explicitly so barrier replicas evict against
        the driver's clock rather than their own (possibly lagging)
        copy.
        """
        if self.config.window is None:
            return 0
        if cutoff is None:
            cutoff = self.clock.now - self.config.window
        return sum(state.evict_expired(cutoff) for _, state in self.adopted_states())

    def load_snapshot(self) -> LoadSnapshot:
        """Per-node filtering/storage load vectors (see metrics module)."""
        return snapshot(self)

    def notifications(self, node: ChordNode) -> list[Notification]:
        """All notifications delivered to ``node`` so far."""
        return list(self.state(node).inbox)

    def delivered_rows(self, query_key: str) -> set:
        """The delivered answer set of one query: ``{(value, row), ...}``."""
        return {
            (n.join_value_repr, n.row) for n in self.delivered.get(query_key, ())
        }

    @property
    def traffic(self):
        """The network's traffic counters (hops/messages by type)."""
        return self.network.stats
