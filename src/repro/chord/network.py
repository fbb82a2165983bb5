"""A simulated Chord overlay network (Section 2.2).

:class:`ChordNetwork` owns the shared hash function, identifier space,
router and traffic statistics, plus the node registry.  It supports two
construction modes:

* :meth:`ChordNetwork.build` creates a stable ring directly (correct
  successors, predecessors and finger tables) — the setting of the
  paper's experiments, which evaluate query processing rather than ring
  maintenance;
* incremental :meth:`join` / :meth:`leave` / :meth:`fail` plus
  :meth:`run_stabilization` exercise the actual Chord maintenance
  protocol (stabilize, fix fingers, check predecessor) for
  churn-tolerance studies.

Application data handoff (the Chord rule that a joining node receives
the keys it now owns from its successor, and a voluntarily leaving node
pushes its keys to its successor) is delegated to ``transfer_hook`` so
the query-processing layer can move its tables without the DHT layer
knowing their structure.
"""

from __future__ import annotations

import bisect
import logging
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..errors import NetworkError
from ..perf import PERF
from ..sim.stats import TrafficStats
from ..transport import Transport
from .hashing import DEFAULT_M, ConsistentHash
from .idspace import IdentifierSpace
from .node import DEFAULT_SUCCESSOR_LIST_SIZE, ChordNode
from .routing import Router
from .snapshot import RingSnapshot
from . import stabilize as maintenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

#: One INFO record per change of router (see ``_choose_router``), never
#: one per message; silent unless the application configures logging.
logger = logging.getLogger("repro.chord")
logger.addHandler(logging.NullHandler())

#: Called as ``transfer_hook(source_node, target_node)`` whenever
#: responsibility moves between two nodes (join or voluntary leave).
TransferHook = Callable[[ChordNode, ChordNode], None]


class ChordNetwork:
    """A complete simulated Chord ring."""

    def __init__(
        self,
        m: int = DEFAULT_M,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
        stats: TrafficStats | None = None,
        injector: Optional["FaultInjector"] = None,
    ):
        self.hash = ConsistentHash(m)
        self.space = IdentifierSpace(m)
        self.stats = stats if stats is not None else TrafficStats()
        self.router = Router(self.space, self.stats, injector=injector)
        #: Active message transport (the Section 2.3 API).  Defaults to
        #: the in-process router; :meth:`use_transport` swaps in a live
        #: one (e.g. :class:`repro.net.peer.SocketTransport`) without
        #: the engine or algorithms noticing.
        self.transport: Transport = self.router
        self.successor_list_size = successor_list_size
        self._nodes: dict[int, ChordNode] = {}
        self._sorted_idents: list[int] = []
        self.transfer_hook: Optional[TransferHook] = None
        #: True while every node's pointers match the membership exactly
        #: (as after :meth:`build` / :meth:`rebuild_ring_state`); any
        #: membership change clears it until the next full rebuild.
        self._ring_exact = False
        #: The routing decision, made by :meth:`_choose_router`: the
        #: :class:`RingSnapshot` that routes this ring, or ``None``
        #: while the object walk does.  Routers read it per message.
        self.snapshot: Optional[RingSnapshot] = None
        #: Finger tables deferred (``build(fast_routing=True)``): the
        #: snapshot never reads them, and building them dominates ring
        #: construction time and a third of its memory, so nodes share
        #: one empty placeholder.  Materialized on the first membership
        #: change (or maintenance round), before the object walk — which
        #: does read them — can take over.
        self._lazy_fingers = False
        #: Bumped on every membership change; names the ring in the log.
        self._membership_generation = 0
        self._losses = 0
        self.router.ring = self

    def use_transport(self, transport: Transport) -> Transport:
        """Install ``transport`` as the active message substrate.

        Returns the previous transport so callers can restore it.  The
        router keeps serving routed lookups (ring maintenance, joins)
        either way; only application message delivery moves.
        """
        previous = self.transport
        self.transport = transport
        return previous

    @property
    def losses(self) -> int:
        """Deliveries given up on: noted by a router or a live transport
        (:meth:`note_loss`), or deferred with no live recipient left."""
        injector = self.router.injector
        return self._losses + (injector.messages_lost if injector is not None else 0)

    def note_loss(self) -> None:
        self._losses += 1

    @property
    def injector(self) -> Optional["FaultInjector"]:
        """The fault oracle the router consults (``None`` = cooperative)."""
        return self.router.injector

    @injector.setter
    def injector(self, injector: Optional["FaultInjector"]) -> None:
        self.router.injector = injector
        perturbing = injector is not None and injector.perturbs_delivery
        self._choose_router(
            "perturbing injector" if perturbing else "no perturbing injector"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_nodes: int,
        m: int = DEFAULT_M,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
        key_prefix: str = "node",
        injector: Optional["FaultInjector"] = None,
        fast_routing: bool = False,
    ) -> "ChordNetwork":
        """Create a stable ring of ``n_nodes`` nodes.

        Node keys are ``"{key_prefix}-{i}"``; identifier collisions
        (possible at small ``m``) are resolved by salting the key, so
        the ring always has exactly ``n_nodes`` distinct identifiers.

        ``fast_routing=True`` defers finger-table construction, which
        dominates build time at large ``n_nodes``, until a membership
        change or maintenance round needs the tables — nothing else.
        Which router serves the ring never depended on who built it
        (see :meth:`_choose_router`); the keyword keeps its name only
        because ``benchmarks/joinbench/drivers.py`` passes it.
        """
        if n_nodes < 1:
            raise NetworkError("a network needs at least one node")
        network = cls(
            m=m, successor_list_size=successor_list_size, injector=injector
        )
        nodes = network._nodes
        hash_fn = network.hash
        for index in range(n_nodes):
            key = f"{key_prefix}-{index}"
            salt = 0
            ident = hash_fn(key)
            while ident in nodes:
                salt += 1
                ident = hash_fn(f"{key}~{salt}")
            nodes[ident] = ChordNode(
                key if salt == 0 else f"{key}~{salt}",
                ident,
                network.space,
                successor_list_size=successor_list_size,
                defer_fingers=fast_routing,
            )
        # Bulk registration: one sort instead of n_nodes insorts (the
        # repeated-memmove cost is what made >=100k-node builds crawl).
        network._sorted_idents = sorted(nodes)
        network._membership_generation += 1
        network._lazy_fingers = fast_routing
        network.rebuild_ring_state()
        return network

    def _register(self, node: ChordNode) -> None:
        if node.ident in self._nodes:
            raise NetworkError(f"identifier collision at {node.ident}")
        self._materialize_fingers()
        self._nodes[node.ident] = node
        bisect.insort(self._sorted_idents, node.ident)
        self._membership_changed("join")

    def _unregister(self, node: ChordNode, cause: str) -> None:
        self._materialize_fingers()
        del self._nodes[node.ident]
        index = bisect.bisect_left(self._sorted_idents, node.ident)
        self._sorted_idents.pop(index)
        self._membership_changed(cause)

    def _membership_changed(self, cause: str) -> None:
        self._membership_generation += 1
        self._ring_exact = False
        self._choose_router(cause)

    def _materialize_fingers(self) -> None:
        """Build the deferred finger tables before membership changes.

        A lazy-finger ring loses snapshot routing the moment membership
        changes (the ring is no longer exact), so the object walk —
        which needs real finger tables — must be ready first.
        """
        if self._lazy_fingers:
            self._lazy_fingers = False
            self.rebuild_ring_state()

    def rebuild_ring_state(self) -> None:
        """Set every pointer (successors, predecessors, fingers) exactly.

        Equivalent to letting stabilization run to quiescence; used by
        :meth:`build` and available to tests that damage the ring.
        """
        idents = self._sorted_idents
        count = len(idents)
        lazy = self._lazy_fingers
        for position, ident in enumerate(idents):
            node = self._nodes[ident]
            successors = [
                self._nodes[idents[(position + offset) % count]]
                for offset in range(1, min(count, node.successor_list_size + 1))
            ]
            node.successor_list = successors
            node.predecessor = self._nodes[idents[(position - 1) % count]] if count > 1 else node
            if not lazy:
                node.fingers = [
                    self._oracle_successor(node.finger_start(j))
                    for j in range(self.space.m)
                ]
        self._ring_exact = True
        self._choose_router("rebuild")

    def _choose_router(self, cause: str) -> None:
        """Decide which router serves this ring — the one place it is.

        The snapshot routes iff every pointer is exact and no injector
        can perturb a delivery; otherwise the object walk does, which
        owns stale pointers, retries and delays.  Called at the only
        moments either answer can change (``cause`` names which).  A
        snapshot outlives a repeated rebuild: every membership change
        drops it, so one that is still here describes these members.
        """
        previous = self.snapshot
        injector = self.router.injector
        if (
            not self._ring_exact
            or not self._nodes
            or (injector is not None and injector.perturbs_delivery)
        ):
            self.snapshot = None
        elif previous is None:
            self.snapshot = RingSnapshot(
                list(self._sorted_idents), self.space.m, self.successor_list_size
            )
            if PERF.enabled:
                PERF.count("snapshot.rebuilds")
        if (previous is None) == (self.snapshot is None):
            return
        if previous is not None and PERF.enabled:
            PERF.count("router.fallbacks")
        logger.info(
            "router -> %s (%s): %d nodes, membership generation %d",
            "object walk" if previous is not None else "snapshot",
            cause,
            len(self._nodes),
            self._membership_generation,
        )

    def _oracle_successor(self, ident: int) -> ChordNode:
        """Global-knowledge successor; only for construction and checks."""
        idents = self._sorted_idents
        index = bisect.bisect_left(idents, ident)
        if index == len(idents):
            index = 0
        return self._nodes[idents[index]]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ChordNode]:
        return iter(self._nodes.values())

    @property
    def nodes(self) -> list[ChordNode]:
        """Live nodes in identifier order."""
        return [self._nodes[ident] for ident in self._sorted_idents]

    def node_at(self, ident: int) -> ChordNode:
        """The node with exactly this identifier (KeyError if absent)."""
        return self._nodes[ident]

    def responsible_node(self, ident: int) -> ChordNode:
        """Ground-truth ``Successor(ident)`` (oracle; not a routed lookup)."""
        if not self._nodes:
            raise NetworkError("network is empty")
        return self._oracle_successor(ident % self.space.size)

    def random_node(self, rng) -> ChordNode:
        """A uniformly random live node, using the caller's RNG."""
        return self._nodes[self._sorted_idents[rng.randrange(len(self._sorted_idents))]]

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def join(self, key: str, *, via: ChordNode | None = None) -> ChordNode:
        """A new node joins through bootstrap node ``via`` (Section 2.2).

        The new node discovers its successor by a routed lookup, splices
        itself in, and receives from the successor the application items
        it now owns (``transfer_hook``).  Remaining pointers converge
        through :meth:`run_stabilization`.
        """
        ident = self.hash(key)
        salt = 0
        while ident in self._nodes:
            salt += 1
            ident = self.hash(f"{key}~{salt}")
        node = ChordNode(
            key if salt == 0 else f"{key}~{salt}",
            ident,
            self.space,
            successor_list_size=self.successor_list_size,
        )
        if not self._nodes:
            node.predecessor = node
            self._register(node)
            return node
        bootstrap = via if via is not None else next(iter(self._nodes.values()))
        successor, _ = self.router.find_successor(bootstrap, node.ident)
        node.set_successor(successor)
        node.predecessor = None
        # Seed the finger table with lookups through the bootstrap node.
        for j in range(self.space.m):
            node.fingers[j], _ = self.router.find_successor(bootstrap, node.finger_start(j))
        old_predecessor = successor.predecessor
        self._register(node)
        maintenance.notify(successor, node)
        if old_predecessor is not None and old_predecessor is not successor:
            old_predecessor.set_successor(node)
            node.predecessor = old_predecessor
        node.refresh_successor_list()
        if self.transfer_hook is not None:
            self.transfer_hook(successor, node)
        return node

    def _require_member(self, node: ChordNode) -> None:
        if self._nodes.get(node.ident) is not node:
            raise NetworkError(f"node {node.ident} is not in this network")

    def leave(self, node: ChordNode) -> None:
        """Voluntary departure: keys move to the successor (Section 2.2)."""
        self._require_member(node)
        if len(self._nodes) == 1:
            self._unregister(node, "leave")
            node.alive = False
            return
        successor = node.successor
        predecessor = node.predecessor
        if predecessor is not None and predecessor is not node:
            predecessor.set_successor(successor)
        if successor.predecessor is node:
            successor.predecessor = predecessor if predecessor is not node else None
        # Pointers are fixed before the handoff so that the successor
        # already owns the departed range when items are offered to it.
        if self.transfer_hook is not None and successor is not node:
            self.transfer_hook(node, successor)
        self._unregister(node, "leave")
        node.alive = False

    def fail(self, node: ChordNode) -> None:
        """Abrupt failure: the node vanishes, its items are lost.

        The paper assumes best-effort semantics and "leaves all the
        handling of failures ... to the underlying DHT"; successor lists
        and stabilization restore routing.
        """
        self._require_member(node)
        self._unregister(node, "fail")
        node.alive = False

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def run_stabilization(self, rounds: int = 1, *, fix_all_fingers: bool = False) -> None:
        """Run the periodic maintenance protocol on every live node."""
        self._materialize_fingers()  # fix_finger writes into the tables
        for _ in range(rounds):
            for node in list(self._nodes.values()):
                maintenance.check_predecessor(node)
                maintenance.stabilize(node)
                if fix_all_fingers:
                    for j in range(self.space.m):
                        maintenance.fix_finger(node, j, self.router)
                else:
                    maintenance.fix_next_finger(node, self.router)

    def ring_is_consistent(self) -> bool:
        """Check that successors/predecessors match the oracle ordering."""
        idents = self._sorted_idents
        count = len(idents)
        for position, ident in enumerate(idents):
            node = self._nodes[ident]
            expected_successor = self._nodes[idents[(position + 1) % count]]
            expected_predecessor = self._nodes[idents[(position - 1) % count]]
            if count > 1 and node.successor is not expected_successor:
                return False
            if count > 1 and node.predecessor is not expected_predecessor:
                return False
        return True
