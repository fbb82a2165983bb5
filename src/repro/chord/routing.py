"""Routing primitives: ``send`` and ``multisend`` (Section 2.3).

The paper extends the standard Chord API with two functions used by all
query-processing algorithms:

* ``send(msg, I)`` — deliver ``msg`` to ``Successor(I)`` in
  ``O(log N)`` hops by greedy finger-table forwarding;
* ``multisend(msg, L)`` / ``multisend(M, L)`` — deliver messages to the
  successors of every identifier in ``L``.  The *iterative* variant
  issues ``k`` independent ``send`` calls from the source; the
  *recursive* variant sorts ``L`` clockwise and lets the message sweep
  the ring once, which "has in practice a significantly better
  performance" (compared experimentally in Figure 5.1 / bench E1).

Every forwarding step is counted as one overlay hop in the shared
:class:`~repro.sim.stats.TrafficStats`, so all traffic numbers reported
by the benchmarks come from real routing-table walks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import DeliveryError, RoutingError
from ..sim.messages import Message
from ..sim.stats import TrafficStats
from ..transport import Transport
from .idspace import IdentifierSpace
from .node import ChordNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector


class Router(Transport):
    """Stateless routing engine over a shared identifier space.

    A single router instance serves a whole simulated network; per-node
    state (fingers, successor lists) lives on the nodes themselves, so
    routing decisions only use information local to each hop, exactly as
    the protocol prescribes.  While every one of those pointers is exact
    the owning network offers a :class:`~repro.chord.snapshot.RingSnapshot`
    that computes the same walk hop for hop (``ring.snapshot``);
    ``find_successor`` and the recursive ``multisend`` route by it when
    it is there and by the objects when it is not.

    When a :class:`~repro.faults.injector.FaultInjector` is attached,
    every final delivery consults it: dropped attempts are retried with
    exponential backoff, a target whose attempts are exhausted is
    reached through its successor list, and a typed
    :class:`~repro.errors.DeliveryError` is raised only after both give
    up.  Without an injector (or with an empty fault plan) the delivery
    path is byte-for-byte the cooperative one, so traffic counts match
    fault-free runs exactly.
    """

    def __init__(
        self,
        space: IdentifierSpace,
        stats: TrafficStats | None = None,
        injector: "FaultInjector | None" = None,
    ):
        self.space = space
        self.stats = stats if stats is not None else TrafficStats()
        #: Optional fault oracle consulted on every delivery.
        self.injector = injector
        #: Routing gives up after this many hops; on a healthy ring the
        #: bound is ``O(log N) <= m``, so hitting the limit means the
        #: ring is broken beyond best-effort repair.
        self.max_hops = 4 * space.m + 8
        #: Back-reference to the owning :class:`ChordNetwork`, set by the
        #: network at construction: its ``snapshot`` is the routing
        #: decision (the ring snapshot while the ring is exact and no
        #: injector perturbs deliveries, else ``None``).  A router with
        #: no ring keeps the object walk.
        self.ring = None

    @property
    def ledger(self):  # in flight: what an injector deferred
        return self.injector.ledger if self.injector is not None else None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find_successor(self, start: ChordNode, ident: int) -> tuple[ChordNode, int]:
        """Locate ``Successor(ident)`` from ``start``; returns (node, hops).

        Implements the forwarding rule of Section 2.3: each node hands
        the lookup to the farthest finger that does not overshoot
        ``ident``; the node responsible for ``ident`` keeps it.
        """
        ring = self.ring
        snapshot = ring.snapshot if ring is not None else None
        if snapshot is not None and start.ident in snapshot:
            owner, hops = snapshot.find_successor(start.ident, ident)
            return ring._nodes[snapshot.idents[owner]], hops
        size = self.space.size
        max_hops = self.max_hops
        current = start
        hops = 0
        while True:
            if current.owns(ident):
                return current, hops
            successor = current.successor
            if successor is current:
                return current, hops
            # Inlined ``space.in_half_open(ident, current, successor)``;
            # this test runs once per hop of every routed message.
            low = current.ident
            if low == successor.ident or 0 < (ident - low) % size <= (
                successor.ident - low
            ) % size:
                return successor, hops + 1
            next_hop = current.closest_preceding_finger(ident)
            if next_hop is current or not next_hop.alive:
                next_hop = successor
            current = next_hop
            hops += 1
            if hops > max_hops:
                raise RoutingError(
                    f"lookup for {ident} from node {start.ident} exceeded "
                    f"{max_hops} hops; ring state is inconsistent"
                )

    def lookup(self, start: ChordNode, ident: int, *, account: str = "lookup") -> ChordNode:
        """``find_successor`` that also bills its hops to the stats."""
        node, hops = self.find_successor(start, ident)
        self.stats.record_hops(account, hops)
        return node

    # ------------------------------------------------------------------
    # send()
    # ------------------------------------------------------------------
    def send(self, source: ChordNode, message: Message, ident: int) -> ChordNode:
        """Deliver ``message`` to ``Successor(ident)``; returns the recipient.

        Cost ``O(log N)`` overlay hops, all billed to the message type.
        Under fault injection the recipient may be a successor-list
        fallback of the responsible node (see :meth:`_deliver`).
        """
        target, hops = self.find_successor(source, ident)
        self.stats.record(message.type, hops)
        return self._deliver(message, target)

    def send_direct(self, source: ChordNode, message: Message, target: ChordNode) -> None:
        """One-hop delivery to a node whose address is already known.

        Used for notification delivery via a subscriber's IP address
        (Section 4.6) and by the JFRT optimization (Section 4.7.1).
        ``source`` may equal ``target`` (zero hops).  Direct deliveries
        can be dropped (and are then retried) but are never delayed:
        they model a single point-to-point IP message, not a multi-hop
        overlay route.
        """
        hops = 0 if source is target else 1
        self.stats.record(message.type, hops)
        self._deliver(message, target, may_delay=False)

    # ------------------------------------------------------------------
    # Final-hop delivery under fault injection
    # ------------------------------------------------------------------
    def _deliver(
        self, message: Message, target: ChordNode, *, may_delay: bool = True
    ) -> ChordNode:
        """Hand ``message`` to ``target``, consulting the fault oracle.

        The cooperative fast path (no injector, or an empty plan) is a
        plain ``target.deliver`` — no extra accounting, no RNG draws —
        which is what keeps empty-plan runs identical to the seed.

        With faults active: each attempt may be dropped; dropped
        attempts retry with exponential backoff up to
        ``plan.max_attempts``; once exhausted the message falls back to
        the target's successor list (the nodes that inherit the
        target's range if it is truly gone) with one attempt per live
        successor; when even those drop, a typed ``DeliveryError``
        surfaces.  Surviving messages may then be deferred by injected
        delay instead of landing immediately.
        """
        injector = self.injector
        if injector is None or not injector.perturbs_delivery:
            if not target.alive:
                target = self._successor_fallback(message, target, attempts=1)
            target.deliver(message)
            return target

        recipient = target if target.alive else self._successor_fallback(
            message, target, attempts=1
        )
        attempts = 1
        while injector.should_drop():
            self.stats.record_drop(message.type)
            if attempts >= injector.plan.max_attempts:
                return self._deliver_via_fallback(
                    message, recipient, attempts, may_delay=may_delay
                )
            self.stats.record_retry(message.type)
            injector.note_backoff(attempts)
            attempts += 1
        return self._finish_delivery(message, recipient, may_delay=may_delay)

    def _finish_delivery(
        self, message: Message, recipient: ChordNode, *, may_delay: bool
    ) -> ChordNode:
        """Land a surviving message — now, or deferred by injected delay."""
        if may_delay:
            delay = self.injector.sample_delay()
            if delay > 0.0:
                self.stats.record_delayed(message.type)
                self.injector.defer(message, recipient, delay)
                return recipient
        recipient.deliver(message)
        return recipient

    def _deliver_via_fallback(
        self, message: Message, target: ChordNode, attempts: int, *, may_delay: bool
    ) -> ChordNode:
        """Successor-list routing once direct attempts are exhausted.

        Mirrors Chord's failure handling: the successors inherit the
        failed node's key range, so they are both reachable and (after
        stabilization) the correct owners of the message's identifier.
        Each live successor gets one delivery attempt; when all of them
        drop too, the typed ``DeliveryError`` finally surfaces.
        """
        injector = self.injector
        for candidate in target.successor_list:
            if not candidate.alive or candidate is target:
                continue
            attempts += 1
            self.stats.record_retry(message.type)
            if injector.should_drop():
                self.stats.record_drop(message.type)
                continue
            return self._finish_delivery(message, candidate, may_delay=may_delay)
        if self.ring is not None:  # given up on: the next lease refresh replays
            self.ring.note_loss()
        raise DeliveryError(message.type, target.ident, attempts)

    def _successor_fallback(
        self, message: Message, target: ChordNode, *, attempts: int
    ) -> ChordNode:
        """The first live successor-list entry of a crashed target."""
        for candidate in target.successor_list:
            if candidate.alive and candidate is not target:
                return candidate
        if self.ring is not None:
            self.ring.note_loss()
        raise DeliveryError(message.type, target.ident, attempts)

    # ------------------------------------------------------------------
    # multisend()
    # ------------------------------------------------------------------
    def multisend(
        self,
        source: ChordNode,
        messages: Sequence[Message] | Message,
        idents: Sequence[int],
        *,
        recursive: bool = True,
    ) -> list[ChordNode]:
        """Deliver ``messages[j]`` to ``Successor(idents[j])`` for all j.

        ``messages`` may be a single message (the ``multisend(msg, L)``
        form) or one message per identifier (the ``multisend(M, L)``
        form).  Returns the recipient node per identifier, in the order
        of ``idents``.
        """
        message_list = self._pair_messages(messages, idents)
        if recursive:
            return self._multisend_recursive(source, message_list, idents)
        return self._multisend_iterative(source, message_list, idents)

    @staticmethod
    def _pair_messages(
        messages: Sequence[Message] | Message, idents: Sequence[int]
    ) -> list[Message]:
        if isinstance(messages, Message):
            return [messages] * len(idents)
        if len(messages) != len(idents):
            raise ValueError(
                f"multisend(M, L) requires |M| == |L|; "
                f"got {len(messages)} messages for {len(idents)} identifiers"
            )
        return list(messages)

    def _multisend_iterative(
        self, source: ChordNode, messages: list[Message], idents: Sequence[int]
    ) -> list[ChordNode]:
        """The obvious implementation: ``k`` independent sends.

        Kept "for comparison purposes" (Section 2.3); bench E1 measures
        it against the recursive variant.
        """
        return [self.send(source, message, ident) for message, ident in zip(messages, idents)]

    def _multisend_recursive(
        self, source: ChordNode, messages: list[Message], idents: Sequence[int]
    ) -> list[ChordNode]:
        """Single clockwise sweep delivering every message (Section 2.3).

        The source sorts the identifiers clockwise from its own
        position.  The batch travels toward the head of the list; every
        node that turns out to be responsible for the head strips all
        identifiers it owns, delivers their messages, and forwards the
        remainder to the successor of the new head.
        """
        if not idents:
            return []
        ring = self.ring
        snapshot = ring.snapshot if ring is not None else None
        if snapshot is not None and source.ident in snapshot:
            return self._multisend_recursive_fast(snapshot, source, messages, idents)
        order = self.space.sort_clockwise(source.ident, list(idents))
        pending: dict[int, list[int]] = {}
        for position, ident in enumerate(idents):
            pending.setdefault(ident, []).append(position)
        targets: list[ChordNode | None] = [None] * len(idents)

        # ``cursor`` walks the clockwise-sorted list instead of popping
        # the head each round (``list.pop(0)`` is O(n) per identifier).
        cursor = 0
        n_order = len(order)
        current = source
        total_hops = 0
        while cursor < n_order:
            head = order[cursor]
            responsible, hops = self._walk(current, head)
            total_hops += hops
            # The responsible node strips every identifier it owns; they
            # are consecutive at the front of the clockwise-sorted list.
            # The head is its to keep even unclaimed — beside a crash not
            # yet stabilized nobody owns the victim's range, and ``send``
            # delivers where its walk ends too — so the sweep always moves.
            while True:
                ident = order[cursor]
                cursor += 1
                for position in pending[ident]:
                    if targets[position] is None:
                        targets[position] = self._deliver(
                            messages[position], responsible
                        )
                        break
                if cursor == n_order or not responsible.owns(order[cursor]):
                    break
            current = responsible
        self._record_mixed_batch(messages, total_hops)
        return [target if target is not None else current for target in targets]

    def _multisend_recursive_fast(
        self,
        snapshot,
        source: ChordNode,
        messages: list[Message],
        idents: Sequence[int],
    ) -> list[ChordNode]:
        """Rank-space replica of the recursive sweep.

        Same clockwise traversal, same per-head walk semantics, same
        mixed-batch accounting as the object path on any exact ring.
        Each target is resolved to its owner's rank once; the sweep then
        visits target *indices* in clockwise identifier order (a stable
        sort, so equal identifiers are delivered in input order), moving
        on only when the owner changes: the node reached strips every
        target it owns.
        """
        owner_pos = snapshot.owner_pos
        owners = [owner_pos(ident) for ident in idents]
        size = self.space.size
        source_ident = source.ident
        order = sorted(
            range(len(idents)), key=lambda i: (idents[i] - source_ident) % size
        )
        targets: list[ChordNode | None] = [None] * len(idents)

        ring_nodes = self.ring._nodes
        ring_idents = snapshot.idents
        route_hops = snapshot.route_hops
        pos = snapshot.position(source_ident)
        responsible = ring_nodes[source_ident]
        total_hops = 0
        for index in order:
            owner = owners[index]
            if owner != pos:
                total_hops += route_hops(pos, owner)
                pos = owner
                responsible = ring_nodes[ring_idents[pos]]
            targets[index] = self._deliver(messages[index], responsible)
        self._record_mixed_batch(messages, total_hops)
        return targets

    def _record_mixed_batch(self, messages: list[Message], total_hops: int) -> None:
        """Attribute a shared routing path to each message type.

        A tuple insertion ships ``al-index`` and ``vl-index`` messages
        in one recursive sweep; the sweep's hops are split between the
        types in proportion to their message counts so per-type traffic
        stays meaningful.
        """
        type_counts: dict[str, int] = {}
        for message in messages:
            type_counts[message.type] = type_counts.get(message.type, 0) + 1
        total_messages = len(messages)
        remaining = total_hops
        for index, (message_type, count) in enumerate(type_counts.items()):
            if index == len(type_counts) - 1:
                share = remaining
            else:
                share = round(total_hops * count / total_messages)
                remaining -= share
            self.stats.record_batch(message_type, count, share)

    def _walk(self, start: ChordNode, ident: int) -> tuple[ChordNode, int]:
        """Forward from ``start`` until the owner of ``ident`` is reached.

        Unlike :meth:`find_successor` this counts the final handover to
        the responsible node as a hop only if the walk actually moves,
        which is exactly what a recursive (message-carrying) traversal
        costs.
        """
        size = self.space.size
        max_hops = self.max_hops
        current = start
        hops = 0
        while not current.owns(ident):
            successor = current.successor
            if successor is current:
                break
            # Inlined ``space.in_half_open`` — see ``find_successor``.
            low = current.ident
            if low == successor.ident or 0 < (ident - low) % size <= (
                successor.ident - low
            ) % size:
                current = successor
                hops += 1
                break
            next_hop = current.closest_preceding_finger(ident)
            if next_hop is current or not next_hop.alive:
                next_hop = successor
            current = next_hop
            hops += 1
            if hops > max_hops:
                raise RoutingError(
                    f"multisend walk toward {ident} exceeded {max_hops} hops"
                )
        return current, hops


def multisend_cost(
    router: Router,
    source: ChordNode,
    idents: Iterable[int],
    *,
    recursive: bool,
) -> int:
    """Measure the hop cost of a ``multisend`` without side effects.

    Helper for bench E1: routes a no-op message batch and returns the
    hops it consumed (read off the router's stats delta).
    """
    before = router.stats.snapshot()
    probe = Message()

    class _Sink:
        @staticmethod
        def handler(node: ChordNode, message: Message) -> None:
            del node, message

    ident_list = list(idents)
    seen: set[int] = set()
    for ident in ident_list:
        target, _ = router.find_successor(source, ident)
        if id(target) not in seen:
            seen.add(id(target))
            target.register_handler(probe.type, _Sink.handler)
    router.multisend(source, probe, ident_list, recursive=recursive)
    return router.stats.since(before).hops
