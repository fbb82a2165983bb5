"""A single Chord node: identifier, finger table, successor list.

Mirrors Section 2.2 of the paper.  A node is identified by hashing its
key (``id(n) = Hash(Key(n))``), keeps a finger table of at most ``m``
entries where entry ``j`` points at ``successor(id(n) + 2**(j-1))``, a
predecessor pointer, and a successor list of ``r`` entries used for
robustness under failures.

Nodes are passive data holders: routing and ring maintenance live in
:mod:`repro.chord.routing` and :mod:`repro.chord.stabilize` so the
protocol logic is testable in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .idspace import IdentifierSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.messages import Message

#: Default length of the successor list.  The paper notes that "in
#: practice even small values of r are enough to achieve robustness".
DEFAULT_SUCCESSOR_LIST_SIZE = 4

MessageHandler = Callable[["ChordNode", "Message"], None]

#: The finger table every node of a deferred-finger ring shares until
#: the ring materializes real ones (``ChordNetwork.build(fast_routing=
#: True)``): snapshot routing never reads fingers, and ``[None] * m``
#: per node is a third of such a ring's memory.  Empty, so the finger
#: scan falls through to the successor list exactly as it does over a
#: table of ``None``.
NO_FINGERS: tuple = ()


class ChordNode:
    """One overlay node.

    Parameters
    ----------
    key:
        The node's unique key ``Key(n)`` (e.g. derived from its public
        key and/or IP address, Section 2.2).
    ident:
        ``Hash(Key(n))`` — assigned by the network so every node uses
        the same hash function.
    space:
        The shared identifier space.
    defer_fingers:
        Start on the shared :data:`NO_FINGERS` placeholder instead of
        allocating a finger table (the owning network assigns one when
        it materializes fingers).
    """

    __slots__ = (
        "key",
        "ident",
        "space",
        "ip",
        "alive",
        "predecessor",
        "fingers",
        "successor_list",
        "successor_list_size",
        "finger_cursor",
        "_handlers",
        "app",
        "adopt_hook",
    )

    def __init__(
        self,
        key: str,
        ident: int,
        space: IdentifierSpace,
        ip: str | None = None,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
        defer_fingers: bool = False,
    ):
        self.key = key
        self.ident = space.validate(ident)
        self.space = space
        self.ip = ip if ip is not None else f"10.0.0.0/{key}"
        self.alive = True
        self.predecessor: Optional[ChordNode] = None
        self.fingers: list[Optional[ChordNode]] | tuple = (
            NO_FINGERS if defer_fingers else [None] * space.m
        )
        self.successor_list: list[ChordNode] = []
        self.successor_list_size = successor_list_size
        #: Round-robin position of the periodic finger refresh
        #: (``fix_next_finger``); node-local so rings never share it.
        self.finger_cursor = 0
        self._handlers: dict[str, MessageHandler] = {}
        #: Application-level state attached by the query-processing
        #: engine (a ``NodeState``); opaque to the DHT layer.
        self.app: object | None = None
        #: Lazy-adoption callback: the engine defers per-node state and
        #: handler registration until a first message arrives
        #: (``deliver`` calls ``adopt_hook(self)`` before giving up).
        self.adopt_hook: Callable[["ChordNode"], object] | None = None

    # ------------------------------------------------------------------
    # Ring pointers
    # ------------------------------------------------------------------
    @property
    def successor(self) -> "ChordNode":
        """The first *live* entry of the successor list.

        Falls back to ``self`` on a one-node ring.  Dead entries are
        skipped (that is the whole point of the successor list,
        Section 2.2).
        """
        for candidate in self.successor_list:
            if candidate.alive:
                return candidate
        return self

    def set_successor(self, node: "ChordNode") -> None:
        """Install ``node`` at the head of the successor list."""
        rest = [entry for entry in self.successor_list if entry is not node]
        self.successor_list = [node, *rest][: self.successor_list_size]

    def refresh_successor_list(self) -> None:
        """Extend the successor list by copying the successor's list.

        This is how Chord keeps ``r`` successors known: ``n``'s list is
        its successor followed by the successor's own list, truncated.
        """
        head = self.successor
        if head is self:
            self.successor_list = []
            return
        merged = [head]
        for entry in head.successor_list:
            if entry is self:
                break
            if entry.alive and entry not in merged:
                merged.append(entry)
        self.successor_list = merged[: self.successor_list_size]

    def owns(self, ident: int) -> bool:
        """True if this node is responsible for ``ident``.

        A node owns the keys in ``(predecessor, self]``.  Without a
        predecessor pointer (fresh node) it conservatively owns nothing
        unless it is alone on the ring.
        """
        predecessor = self.predecessor
        if predecessor is None:
            return self.successor is self
        # Inlined ``space.in_half_open(ident, predecessor, self)`` —
        # ownership is checked once per routing hop.
        low = predecessor.ident
        if low == self.ident:
            return True
        size = self.space.size
        return 0 < (ident - low) % size <= (self.ident - low) % size

    def finger_start(self, j: int) -> int:
        """Identifier ``id(n) + 2**j`` targeted by finger ``j`` (0-based)."""
        return self.space.shift(self.ident, 1 << j)

    def closest_preceding_finger(self, ident: int) -> "ChordNode":
        """The closest live finger strictly between ``self`` and ``ident``.

        Scans the finger table, also considering the successor list;
        returns ``self`` when no better candidate exists (the caller
        then forwards to the successor).

        This is the single hottest function of the whole simulator (one
        call per routing hop), so the ring arithmetic is inlined: a
        candidate lies in the open interval ``(self, ident)`` iff its
        clockwise offset ``d`` from ``self`` satisfies ``0 < d < span``
        where ``span`` is the offset of ``ident`` (``span == size`` for
        the full-ring case ``ident == self.ident``), and ``d`` is also
        the distance being maximized.  Finger tables repeat the same
        node over long stretches, so consecutive duplicates are skipped
        — with the strict ``>`` tie-break a repeat can never win.
        """
        self_ident = self.ident
        size = self.space.size
        span = (ident - self_ident) % size
        if span == 0:
            span = size
        best = self
        best_distance = 0
        previous = None
        for candidate in self.fingers:
            if candidate is None or candidate is previous:
                continue
            previous = candidate
            if not candidate.alive:
                continue
            distance = (candidate.ident - self_ident) % size
            if best_distance < distance < span:
                best = candidate
                best_distance = distance
        for candidate in self.successor_list:
            if candidate is previous:
                continue
            previous = candidate
            if not candidate.alive:
                continue
            distance = (candidate.ident - self_ident) % size
            if best_distance < distance < span:
                best = candidate
                best_distance = distance
        return best

    # ------------------------------------------------------------------
    # Application message delivery
    # ------------------------------------------------------------------
    def register_handler(self, message_type: str, handler: MessageHandler) -> None:
        """Register the application handler for ``message_type``."""
        self._handlers[message_type] = handler

    def deliver(self, message: "Message") -> None:
        """Hand a routed message to the registered application handler."""
        handler = self._handlers.get(message.type)
        if handler is None:
            if self.adopt_hook is not None:
                self.adopt_hook(self)
                handler = self._handlers.get(message.type)
            if handler is None:
                raise LookupError(
                    f"node {self.ident} has no handler for message type "
                    f"{message.type!r}"
                )
        handler(self, message)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<ChordNode id={self.ident} key={self.key!r} {state}>"
