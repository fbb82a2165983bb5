"""Int-keyed ring snapshot: routing over sorted identifier arrays.

On a stable (exact) ring every routing decision —
``Successor(I)``, ownership, and the closest-preceding-finger choice —
is a pure function of the sorted identifier array, so the per-hop walk
through ``ChordNode`` objects can be replaced by ``bisect`` arithmetic
over one ``list[int]``.  :class:`RingSnapshot` is that function table.

The snapshot replicates the object walk *exactly*, hop for hop, but
not in identifier space: on an exact ring the walk is a function of
node *order*, so each target identifier is resolved to its owner's rank
once (one ``bisect``) and the route is walked in ranks
(:meth:`RingSnapshot._forward`).  Four equivalences carry it, each true
only while every pointer is exact:

* *ownership* — the member at rank ``p`` owns the target iff
  ``p == owner``;
* *successor shortcut* — the target lies in ``(p, successor(p)]`` iff
  ``owner == p + 1``;
* *members strictly inside* ``(p, target)`` — ``(owner - p - 1) mod n``
  of them, whichever identifier in the owner's range was asked for;
* *finger against successor list* — finger ``j`` points at
  ``Successor(p + 2**j)`` and list entry ``k`` at the member ``k`` ranks
  ahead; clockwise distance grows with rank, so the farther candidate
  is the one more ranks ahead.

``find_successor`` (mirrors :meth:`repro.chord.routing.Router.find_successor`),
``walk`` (mirrors :meth:`repro.chord.routing.Router._walk`) and the
recursive-multisend sweep are thin entries to that one loop;
``closest_preceding_finger_pos`` is one step of it.  A ring with a stale
finger, a dead member or a half-joined node satisfies none of the four,
which is why churn, stabilization and perturbing fault injectors stay on
the object walk.

Validity is the caller's contract: a snapshot describes one membership
of a ring whose pointers are exact (as after ``ChordNetwork.build`` /
``rebuild_ring_state``) and whose members are all alive.
``ChordNetwork`` tracks both conditions and drops its snapshot the
moment either fails (see ``ChordNetwork._choose_router``); the
differential tests in ``tests/chord/test_snapshot_differential.py``
assert hop-exact agreement with the object walk across random
memberships, wrap-around identifiers and join/leave sequences.
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import RoutingError


class RingSnapshot:
    """Immutable routing view of one exact ring membership.

    Parameters
    ----------
    idents:
        Sorted, duplicate-free member identifiers (at least one).
    m:
        Identifier-space bits (ring size is ``2**m``).
    successor_list_size:
        ``r`` — the successor-list length the object ring uses; the
        closed-form ``closest_preceding_finger`` needs it to consider
        the same candidate set as the object scan.
    """

    __slots__ = (
        "idents",
        "n",
        "m",
        "size",
        "successor_list_size",
        "max_hops",
        "_pos",
        "_successor_reach",
    )

    def __init__(
        self,
        idents: list[int],
        m: int,
        successor_list_size: int,
    ):
        if not idents:
            raise ValueError("a ring snapshot needs at least one member")
        self.idents = idents
        self.n = len(idents)
        self.m = m
        self.size = 1 << m
        self.successor_list_size = successor_list_size
        #: Same give-up bound as the object router.
        self.max_hops = 4 * m + 8
        self._pos = {ident: index for index, ident in enumerate(idents)}
        #: Deepest successor-list entry a member has: ``min(r, n - 1)``.
        self._successor_reach = min(successor_list_size, self.n - 1)

    # ------------------------------------------------------------------
    # Membership / positions
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __contains__(self, ident: int) -> bool:
        return ident in self._pos

    def position(self, ident: int) -> int:
        """Array position of member ``ident`` (KeyError if absent)."""
        return self._pos[ident]

    def owner_pos(self, ident: int) -> int:
        """Position of ``Successor(ident)`` — the owner of the key."""
        index = bisect_left(self.idents, ident)
        return 0 if index == self.n else index

    def successor_ident(self, ident: int) -> int:
        """``Successor(ident)`` for an arbitrary identifier."""
        return self.idents[self.owner_pos(ident)]

    def node_successor_pos(self, pos: int) -> int:
        """Ring successor of the member at ``pos``."""
        pos += 1
        return 0 if pos == self.n else pos

    def node_predecessor_pos(self, pos: int) -> int:
        """Ring predecessor of the member at ``pos``."""
        return pos - 1 if pos else self.n - 1

    def predecessor_ident(self, ident: int) -> int:
        """Ring predecessor of member ``ident`` (itself on a 1-ring)."""
        return self.idents[self.node_predecessor_pos(self._pos[ident])]

    # ------------------------------------------------------------------
    # Greedy forwarding, in rank space
    # ------------------------------------------------------------------
    def _forward(self, pos: int, owner: int, budget: int) -> tuple[int, int]:
        """The one routing loop: greedy forwarding from rank ``pos``
        toward the member of rank ``owner``.

        Returns ``(inside, hops)``: ``hops`` forwarding hops were taken
        (at most ``budget``) and ``inside`` members still lie strictly
        between the node reached and ``owner``.  ``inside == 0`` means
        the node reached is ``owner``'s predecessor — the successor
        shortcut of the object walk fires there and one more hop hands
        the message over.  ``pos == owner`` is the full circle, as in
        the object scan for a target equal to the node's identifier.

        Each hop takes the larger of two rank offsets (module
        docstring): the best finger's — ``Successor(current + 2**j)``
        for the highest power of two not past ``last``, the last member
        before the target, one bisect — and the deepest fitting
        successor-list entry's, ``min(r, n - 1, inside)``.  Equal
        offsets are the same node, which is all the object scan's
        strict ``>`` (a finger beats an equal list entry) ever decided.
        """
        n = self.n
        inside = owner - pos - 1
        if inside < 0:
            inside += n
        idents = self.idents
        size = self.size
        cap = self._successor_reach
        last = idents[owner - 1]  # negative index wraps, matching the ring
        hops = 0
        while inside and hops < budget:
            current = idents[pos]
            distance = last - current
            if distance < 0:
                distance += size
            start = current + (1 << (distance.bit_length() - 1))
            if start >= size:
                start -= size
            step = bisect_left(idents, start) - pos  # == n wraps to rank 0
            if step <= 0:
                step += n
            if step < cap:
                step = cap if cap < inside else inside
            pos += step
            if pos >= n:
                pos -= n
            inside -= step
            hops += 1
        return inside, hops

    def route_hops(self, pos: int, owner: int) -> int:
        """Hops of a routed message from rank ``pos`` to rank ``owner``.

        What both object loops bill on an exact ring:
        ``Router.find_successor`` returns the successor directly,
        ``Router._walk`` steps onto it and re-checks ownership — same
        node, same count.  Zero when the start already owns the target.
        """
        if pos == owner:
            return 0
        inside, hops = self._forward(pos, owner, self.max_hops)
        if inside:
            raise RoutingError(
                f"routing from rank {pos} toward rank {owner} exceeded "
                f"{self.max_hops} hops; ring snapshot is inconsistent"
            )
        return hops + 1

    def find_successor(self, start_ident: int, ident: int) -> tuple[int, int]:
        """``(owner position, hops)`` — mirrors ``Router.find_successor``."""
        owner = self.owner_pos(ident)
        return owner, self.route_hops(self._pos[start_ident], owner)

    def walk(self, start_ident: int, ident: int) -> tuple[int, int]:
        """``(owner position, hops)`` — mirrors the multisend ``_walk``."""
        return self.find_successor(start_ident, ident)

    def closest_preceding_finger_pos(self, pos: int, ident: int) -> int:
        """One step of the routing loop from ``pos`` toward ``ident``.

        The position the object node's finger scan would forward to;
        ``pos`` itself when no finger or successor-list entry lies
        strictly inside ``(self, ident)``.
        """
        owner = self.owner_pos(ident)
        inside, _ = self._forward(pos, owner, 1)
        return (owner - 1 - inside) % self.n


class SegmentMap:
    """Contiguous-segment shard ownership over a sorted ident array.

    The sharded executor (:mod:`repro.sim.shard`) assigns ring position
    ``p`` of ``n`` members to shard ``p * shards // n`` — contiguous,
    balanced segments.  This map answers "which shard owns identifier
    ``i``?" with one ``bisect`` over the shared sorted array instead of
    materializing an ident→shard dict, which at 10^6 members would cost
    tens of megabytes and a full pass to build even for single-shard
    runs that never ask.

    Holds a *reference* to the caller's array (construction is O(1));
    validity follows the same one-membership contract as
    :class:`RingSnapshot`.  Asking about a non-member identifier is a
    contract violation and returns the successor's segment.
    """

    __slots__ = ("idents", "shards", "_n")

    def __init__(self, idents: list[int], shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not idents:
            raise ValueError("segment map requires a non-empty ring")
        self.idents = idents
        self.shards = shards
        self._n = len(idents)

    def shard_of(self, ident: int) -> int:
        """The shard owning member ``ident``."""
        return bisect_left(self.idents, ident) * self.shards // self._n
