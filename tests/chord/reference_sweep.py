"""The object-walk recursive ``multisend``, kept as a reference oracle.

Until the recursive sweep became one loop of ordinary ``find_successor``
legs, the router carried its own object-walk sweep: a cursor over the
clockwise-sorted identifiers, a ``pending`` map from identifier to input
positions for duplicates, and a private ``_walk`` that repeated
``find_successor``'s object loop.  That path is gone from ``src/``; this
module is its body, unchanged in behaviour, so
``test_sweep_reference.py`` can replay random sweeps on churned rings
through both and demand identical recipients, delivery order and
per-type traffic.

:class:`ReferenceSweepRouter` is a ringless ``Router`` (the object walk
on any ring) whose recursive ``multisend`` is that sweep.
"""

from __future__ import annotations

from typing import Sequence

from repro.chord.idspace import IdentifierSpace
from repro.chord.node import ChordNode
from repro.chord.routing import Router
from repro.errors import RoutingError
from repro.sim.messages import Message


def sort_clockwise(space: IdentifierSpace, start: int, idents: list[int]) -> list[int]:
    """Sort ``idents`` in ascending clockwise order starting at ``start``.

    This is the first step of the recursive ``multisend`` (Section 2.3):
    the sender orders the recipient identifiers clockwise from its own
    identifier so the message can sweep the ring once.
    """
    size = space.size
    return sorted(idents, key=lambda ident: (ident - start) % size)


class ReferenceSweepRouter(Router):
    """A ringless router sweeping with the object walk of old."""

    def _multisend_recursive(
        self, source: ChordNode, messages: list[Message], idents: Sequence[int]
    ) -> list[ChordNode]:
        if not idents:
            return []
        order = sort_clockwise(self.space, source.ident, list(idents))
        pending: dict[int, list[int]] = {}
        for position, ident in enumerate(idents):
            pending.setdefault(ident, []).append(position)
        targets: list[ChordNode | None] = [None] * len(idents)

        cursor = 0
        n_order = len(order)
        current = source
        total_hops = 0
        while cursor < n_order:
            head = order[cursor]
            responsible, hops = self._walk(current, head)
            total_hops += hops
            # The responsible node strips every identifier it owns; the
            # head is its to keep even unclaimed.
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

    def _walk(self, start: ChordNode, ident: int) -> tuple[ChordNode, int]:
        """Forward from ``start`` until the owner of ``ident`` is reached."""
        size = self.space.size
        max_hops = self.max_hops
        current = start
        hops = 0
        while not current.owns(ident):
            successor = current.successor
            if successor is current:
                break
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
