"""Arithmetic on the circular Chord identifier space.

All identifier comparisons in Chord are *circular*: identifiers live on a
ring modulo ``2**m`` (paper Section 2.2, Figure 2.1) and ownership /
routing decisions are phrased as membership in ring intervals such as
``(n, successor]``.  This module centralizes that modular arithmetic so
the node, network and routing code never reimplement it.

The interval predicates here are the innermost loop of every routed
message (millions of calls per experiment), so the ring size is
precomputed once and each predicate is a couple of subtractions and one
modulo — no nested method calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IdentifierSpace:
    """The ring of identifiers ``0 .. 2**m - 1``.

    Provides interval membership with configurable endpoint inclusion and
    the clockwise distance used to sort ``multisend`` recipient lists.
    """

    m: int
    #: ``2**m``, precomputed — reading an attribute beats re-shifting on
    #: every one of the millions of interval checks per experiment.
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size", 1 << self.m)

    def validate(self, ident: int) -> int:
        """Return ``ident`` if it is a valid identifier, else raise."""
        if not 0 <= ident < self.size:
            raise ValueError(f"identifier {ident} outside [0, 2**{self.m})")
        return ident

    def shift(self, ident: int, offset: int) -> int:
        """Clockwise shift: ``(ident + offset) mod 2**m``.

        Used to compute finger targets ``n + 2**(j-1)``.
        """
        return (ident + offset) % self.size

    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end``.

        ``distance(a, a) == 0``; the result is always in ``[0, 2**m)``.
        """
        return (end - start) % self.size

    def in_open(self, ident: int, low: int, high: int) -> bool:
        """Membership in the open ring interval ``(low, high)``.

        When ``low == high`` the interval covers the whole ring except
        the single point ``low`` (the standard Chord convention for a
        one-node ring).
        """
        if low == high:
            return ident != low
        size = self.size
        return 0 < (ident - low) % size < (high - low) % size

    def in_half_open(self, ident: int, low: int, high: int) -> bool:
        """Membership in ``(low, high]`` — the key-ownership interval.

        A node ``n`` with predecessor ``p`` owns exactly the keys in
        ``(p, n]``.  When ``low == high`` the interval is the full ring
        (a single node owns everything).
        """
        if low == high:
            return True
        size = self.size
        return 0 < (ident - low) % size <= (high - low) % size
