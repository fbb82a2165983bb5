"""Consistent hashing for the Chord identifier space.

The paper (Section 2.2) assigns every node and every data item an *m*-bit
identifier produced by a cryptographic hash (SHA-1) of its key.  Keys for
queries and tuples are built by concatenating relation names, attribute
names and attribute values, e.g. ``Hash(R + A + v)``.  We join the parts
with an explicit separator so that ``("RA", "B")`` and ``("R", "AB")``
never collide by accident.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from ..perf import PERF

#: Separator used when concatenating key parts, mirroring the paper's
#: ``+`` operator on strings but unambiguous.
KEY_SEPARATOR = "|"

#: Identifier-space size used by the paper's examples (SHA-1).
SHA1_BITS = 160

#: Default identifier size for simulations.  32 bits keeps identifiers
#: readable in traces while making collisions vanishingly unlikely at
#: simulated scales (thousands of nodes, millions of items).
DEFAULT_M = 32

#: Bound of the SHA-1 memo below.  Zipf-skewed workloads hash the same
#: handful of ``relation|attribute|value`` keys over and over; 2**16
#: distinct keys comfortably covers the working set of the largest
#: simulated runs while keeping worst-case memory small (a few MB).
HASH_CACHE_SIZE = 1 << 16


def digest(key: str) -> int:
    """The full 160-bit SHA-1 digest of ``key``, as an integer."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest(), "big")


@lru_cache(maxsize=HASH_CACHE_SIZE)
def hash_key(key: str) -> int:
    """:func:`digest`, memoized.

    Every routing identifier in the system is derived from this digest,
    and under the paper's skewed workloads the same keys recur
    constantly (hot attribute values, per-relation keys, lease
    renewals).  The digest is cached *unreduced* so one entry serves
    every identifier-space size ``m`` — reducing modulo ``2**m`` is a
    cheap mask applied by the caller.
    """
    return digest(key)


def hash_key_cache_info():
    """Cache statistics of the SHA-1 memo (for tests and perf reports)."""
    return hash_key.cache_info()


def hash_key_cache_clear() -> None:
    """Drop all memoized digests (cold-cache benchmarking, tests)."""
    hash_key.cache_clear()


def make_key(*parts: object) -> str:
    """Build a routing key from its components.

    This is the paper's string concatenation ``R + A + v``: relation
    name, attribute name, attribute value (numeric values are converted
    to strings, as stated in Section 4.2).

    >>> make_key("R", "B", 7)
    'R|B|7'
    """
    # ``map`` over a genexpr: this runs once per indexed key, several
    # hundred thousand times per experiment.
    return KEY_SEPARATOR.join(map(str, parts))


class ConsistentHash:
    """SHA-1 based consistent hash onto an ``m``-bit identifier circle.

    Instances are callable: ``h("R|B|7")`` returns an integer in
    ``[0, 2**m)``.  The same instance must be shared by every node of a
    network so that all participants agree on key placement.
    """

    __slots__ = ("m", "modulus", "_parts_cache")

    def __init__(self, m: int = DEFAULT_M):
        if not 8 <= m <= SHA1_BITS:
            raise ValueError(f"m must be in [8, {SHA1_BITS}], got {m}")
        self.m = m
        self.modulus = 1 << m
        #: Identifier memo keyed by the parts tuple: skips even the key
        #: string concatenation for recurring ``(R, A, v)`` lookups.
        self._parts_cache: dict[tuple, int] = {}

    def __call__(self, key: str) -> int:
        return hash_key(key) % self.modulus

    def node_ident(self, key: str) -> int:
        """``Hash(Key(n))`` of a node key, not memoized: a member key is
        hashed once, and caching it would only push workload keys out of
        the memo (a 2**16-node build would fill it)."""
        return digest(key) % self.modulus

    def hash_parts(self, *parts: object) -> int:
        """Hash the concatenation of ``parts`` (``Hash(R + A + v)``)."""
        cache = self._parts_cache
        ident = cache.get(parts)
        if ident is None:
            ident = hash_key(make_key(*parts)) % self.modulus
            if len(cache) < HASH_CACHE_SIZE:
                cache[parts] = ident
            if PERF.enabled:
                PERF.count("hash.parts_miss")
        elif PERF.enabled:
            PERF.count("hash.parts_hit")
        return ident

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConsistentHash(m={self.m})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConsistentHash) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("ConsistentHash", self.m))
