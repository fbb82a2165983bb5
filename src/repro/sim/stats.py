"""Traffic and load accounting.

The paper's evaluation (Chapter 5) reports three families of metrics:

* **network traffic** — overlay hops, counted per message as it is
  forwarded through finger tables;
* **filtering load** — how many query/tuple candidates a node examines
  while processing incoming messages;
* **storage load** — how many items (queries, rewritten queries, tuples,
  parked notifications) a node keeps.

:class:`TrafficStats` is fed by the routing layer; per-node filtering
counters live in :class:`NodeLoad`; the module-level helpers aggregate
per-node vectors into the distribution statistics the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass
class TrafficSnapshot:
    """An immutable copy of the traffic counters at one point in time."""

    hops: int
    messages: int
    hops_by_type: dict[str, int]
    messages_by_type: dict[str, int]
    messages_dropped: int = 0
    retries: int = 0
    messages_delayed: int = 0

    def __add__(self, other: "TrafficSnapshot") -> "TrafficSnapshot":
        """Counters of two disjoint stretches of traffic, summed."""
        return self._combine(other, 1)

    def __sub__(self, other: "TrafficSnapshot") -> "TrafficSnapshot":
        """Counters accumulated after ``other`` (an earlier snapshot)."""
        return self._combine(other, -1)

    def _combine(self, other: "TrafficSnapshot", sign: int) -> "TrafficSnapshot":
        def add(mine, theirs):
            if isinstance(mine, dict):
                keys = {**mine, **theirs}
                return {key: mine.get(key, 0) + sign * theirs.get(key, 0) for key in keys}
            return mine + sign * theirs

        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return TrafficSnapshot(*(add(mine, theirs) for mine, theirs in pairs))


class TrafficStats:
    """Mutable hop/message counters shared by one network's router.

    ``record``/``record_batch`` sit on the per-message hot path of the
    simulator, so this is a ``__slots__`` class over plain dicts: no
    per-instance ``__dict__``, no :class:`collections.Counter` dispatch
    overhead, and no allocation once a message type has been seen.
    """

    __slots__ = (
        "hops",
        "messages",
        "hops_by_type",
        "messages_by_type",
        "messages_dropped",
        "retries",
        "messages_delayed",
        "dropped_by_type",
    )

    def __init__(self) -> None:
        self.hops = 0
        self.messages = 0
        self.hops_by_type: dict[str, int] = {}
        self.messages_by_type: dict[str, int] = {}
        #: Fault accounting (all stay 0 without an active fault plan):
        #: delivery attempts lost in transit, retransmissions after a
        #: loss, and deliveries deferred by injected delay.
        self.messages_dropped = 0
        self.retries = 0
        self.messages_delayed = 0
        self.dropped_by_type: dict[str, int] = {}

    def record(self, message_type: str, hops: int) -> None:
        """Account one routed message that took ``hops`` overlay hops."""
        self.hops += hops
        self.messages += 1
        hops_by_type = self.hops_by_type
        hops_by_type[message_type] = hops_by_type.get(message_type, 0) + hops
        messages_by_type = self.messages_by_type
        messages_by_type[message_type] = messages_by_type.get(message_type, 0) + 1

    def record_batch(self, message_type: str, message_count: int, hops: int) -> None:
        """Account a batch of messages that shared a routing path.

        The recursive ``multisend`` (Section 2.3) delivers ``k`` messages
        while sweeping the ring once, so the hop total is a property of
        the batch rather than of any single message.
        """
        self.hops += hops
        self.messages += message_count
        hops_by_type = self.hops_by_type
        hops_by_type[message_type] = hops_by_type.get(message_type, 0) + hops
        messages_by_type = self.messages_by_type
        messages_by_type[message_type] = (
            messages_by_type.get(message_type, 0) + message_count
        )

    def record_hops(self, message_type: str, hops: int) -> None:
        """Account extra hops that are not a standalone message.

        Used for lookup traffic (e.g. rate probes resolving a rewriter)
        where the figure of interest is hop count only.
        """
        self.hops += hops
        hops_by_type = self.hops_by_type
        hops_by_type[message_type] = hops_by_type.get(message_type, 0) + hops

    def record_drop(self, message_type: str) -> None:
        """Account one delivery attempt lost by fault injection."""
        self.messages_dropped += 1
        dropped = self.dropped_by_type
        dropped[message_type] = dropped.get(message_type, 0) + 1

    def record_retry(self, message_type: str) -> None:
        """Account one retransmission after a dropped attempt."""
        del message_type
        self.retries += 1

    def record_delayed(self, message_type: str) -> None:
        """Account one delivery deferred by injected delay."""
        del message_type
        self.messages_delayed += 1

    def snapshot(self) -> TrafficSnapshot:
        """Copy the current counters."""
        return TrafficSnapshot(
            hops=self.hops,
            messages=self.messages,
            hops_by_type=dict(self.hops_by_type),
            messages_by_type=dict(self.messages_by_type),
            messages_dropped=self.messages_dropped,
            retries=self.retries,
            messages_delayed=self.messages_delayed,
        )

    def since(self, earlier: TrafficSnapshot) -> TrafficSnapshot:
        """Counters accumulated after ``earlier`` was taken."""
        return self.snapshot() - earlier

    def reset(self) -> None:
        """Zero every counter."""
        self.hops = 0
        self.messages = 0
        self.hops_by_type.clear()
        self.messages_by_type.clear()
        self.messages_dropped = 0
        self.retries = 0
        self.messages_delayed = 0
        self.dropped_by_type.clear()


class NodeLoad:
    """Per-node load counters (filtering load; storage is derived).

    ``filtering`` counts query/tuple *candidates examined*, which with
    the two-level hash tables of Section 4.3.5 equals the size of the
    bucket each incoming message is matched against.  ``attribute_level``
    and ``value_level`` split the same quantity by the indexing level so
    the rewriter/evaluator roles can be reported separately.

    One instance per simulated node, touched on every message a node
    processes — ``__slots__`` keeps the million-node footprint and the
    attribute access cost down.
    """

    __slots__ = (
        "filtering",
        "attribute_level_filtering",
        "value_level_filtering",
        "messages_processed",
        "notifications_created",
        "lease_reinstalls",
    )

    def __init__(self) -> None:
        self.filtering = 0
        self.attribute_level_filtering = 0
        self.value_level_filtering = 0
        self.messages_processed = 0
        self.notifications_created = 0
        #: Lease refreshes that actually *restored* a query copy this
        #: node was missing (crash recovery); refreshes of present
        #: copies are deduplicated and not counted.
        self.lease_reinstalls = 0

    def add_attribute_level(self, candidates: int) -> None:
        """Account a filtering step performed by a rewriter."""
        self.filtering += candidates
        self.attribute_level_filtering += candidates

    def add_value_level(self, candidates: int) -> None:
        """Account a filtering step performed by an evaluator."""
        self.filtering += candidates
        self.value_level_filtering += candidates


# ----------------------------------------------------------------------
# Distribution helpers (used by the load-distribution figures)
# ----------------------------------------------------------------------

def sorted_loads(values) -> np.ndarray:
    """Per-node loads sorted descending — the x-axis of Figures 5.10+."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return array
    return np.sort(array)[::-1]


def gini(values) -> float:
    """Gini coefficient of a load vector (0 = perfectly balanced).

    A single scalar summary of the load-distribution curves the paper
    plots; used by the benchmarks to assert that one algorithm
    distributes load better than another.
    """
    array = np.sort(np.asarray(list(values), dtype=float))
    if array.size == 0:
        return 0.0
    total = array.sum()
    if total == 0:
        return 0.0
    n = array.size
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * array).sum()) / (n * total) - (n + 1) / n)


def top_share(values, fraction: float = 0.01) -> float:
    """Fraction of total load carried by the top ``fraction`` of nodes.

    ``top_share(loads, 0.01)`` answers "how much of the work do the 1%
    most loaded nodes do?" — the quantity behind Figure 5.15.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    array = sorted_loads(values)
    if array.size == 0:
        return 0.0
    total = array.sum()
    if total == 0:
        return 0.0
    count = max(1, int(round(array.size * fraction)))
    return float(array[:count].sum() / total)


def percentile_series(values, percentiles=(50, 90, 99, 100)) -> dict[int, float]:
    """Selected percentiles of a load vector, highest-load oriented."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return {p: 0.0 for p in percentiles}
    return {p: float(np.percentile(array, p)) for p in percentiles}


def participation(values) -> float:
    """Fraction of nodes with non-zero load (network utilization).

    Section 4.1 motivates the two-level scheme by the *network
    utilization*: "the percentage of nodes participating in query
    processing".
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.count_nonzero(array) / array.size)
