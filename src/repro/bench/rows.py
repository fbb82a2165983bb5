"""Stable dict ("row") serialization of benchmark results.

Every consumer of a measured run — the experiment database writer and
its gate (:mod:`repro.expdb`), the sharded differential
(:mod:`repro.bench.scale`) — needs the same invariant metrics in the
same vocabulary: :meth:`~repro.bench.harness.RunResult.to_row` /
:meth:`~repro.sim.shard.ShardRunResult.to_row` produce one **stable,
versioned, JSON-safe** row (plain ints/floats/strings/dicts — never
pickled objects), ``from_row`` reconstructs a result carrying the same
metrics, and :func:`metric_summary` projects a row onto a field set.
The notification digest every executor reports is hashed here too.

Stability contract: the row is what gets persisted (the
``repro.expdb`` SQLite history and its exports, ``BENCH_baseline.json``
included), so existing keys never change meaning.  Additions bump
:data:`ROW_VERSION`; readers must tolerate unknown keys.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping

from ..sim.stats import TrafficSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousQueryEngine

#: Version of the row layout produced by ``to_row`` implementations.
ROW_VERSION = 1

#: The invariant metrics of an unwindowed run.
MACRO_METRIC_FIELDS = (
    "hops",
    "messages",
    "stream_hops_by_type",
    "stream_messages_by_type",
    "notifications_delivered",
    "notification_digest",
)

#: ... plus eviction counts: what ``bench.scale --verify`` holds the
#: staged and forked executors to.
SCALE_METRIC_FIELDS = MACRO_METRIC_FIELDS + ("evictions",)


def delivered_pairs(engine: "ContinuousQueryEngine") -> dict[str, list[tuple]]:
    """``engine.delivered`` reduced to the digest-relevant pairs."""
    return {
        key: [(n.join_value_repr, repr(n.row)) for n in batch]
        for key, batch in engine.delivered.items()
    }


def digest_of_pairs(delivered: Mapping[str, Iterable[tuple]]) -> str:
    """A stable SHA-1 digest of every query's delivered answer set.

    Sorted per query and across queries, so delivery order (which may
    legitimately vary with routing internals) never affects the digest
    while any change to the *set* of answers does.  The sharded
    executor merges its workers' pairs and hashes them here; every
    other executor goes through :func:`notification_digest`.
    """
    canonical = sorted((key, sorted(pairs)) for key, pairs in delivered.items())
    return hashlib.sha1(repr(canonical).encode("utf-8")).hexdigest()


def notification_digest(engine: "ContinuousQueryEngine") -> str:
    """:func:`digest_of_pairs` of everything ``engine`` delivered."""
    return digest_of_pairs(delivered_pairs(engine))


def traffic_to_row(snapshot: TrafficSnapshot) -> dict:
    """One traffic snapshot as a JSON-safe dict with sorted type keys."""
    return {
        "hops": snapshot.hops,
        "messages": snapshot.messages,
        "hops_by_type": dict(sorted(snapshot.hops_by_type.items())),
        "messages_by_type": dict(sorted(snapshot.messages_by_type.items())),
        "messages_dropped": snapshot.messages_dropped,
        "retries": snapshot.retries,
        "messages_delayed": snapshot.messages_delayed,
    }


def traffic_from_row(row: Mapping) -> TrafficSnapshot:
    """Inverse of :func:`traffic_to_row` (unknown keys ignored)."""
    return TrafficSnapshot(
        hops=row["hops"],
        messages=row["messages"],
        hops_by_type=dict(row["hops_by_type"]),
        messages_by_type=dict(row["messages_by_type"]),
        messages_dropped=row.get("messages_dropped", 0),
        retries=row.get("retries", 0),
        messages_delayed=row.get("messages_delayed", 0),
    )


def metric_summary(
    row: Mapping, fields: Iterable[str] = SCALE_METRIC_FIELDS
) -> dict:
    """Project a result row onto a committed baseline's metric fields.

    ``fields`` controls both the selection *and* the key order.  Rows
    that are already summaries (top-level ``hops``/``messages`` instead
    of traffic snapshots, as in ``BENCH_history.json``) pass through
    unchanged, so the projection is idempotent.
    """
    empty = {"hops": 0, "messages": 0, "hops_by_type": {}, "messages_by_type": {}}
    install = row.get("install_traffic") or empty
    stream = row.get("stream_traffic") or empty
    full = {
        "hops": row.get("hops", install["hops"] + stream["hops"]),
        "messages": row.get("messages", install["messages"] + stream["messages"]),
        "stream_hops_by_type": dict(
            row.get("stream_hops_by_type", stream["hops_by_type"])
        ),
        "stream_messages_by_type": dict(
            row.get("stream_messages_by_type", stream["messages_by_type"])
        ),
        "notifications_delivered": row["notifications_delivered"],
        "notification_digest": row["notification_digest"],
        "evictions": row.get("evictions", 0),
        "exchange_records": row.get("exchange_records", 0),
    }
    return {name: full[name] for name in fields}
