"""Stable dict ("row") serialization of benchmark results.

Every consumer of a measured run — the experiment database writer and
its gate (:mod:`repro.expdb`), the sharded differential
(:mod:`repro.bench.scale`) — needs the same invariant metrics in the
same vocabulary: :meth:`~repro.bench.harness.RunResult.to_row` /
:meth:`~repro.sim.shard.ShardRunResult.to_row` produce one **stable,
versioned, JSON-safe** row (plain ints/floats/strings/dicts — never
pickled objects), ``from_row`` reconstructs a result carrying the same
metrics, and :func:`metric_summary` projects a row onto a field set.
The notification digest every executor reports is hashed here too, and
:func:`aggregate` is the one group-and-average every reader of stored
rows goes through (``expdb report --group-by``, the figures).

Stability contract: the row is what gets persisted (the
``repro.expdb`` SQLite history and its exports, ``BENCH_baseline.json``
included), so existing keys never change meaning.  Additions bump
:data:`ROW_VERSION`; readers must tolerate unknown keys.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from ..sim.stats import TrafficSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousQueryEngine
    from ..core.metrics import LoadSnapshot

#: Version of the row layout produced by ``to_row`` implementations
#: (2 added the ``load`` block of ``sim``/``live`` rows).
ROW_VERSION = 2

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


def load_to_row(
    load: "LoadSnapshot", per_tuple_hops: Sequence[int] = ()
) -> dict:
    """The paper's §1.1 load observations of one run, all integers.

    Totals and maxima per indexing level plus the per-node filtering
    and storage vectors, descending with the zeros left out (``nodes``
    says how many there were): Gini, top share and participation are
    functions of those vectors (:mod:`repro.sim.stats`) and are derived
    when a table is extracted, never stored.  With a per-tuple hop
    series, ``fifth`` carries the hops of the first and of the last
    fifth of the stream (E2's warm-up comparison).
    """

    def level(name: str, per_node: Mapping[int, int]) -> dict:
        values = per_node.values()
        return {name: sum(values), f"{name}_max": max(values, default=0)}

    row = {
        "nodes": len(load.filtering),
        "TF": load.total_filtering,
        "TS": load.total_storage,
        **level("al_filtering", load.attribute_level_filtering),
        **level("vl_filtering", load.value_level_filtering),
        **level("al_storage", load.attribute_level_storage),
        **level("vl_storage", load.value_level_storage),
        "filtering": sorted(filter(None, load.filtering.values()), reverse=True),
        "storage": sorted(filter(None, load.storage.values()), reverse=True),
    }
    if per_tuple_hops:
        fifth = max(1, len(per_tuple_hops) // 5)
        row["fifth"] = {
            "events": fifth,
            "first_hops": sum(per_tuple_hops[:fifth]),
            "last_hops": sum(per_tuple_hops[-fifth:]),
        }
    return row


def aggregate(
    rows: Iterable[Mapping],
    by: Sequence[str],
    columns: Mapping[str, Callable[[list], object]],
) -> list[dict]:
    """Group ``rows`` by the ``by`` keys and reduce each group.

    One output row per distinct key, in first-seen order: the key
    columns, then ``columns`` — name → function of the group's member
    list (:func:`mean_over` builds the usual one).
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple(row[name] for name in by), []).append(row)
    return [
        {**dict(zip(by, key)), **{name: fn(members) for name, fn in columns.items()}}
        for key, members in groups.items()
    ]


def mean_over(value: Callable[[Mapping], Optional[float]]) -> Callable[[list], object]:
    """An :func:`aggregate` column: the mean of ``value(row)`` over the
    members that have one (``None`` when none does).  Exact: integers
    that average to an integer stay one."""

    def column(members: list):
        numbers = [n for n in map(value, members) if n is not None]
        return statistics.mean(numbers) if numbers else None

    return column


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
