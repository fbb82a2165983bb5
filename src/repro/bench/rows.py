"""The result row: one report of a measured run, one stable dict.

Every executor — the serial simulator
(:func:`repro.bench.harness.run_workload`), the staged one
(:func:`repro.sim.shard.run_sharded`) and the live cluster
(:meth:`repro.net.cluster.LiveCluster.run`) — returns one
:class:`RunReport`, and :meth:`RunReport.to_row` turns it into one
**stable, versioned, JSON-safe** row (plain ints/floats/strings/dicts —
never pickled objects) of the same shape.  :func:`exact_columns` is what
a re-run must repeat bit for bit, and :func:`differences` the one
comparison over it, for the experiment database's gate and its
cross-executor diff (:mod:`repro.expdb.gate`) alike; the diff and the
runner's answer check hold a row to its ``sim`` sibling through
:func:`sibling_differences`, less the paths :data:`MAY_DIFFER` allows.
The notification digest every executor reports is hashed here too, and
:func:`aggregate` is the one group-and-average every reader of stored
rows goes through (``expdb report --group-by``, the figures).

Stability contract: the row is what gets persisted (the
``repro.expdb`` SQLite history and its exports, ``BENCH_baseline.json``
included), so existing keys never change meaning.  A layout change
bumps :data:`ROW_VERSION`; readers must tolerate unknown keys, and
:func:`metric_summary` still reads the rows older versions stored.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..sim.stats import TrafficSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousQueryEngine
    from ..core.metrics import LoadSnapshot

#: Version of the row :meth:`RunReport.to_row` produces (2 added ``load``
#: to ``sim``/``live`` rows; 3 gave every executor the one shape).
ROW_VERSION = 3

#: Machine-independent columns of a row, denormalized into the
#: experiment database's columns (:func:`metric_summary`).
METRIC_FIELDS = (
    "hops",
    "messages",
    "notifications_delivered",
    "notification_digest",
    "evictions",
    "exchange_records",
)


@dataclass
class RunReport:
    """One measured run of any executor: what every result row is made of.

    The answer set and the per-node load are read off ``engine`` (the
    driver's) on first use, not at return: at scale they cost a fair
    share of the run, and benchmark timers stop when the executor returns.
    """

    #: ``"run"`` (serial simulator), ``"shard"`` or ``"live"``.
    kind: str
    engine: "ContinuousQueryEngine"
    #: Overlay traffic up to the first streamed tuple (live: up to the
    #: post-install drain), and from there to the end of the run.
    install_traffic: TrafficSnapshot
    stream_traffic: TrafficSnapshot
    #: Workload events replayed, warm-up tuples included.
    events: int
    #: Sliding-window items evicted (0 when unbounded).
    evictions: int
    #: Answers the sender-side filter dropped before their hop.
    suppressed_renotifications: int
    #: Repeat arrivals the subscriber-side identity check dropped.
    duplicate_deliveries: int
    #: Hops of each streamed tuple, when the serial replay collected them.
    per_tuple_hops: list = field(default_factory=list)
    #: What only the staged executor measures: ``shards``,
    #: ``exchange_records`` (worker records whose next-stage owner was
    #: another shard; 0 in process) and the lifted modes (``features``).
    shard: Optional[dict] = None
    #: What only the live cluster measures: phase timings, stream rates,
    #: wire counters, peak in-flight credits and latency.
    live: Optional[dict] = None
    #: A forked run's answer pairs and load, from the workers that hold them.
    gathered_pairs: Optional[dict] = None
    gathered_load: Optional["LoadSnapshot"] = None

    @cached_property
    def notifications_delivered(self) -> int:
        pairs = self.gathered_pairs
        return sum(map(len, (self.engine.delivered if pairs is None else pairs).values()))

    @cached_property
    def notification_digest(self) -> str:
        """The canonical answer-set digest (:func:`digest_of_pairs`)."""
        if self.gathered_pairs is None:
            return notification_digest(self.engine)
        return digest_of_pairs(self.gathered_pairs)

    @cached_property
    def load(self) -> "LoadSnapshot":
        """Per-node filtering/storage vectors at the end of the run."""
        if self.gathered_load is None:
            return self.engine.load_snapshot()
        return self.gathered_load

    def to_row(self) -> dict:
        """This run as a stable JSON-safe row: the same keys for every
        executor, ``shard``/``live`` ``None`` where they do not apply."""
        return {
            "row_version": ROW_VERSION,
            "kind": self.kind,
            "install_traffic": traffic_to_row(self.install_traffic),
            "stream_traffic": traffic_to_row(self.stream_traffic),
            "notifications_delivered": self.notifications_delivered,
            "notification_digest": self.notification_digest,
            "suppressed_renotifications": self.suppressed_renotifications,
            "duplicate_deliveries": self.duplicate_deliveries,
            "evictions": self.evictions,
            "events": self.events,
            "load": load_to_row(self.load, self.per_tuple_hops),
            "shard": self.shard,
            "live": self.live,
        }


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
    row: Mapping, fields: Iterable[str] = METRIC_FIELDS
) -> dict:
    """Project a result row onto its metric columns.

    ``fields`` controls both the selection *and* the key order.  Rows
    that are already summaries (top-level ``hops``/``messages`` instead
    of traffic snapshots, as ``live`` rows before version 3 and the
    rows of ``BENCH_history.json`` store them) pass through unchanged,
    so the projection is idempotent.
    """
    empty = {"hops": 0, "messages": 0}
    install = row.get("install_traffic") or empty
    stream = row.get("stream_traffic") or empty
    full = {
        "hops": row.get("hops", install["hops"] + stream["hops"]),
        "messages": row.get("messages", install["messages"] + stream["messages"]),
        "notifications_delivered": row["notifications_delivered"],
        "notification_digest": row["notification_digest"],
        "evictions": row.get("evictions", 0),
        "exchange_records": row.get(
            "exchange_records", (row.get("shard") or {}).get("exchange_records", 0)
        ),
    }
    return {name: full[name] for name in fields}


def exact_columns(metrics: Mapping) -> dict:
    """What a re-run must reproduce bit for bit, from one metrics row:
    the metric columns plus the per-type traffic snapshots and the load
    block it carries."""
    exact = metric_summary(metrics)
    for part in ("install_traffic", "stream_traffic", "load"):
        if part in metrics:
            exact[part] = metrics[part]
    return exact


#: The columns that say which answers a run delivered.
ANSWER_COLUMNS = ("notification_digest", "notifications_delivered")

_SERIAL = "the per-tuple hop series is the serial replay's"
_BILLING = "live bills each sweep forward once, as multisend; sim splits it by type"
_WRAP = "a sim sweep walks back round the ring to deliver the source's own pairs"
_ORDER = "live handlers run in arrival order, so answers batch into other messages"

#: Column paths in which a row may differ from its ``sim`` sibling, by
#: ``(transport, algorithm)`` (``None``: every algorithm), each with why
#: (DESIGN.md §16).  An entry covers its path and all under it.
MAY_DIFFER: dict[tuple, dict[str, str]] = {
    ("shard", None): {
        "exchange_records": "records that crossed between forked shards; 0 in process",
        "load.fifth": _SERIAL,
    },
    ("live", None): {
        "load.fifth": _SERIAL,
        "hops": "install_traffic.hops + stream_traffic.hops",
        "messages": "stream_traffic.messages",
        "install_traffic.hops": _WRAP,
        "install_traffic.hops_by_type": _BILLING,
        "stream_traffic.hops": _WRAP + "; notifications; DAI-T's send-once memory",
        "stream_traffic.hops_by_type": _BILLING,
        "stream_traffic.messages": _ORDER,
        "stream_traffic.messages_by_type.notification": _ORDER,
    },
    ("live", "dai-v"): {
        "load.TF": "load.vl_filtering",
        "load.vl_filtering": "a join counts the projections stored when it arrives",
        "load.filtering": "load.vl_filtering, per node",
    },
}


def differences(expected, got, path: str = "") -> Iterator[tuple]:
    """``(column path, expected, got)`` for every leaf that differs."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            yield from differences(
                expected.get(key), got.get(key), f"{path}.{key}" if path else key
            )
    elif expected != got:
        yield path, expected, got


def sibling_differences(
    sim_metrics: Mapping, metrics: Mapping, params: Mapping, columns=None
) -> list[tuple]:
    """``(column path, sim, this)`` for every exact column (or every one
    of ``columns``) in which the row of ``params`` differs from its
    ``sim`` sibling, less what :data:`MAY_DIFFER` allows its transport."""
    keys = [(params["transport"], None), (params["transport"], params["algorithm"])]
    allowed = [path for key in keys for path in MAY_DIFFER.get(key, ())]
    expected, got = exact_columns(sim_metrics), exact_columns(metrics)
    names = expected if columns is None else columns
    return [
        (path, old, new)
        for path, old, new in differences(
            {name: expected[name] for name in names}, {name: got.get(name) for name in names}
        )
        if not any(path == entry or path.startswith(entry + ".") for entry in allowed)
    ]
