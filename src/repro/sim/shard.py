"""Sharded segment execution of the streaming phase (DESIGN.md §14–15).

At large ring sizes the cost of an E14-style sweep point is dominated
by handler execution at the nodes, and — fault-free — the stream phase
decomposes into *stages* whose work partitions cleanly across
contiguous ring segments:

* **stage 0** (driver): publish each tuple — compute its ``al-index``/
  ``vl-index`` identifiers and route the multisend over the ring
  snapshot.  Routing touches topology only, so it commutes with every
  handler effect and is billed to the driver's traffic counters
  exactly as a serial run would bill it.
* **stage A** (workers): rewriters process ``al-index`` messages and
  emit ``join`` messages.
* **stage B** (workers): evaluators process ``vl-index`` and ``join``
  messages and *propose* notifications through the engine's
  ``notification_gateway`` instead of shipping them.
* **barrier resolution** (driver): notification candidates from all
  shards are replayed in global causal order against a mirror of the
  subscriber-side duplicate filter, reproducing the serial
  pre-hop suppression (and its hop accounting) exactly.
* **stage C** (workers): subscribers record the surviving deliveries.

**Why determinism survives the sharding.**  Every enqueued message
carries a causal-path timestamp ``ts``: stage-0 publishes of the
``k``-th stream event stamp their deliveries ``(k, 0), (k, 1), ...``
and a handler processing a message stamped ``T`` stamps its own sends
``T + (0,), T + (1,), ...`` — so lexicographic ``ts`` order *is* the
depth-first execution order of the serial simulator.  Each worker
sorts its per-stage inbox by ``ts`` before processing; since a node
lives in exactly one shard, the messages any node processes are a
``ts``-ordered subsequence of the serial order, and per-node state
(the only state handlers mutate besides notifications) evolves
identically.  Notifications are the one cross-node interaction — the
engine-global duplicate filter makes suppression order-dependent —
which is why they are resolved centrally, in global ``ts`` order, at
the B→C barrier.

Batching whole epochs of ``batch_size`` events per stage cycle is
exact for the same reason: stage 0 commutes with handler work, and
everything else is ordered by ``ts`` regardless of which epoch carried
it.

**Lifted modes (DESIGN.md §15).**  Three engine features that early
versions rejected outright now run sharded, each carried by a named
mechanism (see :func:`shard_capabilities`):

* *barrier-aligned eviction* — sliding-window eviction happens only at
  stage barriers, on the serial ``evict_every`` schedule: epochs are
  clipped so each eviction boundary falls exactly at an epoch end, and
  the driver replays the eviction with the serial cutoff
  (``clock.now - window``), broadcast to forked workers which each
  sweep only the nodes they own.  Exact because eviction commutes with
  everything between two boundaries: entries only leave a window heap
  when no future event could match them (event times are monotone), so
  deferring the sweep to the barrier removes the *same* entries the
  serial mid-epoch sweep would have removed.
* *owner-aware replica exchange* — replica placements
  (``Hash(R+A+"#j")``) land on arbitrary segments, but every replica
  store/probe is staged as an ``(ts, time, owner_ident, message)``
  record and routed to its owner's shard through the driver's command
  pipes at the next barrier, so cross-shard replication needs no new
  ordering argument: the records were already partitioned by target.
* *owner-aware JFRT exchange* — a JFRT hit short-circuits routing with
  ``send_direct`` to a cached evaluator that may live on another
  shard; the staged delivery crosses segments the same driver-mediated
  way.  JFRT state itself stays exact because each rewriter (and thus
  its cache) lives in exactly one shard and learns from the same
  ``ts``-ordered message subsequence as the serial run.

The one genuinely unsupported configuration is a perturbing fault
injector: drops/delays/crashes make delivery order nondeterministic,
which the staged replay cannot reproduce.  The differential tests in
``tests/sim/test_shard.py`` and ``tests/sim/test_shard_features.py``
assert bit-identical traffic counters, eviction counts and
notification digests against :func:`repro.bench.harness.run_workload`
for all four algorithms, both in-process and forked.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from ..bench.rows import (
    ROW_VERSION,
    delivered_pairs,
    digest_of_pairs,
    traffic_from_row,
    traffic_to_row,
)
from ..chord.routing import Router
from ..chord.snapshot import SegmentMap
from ..core.notifications import group_by_subscriber
from ..perf import PERF
from .collector import CollectorPause
from .events import EventRing
from .messages import NotificationMessage
from .stats import TrafficSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousQueryEngine
    from ..workload.generator import WorkloadEvent

#: Message type → pipeline stage.  ``query``/``unsubscribe`` only occur
#: during the serial install phase and are deliberately absent: seeing
#: one mid-stream is a protocol violation, not a stage.
STAGE_BY_TYPE = {
    "al-index": "A",
    "vl-index": "B",
    "join": "B",
    "notification": "C",
}

#: Stages whose items a phase may legitimately produce.
PRODUCES = {
    "publish": frozenset("AB"),
    "A": frozenset("B"),
    "B": frozenset(),  # evaluator output goes through the gateway
    "C": frozenset(),
}


class ShardError(RuntimeError):
    """A configuration or protocol violation of the sharded executor."""


def fork_available() -> bool:
    """True when the platform supports forked workers.

    The sharded simulator relies on fork semantics — workers inherit a
    fully built engine copy-on-write — so it degrades to in-process
    staged execution elsewhere.
    """
    return "fork" in multiprocessing.get_all_start_methods()


class ShardPool:
    """Persistent forked workers exchanging messages over pipes.

    Sharded simulation needs *stateful* workers: each holds one ring
    segment of a forked engine replica and participates in several
    message exchanges per epoch.  ``worker_main(conn, index)`` runs in
    each child — a closure over the pre-built engine, which fork shares
    copy-on-write — and owns the command protocol; the pool only
    provides the scatter/gather plumbing.
    """

    def __init__(self, n_shards: int, worker_main: Callable[[object, int], None]):
        if not fork_available():
            raise RuntimeError("ShardPool requires the fork start method")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        context = multiprocessing.get_context("fork")
        self.n_shards = n_shards
        self._conns = []
        self._procs = []
        for index in range(n_shards):
            parent, child = context.Pipe()
            process = context.Process(
                target=worker_main, args=(child, index), daemon=True
            )
            process.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(process)

    def scatter(self, payloads: Sequence) -> None:
        """Send ``payloads[i]`` to shard ``i`` (one per shard)."""
        if len(payloads) != self.n_shards:
            raise ValueError("one payload per shard required")
        for conn, payload in zip(self._conns, payloads):
            conn.send(payload)

    def broadcast(self, payload) -> None:
        """Send the same payload to every shard (one pickle per pipe)."""
        for conn in self._conns:
            conn.send(payload)

    def gather(self) -> list:
        """Receive one reply from every shard, in shard order."""
        return [conn.recv() for conn in self._conns]

    def close(self) -> None:
        """Close pipes and reap the workers (best effort)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - teardown best effort
                process.terminate()
                process.join(timeout=5)


class ShardTransport(Router):
    """A router that *stages* final deliveries instead of making them.

    Inherits every routing decision (snapshot fast path included) and
    all traffic accounting from :class:`~repro.chord.routing.Router`;
    only the final hop is replaced: ``_deliver`` classifies the message
    by type and appends ``(ts, time, target_ident, message)`` to the
    stage buffer, to be processed at that node's shard after the next
    barrier.  The ``ts`` counter is shared between deliveries and
    gateway calls so both inherit the serial depth-first order.
    """

    def __init__(self, network):
        router = network.router
        super().__init__(router.space, stats=router.stats, injector=None)
        self.ring = network
        self._ts_prefix: tuple = ()
        self._counter = 0
        self.time = 0.0
        self.allowed: frozenset = PRODUCES["publish"]
        self.staged: dict[str, list] = {"A": [], "B": [], "C": []}
        #: ``(ts, time, from_ident, notifications)`` gateway proposals.
        self.candidates: list = []

    def begin(self, ts: tuple, time: float) -> None:
        """Enter the causal context of one message (or publish event)."""
        self._ts_prefix = ts
        self._counter = 0
        self.time = time

    def next_ts(self) -> tuple:
        ts = self._ts_prefix + (self._counter,)
        self._counter += 1
        return ts

    def drain(self) -> tuple[list, list, list, list]:
        """Collected (stage A, stage B, stage C, candidates); resets."""
        staged = self.staged
        out = (staged["A"], staged["B"], staged["C"], self.candidates)
        self.staged = {"A": [], "B": [], "C": []}
        self.candidates = []
        return out

    def gateway(self, from_node, notifications) -> None:
        """``engine.notification_gateway`` hook: park evaluator output."""
        self.candidates.append(
            (self.next_ts(), self.time, from_node.ident, tuple(notifications))
        )

    def _deliver(self, message, target, *, may_delay: bool = True):
        del may_delay
        stage = STAGE_BY_TYPE.get(message.type)
        if stage is None or stage not in self.allowed:
            raise ShardError(
                f"message type {message.type!r} cannot be staged here; "
                f"sharded execution supports the fault-free stream phase only"
            )
        self.staged[stage].append((self.next_ts(), self.time, target.ident, message))
        return target


def _process_stage(engine, transport: ShardTransport, items: list, phase: str) -> None:
    """Run one shard's inbox for one stage, in causal (``ts``) order."""
    items.sort(key=lambda item: item[0])
    transport.allowed = PRODUCES[phase]
    nodes = engine.network._nodes
    clock = engine.clock
    for ts, time, ident, message in items:
        clock.advance_to(time)
        transport.begin(ts, time)
        nodes[ident].deliver(message)


@dataclass
class ShardRunResult:
    """Metrics of one sharded stream run (:mod:`repro.bench.rows` vocabulary)."""

    install_traffic: TrafficSnapshot
    stream_traffic: TrafficSnapshot
    notifications_delivered: int
    notification_digest: str
    suppressed_renotifications: int
    duplicate_deliveries: int
    events: int
    shards: int
    #: Sliding-window items evicted at barriers (compares bit-for-bit
    #: with the serial :attr:`~repro.bench.harness.RunResult.evictions`
    #: when both runs use the same ``evict_every``).
    evictions: int = 0
    #: Worker-produced records whose next-stage owner was a *different*
    #: shard — the owner-aware exchange volume (cross-segment join
    #: batches, replica probes and JFRT direct sends).  Always 0 for
    #: in-process (single-segment) runs.
    exchange_records: int = 0
    #: Lifted modes this configuration engaged (see
    #: :func:`shard_capabilities`).
    features: tuple = ()

    def to_row(self) -> dict:
        """Stable JSON-safe dict of this run (no pickling; see
        :mod:`repro.bench.rows` for the stability contract)."""
        return {
            "row_version": ROW_VERSION,
            "kind": "shard",
            "install_traffic": traffic_to_row(self.install_traffic),
            "stream_traffic": traffic_to_row(self.stream_traffic),
            "notifications_delivered": self.notifications_delivered,
            "notification_digest": self.notification_digest,
            "suppressed_renotifications": self.suppressed_renotifications,
            "duplicate_deliveries": self.duplicate_deliveries,
            "events": self.events,
            "shards": self.shards,
            "evictions": self.evictions,
            "exchange_records": self.exchange_records,
            "features": list(self.features),
        }

    @classmethod
    def from_row(cls, row: dict) -> "ShardRunResult":
        """Inverse of :meth:`to_row` (unknown keys ignored)."""
        return cls(
            install_traffic=traffic_from_row(row["install_traffic"]),
            stream_traffic=traffic_from_row(row["stream_traffic"]),
            notifications_delivered=row["notifications_delivered"],
            notification_digest=row["notification_digest"],
            suppressed_renotifications=row.get("suppressed_renotifications", 0),
            duplicate_deliveries=row.get("duplicate_deliveries", 0),
            events=row.get("events", 0),
            shards=row.get("shards", 1),
            evictions=row.get("evictions", 0),
            exchange_records=row.get("exchange_records", 0),
            features=tuple(row.get("features", ())),
        )


class _Resolver:
    """Replays the serial pre-hop suppression at the B→C barrier.

    Mirrors :meth:`ContinuousQueryEngine.deliver_notifications` over a
    driver-local identity filter (separate from the engine's, which the
    subscriber-side ``_record_delivery`` still maintains at stage C):
    candidates are visited in global ``ts`` order, each subscriber
    group is filtered, surviving identities join the mirror *before*
    the next group is examined — exactly the serial interleaving of
    filtering and synchronous delivery.
    """

    def __init__(self, engine):
        self.engine = engine
        self.mirror: dict[str, set] = {}
        self.suppressed = 0

    def resolve(self, candidates: list, stats) -> list:
        """Turn candidates into stage-C items, billing notification hops."""
        candidates.sort(key=lambda c: c[0])
        engine = self.engine
        queries = engine.queries
        subscriber_nodes = engine._subscriber_nodes
        presence = engine._presence
        mirror = self.mirror
        items = []
        for ts, time, from_ident, notifications in candidates:
            for index, (subscriber_ident, batch) in enumerate(
                group_by_subscriber(notifications).items()
            ):
                live = []
                for notification in batch:
                    if notification.query_key not in queries:
                        continue
                    seen = mirror.get(notification.query_key)
                    if seen is not None and notification.identity in seen:
                        self.suppressed += 1
                        continue
                    live.append(notification)
                if not live:
                    continue
                for notification in live:
                    mirror.setdefault(notification.query_key, set()).add(
                        notification.identity
                    )
                target = subscriber_nodes.get(subscriber_ident)
                if (
                    target is None
                    or not target.alive
                    or not presence.get(subscriber_ident, False)
                ):
                    raise ShardError(
                        "sharded execution requires online, fault-free "
                        "subscribers (routed notification fallback is a "
                        "faulted-run path)"
                    )
                message = NotificationMessage(
                    notifications=tuple(live), subscriber_ident=subscriber_ident
                )
                # ``send_direct`` accounting: one point-to-point hop,
                # zero when the evaluator is the subscriber.
                stats.record(message.type, 0 if from_ident == subscriber_ident else 1)
                items.append((ts + (index,), time, subscriber_ident, message))
        return items


#: Engine features that once were blanket ``ShardError`` preconditions,
#: mapped to the lifted execution mode that now carries each of them
#: (mechanisms in the module docstring / DESIGN.md §15).
CAPABILITIES = {
    "window": "barrier-aligned eviction",
    "replication": "owner-aware replica exchange",
    "jfrt": "owner-aware JFRT exchange",
}


def shard_capabilities(engine) -> tuple[str, ...]:
    """Names of the lifted modes this engine configuration engages.

    Empty for the stripped (unbounded window, ``replication_factor=1``,
    JFRT off) configuration the sharded executor originally supported.
    The active set is recorded on :attr:`ShardRunResult.features` so
    benchmark reports show which mechanisms a number exercised.
    """
    config = engine.config
    features = []
    if config.window is not None:
        features.append(CAPABILITIES["window"])
    if config.replication_factor != 1:
        features.append(CAPABILITIES["replication"])
    if config.jfrt_capacity != 0:
        features.append(CAPABILITIES["jfrt"])
    return tuple(features)


def _validate(engine) -> None:
    """Reject the one configuration no lifted mode can carry.

    A perturbing fault injector (drops, delays, crashes) makes delivery
    order — and therefore the causal-timestamp replay — nondeterministic
    at the transport, so faulted studies must run through the serial
    simulator.  Everything else, including sliding windows, replication
    and the JFRT, is handled by the lifted modes named in
    :func:`shard_capabilities`.
    """
    injector = engine.network.injector
    if injector is not None and injector.perturbs_delivery:
        raise ShardError(
            "sharded execution is fault-free only: a perturbing fault "
            "injector reorders deliveries, which the staged "
            "causal-timestamp replay cannot reproduce; run faulted "
            "configurations through the serial simulator"
        )


def run_sharded(
    engine: "ContinuousQueryEngine",
    events: "Iterable[WorkloadEvent]",
    *,
    shards: int = 1,
    batch_size: int = 512,
    seed: int = 1,
    evict_every: int = 64,
) -> ShardRunResult:
    """Replay a workload with the stream phase sharded across segments.

    ``events`` is any iterable of
    :class:`~repro.workload.generator.WorkloadEvent` (a materialized
    :class:`~repro.workload.generator.Workload` or the streaming
    :func:`~repro.workload.generator.iter_workload_events`).  The
    warmup/install prefix — everything up to the last query — is
    replayed serially in-process, exactly like
    :func:`repro.bench.harness.run_workload` (same RNG draw order for
    origin nodes).  The remaining tuple stream runs in epochs of
    ``batch_size`` events through the staged pipeline described in the
    module docstring, on ``shards`` forked workers (``1`` = staged but
    in-process, which is also the portability fallback when fork is
    unavailable).

    With a sliding window configured, ``evict_every`` replays the
    serial eviction schedule of :func:`~repro.bench.harness.run_workload`
    at stage barriers: the event counter spans the install prefix and
    the stream, epochs are clipped so boundaries land exactly between
    epochs, and a final sweep runs after the last event.

    Returns metrics bit-comparable with a serial
    :func:`~repro.bench.harness.run_workload` of the same engine
    configuration and ``evict_every``: traffic counters, notification
    digest, delivery, eviction and suppression counts.
    """
    # One pause around the install prefix, the fork and every epoch:
    # the workers are forked inside it and inherit the paused collector.
    with CollectorPause() as pause:
        return _run_staged(
            engine, events, pause, shards, batch_size, seed, evict_every
        )


def _run_staged(
    engine, events, pause: CollectorPause, shards, batch_size, seed, evict_every
) -> ShardRunResult:
    """The body of :func:`run_sharded`, inside its collector pause."""
    _validate(engine)
    if evict_every < 1:
        raise ShardError("evict_every must be >= 1")
    features = shard_capabilities(engine)
    network = engine.network
    rng = random.Random(seed)
    clock = engine.clock
    window = engine.config.window

    # ------------------------------------------------------------------
    # Serial install phase: warmup tuples + query subscriptions.
    # ------------------------------------------------------------------
    source: Iterator = iter(events)
    stream_head = None
    seen_query = False
    install_events = 0
    events_since_evict = 0
    evictions = 0
    for event in source:
        if event.kind == "tuple" and seen_query:
            stream_head = event
            break
        clock.advance_to(event.time)
        origin = network.random_node(rng)
        install_events += 1
        if event.kind == "query":
            seen_query = True
            engine.subscribe(origin, event.payload)
        else:
            relation, values = event.payload
            engine.publish(origin, relation, values)
        events_since_evict += 1
        if events_since_evict >= evict_every:
            events_since_evict = 0
            if window is not None:
                evictions += engine.evict_expired()
            pause.young()
    install_snapshot = network.stats.snapshot()

    if shards > 1 and not fork_available():  # pragma: no cover - platform
        shards = 1

    # Shard ownership: contiguous segments of the sorted identifier
    # array, resolved by bisect on demand (no per-ident dict — at 10^6
    # members that dict alone would dwarf the workload's state).  The
    # map is created before the fork so workers share the array.
    segment = SegmentMap(network._sorted_idents, shards)
    shard_of = segment.shard_of

    transport = ShardTransport(network)
    previous_transport = network.use_transport(transport)
    engine.notification_gateway = transport.gateway
    resolver = _Resolver(engine)

    pool = None
    if shards > 1:
        def worker_main(conn, index):
            worker_transport = ShardTransport(network)
            network.use_transport(worker_transport)
            engine.notification_gateway = worker_transport.gateway
            baseline = network.stats.snapshot()
            duplicates_baseline = engine.duplicate_deliveries
            try:
                while True:
                    command = conn.recv()
                    if command[0] == "stage":
                        _, phase, items = command
                        _process_stage(engine, worker_transport, items, phase)
                        a, b, c, candidates = worker_transport.drain()
                        conn.send(("produced", a + b + c, candidates))
                        pause.young()
                    elif command[0] == "evict":
                        # Barrier-aligned eviction: sweep only the nodes
                        # this shard owns, against the driver's cutoff
                        # (worker clocks can lag the boundary when the
                        # last events produced no work for them).
                        _, cutoff = command
                        evicted = 0
                        for ident, state in engine.adopted_states():
                            if shard_of(ident) == index:
                                evicted += state.evict_expired(cutoff)
                        conn.send(("evicted", evicted))
                    elif command[0] == "finish":
                        delivered = {
                            key: pairs
                            for key, pairs in delivered_pairs(engine).items()
                            if shard_of(
                                engine.queries[key].subscriber.ident
                            ) == index
                        }
                        conn.send(
                            (
                                "final",
                                network.stats.since(baseline),
                                delivered,
                                engine.duplicate_deliveries - duplicates_baseline,
                            )
                        )
                        return
                    else:  # pragma: no cover - protocol guard
                        raise ShardError(f"unknown command {command[0]!r}")
            except Exception as error:  # pragma: no cover - debug aid
                import traceback

                conn.send(("error", f"{error}\n{traceback.format_exc()}"))
                raise
            finally:
                conn.close()

        pool = ShardPool(shards, worker_main)

    exchange_records = 0

    def run_stage(phase: str, items: list) -> tuple[list, list]:
        """Execute one stage everywhere; returns (produced, candidates)."""
        nonlocal exchange_records
        if pool is None:
            _process_stage(engine, transport, items, phase)
            a, b, c, candidates = transport.drain()
            return a + b + c, candidates
        partitions: list[list] = [[] for _ in range(shards)]
        for item in items:
            partitions[shard_of(item[2])].append(item)
        pool.scatter([("stage", phase, part) for part in partitions])
        if PERF.enabled:
            PERF.count("shard.barrier.exchanges")
            PERF.count("shard.barrier.items", len(items))
        produced: list = []
        candidates: list = []
        for index, reply in enumerate(pool.gather()):
            if reply[0] == "error":
                raise ShardError(f"shard worker failed:\n{reply[1]}")
            # Owner-aware exchange: records whose next-stage owner is a
            # different shard cross segments through these pipes — the
            # cross-shard join batches, replica probes and JFRT direct
            # sends that used to be rejected outright.
            crossed = sum(1 for item in reply[1] if shard_of(item[2]) != index)
            if crossed:
                exchange_records += crossed
                if PERF.enabled:
                    PERF.count("shard.exchange.records", crossed)
            produced.extend(reply[1])
            candidates.extend(reply[2])
        return produced, candidates

    def barrier_evict() -> int:
        """One serial-schedule eviction sweep, replayed at a barrier."""
        cutoff = clock.now - window
        if PERF.enabled:
            PERF.count("shard.evictions.replayed")
        if pool is None:
            return engine.evict_expired(cutoff)
        pool.broadcast(("evict", cutoff))
        evicted = 0
        for reply in pool.gather():
            if reply[0] == "error":
                raise ShardError(f"shard worker failed:\n{reply[1]}")
            evicted += reply[1]
        return evicted

    def split_stages(items: list) -> tuple[list, list]:
        stage_a, stage_b = [], []
        for item in items:
            (stage_a if STAGE_BY_TYPE[item[3].type] == "A" else stage_b).append(item)
        return stage_a, stage_b

    # ------------------------------------------------------------------
    # Epoch loop over the tuple stream: a reused EventRing batch buffer
    # (DESIGN.md §14) whose refills are clipped so that barrier-aligned
    # eviction boundaries always coincide with epoch ends.
    # ------------------------------------------------------------------
    stream: Iterator = ((event.time, event.kind, event.payload) for event in source)
    if stream_head is not None:
        head = (stream_head.time, stream_head.kind, stream_head.payload)
        stream = itertools.chain((head,), stream)
        stream_head = None
    ring = EventRing(batch_size)
    stream_events = 0
    sequence = 0
    try:
        while True:
            limit = None
            if window is not None:
                limit = evict_every - events_since_evict
            count = ring.refill(stream, limit)
            if count == 0:
                break
            transport.allowed = PRODUCES["publish"]
            times = ring.times
            kinds = ring.targets
            payloads = ring.payloads
            for i in range(count):
                if kinds[i] != "tuple":
                    raise ShardError(
                        "query subscriptions after the stream began are "
                        "not supported in sharded execution"
                    )
                time = times[i]
                clock.advance_to(time)
                origin = network.random_node(rng)
                sequence += 1
                transport.begin((sequence,), time)
                relation, values = payloads[i]
                engine.publish(origin, relation, values)
            stream_events += count
            events_since_evict += count
            if PERF.enabled:
                PERF.count("shard.epochs")
                PERF.count("shard.batch.events", count)
            stage_a, stage_b, stage_c, candidates = transport.drain()
            if stage_c or candidates:  # pragma: no cover - protocol guard
                raise ShardError("publishing produced post-barrier work")
            produced, candidates_a = run_stage("A", stage_a)
            misplaced, joins = split_stages(produced)
            if misplaced:  # pragma: no cover - protocol guard
                raise ShardError("stage A produced attribute-level messages")
            produced_b, candidates_b = run_stage("B", stage_b + joins)
            if produced_b:  # pragma: no cover - protocol guard
                raise ShardError("stage B produced staged messages")
            stage_c_items = resolver.resolve(
                candidates_a + candidates_b, network.stats
            )
            produced_c, candidates_c = run_stage("C", stage_c_items)
            if produced_c or candidates_c:  # pragma: no cover - protocol guard
                raise ShardError("stage C produced further work")
            if window is not None and events_since_evict >= evict_every:
                evictions += barrier_evict()
                events_since_evict = 0
            pause.young()
        ring.clear()
        if window is not None:
            # The serial replay's unconditional final sweep.
            evictions += barrier_evict()

        # --------------------------------------------------------------
        # Merge
        # --------------------------------------------------------------
        if pool is None:
            delivered = delivered_pairs(engine)
            duplicate_deliveries = engine.duplicate_deliveries
            stream_snapshot = network.stats.since(install_snapshot)
        else:
            pool.broadcast(("finish",))
            delivered = {}
            duplicate_deliveries = engine.duplicate_deliveries
            stream_snapshot = network.stats.since(install_snapshot)
            for reply in pool.gather():
                if reply[0] == "error":
                    raise ShardError(f"shard worker failed:\n{reply[1]}")
                _, delta, worker_delivered, worker_duplicates = reply
                delivered.update(worker_delivered)
                duplicate_deliveries += worker_duplicates
                stream_snapshot = TrafficSnapshot(
                    hops=stream_snapshot.hops + delta.hops,
                    messages=stream_snapshot.messages + delta.messages,
                    hops_by_type=_merge_counts(
                        stream_snapshot.hops_by_type, delta.hops_by_type
                    ),
                    messages_by_type=_merge_counts(
                        stream_snapshot.messages_by_type, delta.messages_by_type
                    ),
                    messages_dropped=stream_snapshot.messages_dropped
                    + delta.messages_dropped,
                    retries=stream_snapshot.retries + delta.retries,
                    messages_delayed=stream_snapshot.messages_delayed
                    + delta.messages_delayed,
                )
    finally:
        network.use_transport(previous_transport)
        engine.notification_gateway = None
        if pool is not None:
            pool.close()

    return ShardRunResult(
        install_traffic=install_snapshot,
        stream_traffic=stream_snapshot,
        notifications_delivered=sum(len(pairs) for pairs in delivered.values()),
        notification_digest=digest_of_pairs(delivered),
        suppressed_renotifications=engine.suppressed_renotifications
        + resolver.suppressed,
        duplicate_deliveries=duplicate_deliveries,
        events=install_events + stream_events,
        shards=shards,
        evictions=evictions,
        exchange_records=exchange_records,
        features=features,
    )


def _merge_counts(left: dict, right: dict) -> dict:
    merged = dict(left)
    for key, value in right.items():
        merged[key] = merged.get(key, 0) + value
    return merged
