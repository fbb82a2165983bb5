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
  stage barriers, on the serial replay's cadence (one
  :class:`~repro.bench.harness.ReplayOrder` counts ``evict_every`` for
  both): an epoch ends wherever the cadence falls due, and
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

The one genuinely unsupported configuration is a fault plan: drops
and delays reorder deliveries, and crashes or lease refreshes between
barriers interleave with the stages, which the staged replay cannot
reproduce — and nothing in it would run a crash schedule.
:func:`run_sharded` refuses any plan that sets a field, by name, off
the empty ``shard`` column of :data:`repro.faults.plan.FAULT_SUPPORT`.
The differential tests in ``tests/sim/test_shard.py`` and
``tests/sim/test_shard_features.py`` assert bit-identical traffic
counters, eviction counts and notification digests against
:func:`repro.bench.harness.run_workload` for all four algorithms, both
in-process and forked.
"""

from __future__ import annotations

import functools
import multiprocessing
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..bench.harness import ReplayOrder
from ..bench.rows import RunReport, delivered_pairs
from ..chord.routing import Router
from ..chord.snapshot import SegmentMap
from ..core.metrics import LoadSnapshot, snapshot
from ..faults.plan import check_support
from ..perf import PERF
from .collector import CollectorPause

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
    The active set is recorded in the run report's ``shard`` block so
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


def run_sharded(
    engine: "ContinuousQueryEngine",
    events: "Iterable[WorkloadEvent]",
    *,
    shards: int = 1,
    batch_size: int = 512,
    seed: int = 1,
    evict_every: int = 64,
) -> RunReport:
    """Replay a workload with the stream phase sharded across segments.

    ``events`` is any iterable of
    :class:`~repro.workload.generator.WorkloadEvent` (a materialized
    :class:`~repro.workload.generator.Workload` or the streaming
    :func:`~repro.workload.generator.iter_workload_events`), replayed
    in :class:`~repro.bench.harness.ReplayOrder` — the origin draws,
    install/stream boundary and eviction cadence of
    :func:`~repro.bench.harness.run_workload`.  The install phase
    (warm-up tuples and queries) runs serially in-process; from the
    boundary on, the tuple stream runs in epochs of at most
    ``batch_size`` events through the staged pipeline described in the
    module docstring, on ``shards`` forked workers (``1`` = staged but
    in-process, which is also the portability fallback when fork is
    unavailable).

    With a sliding window configured, an epoch also ends wherever the
    cadence falls due, and the sweep runs at that barrier; a final
    sweep runs after the last event.

    A fault injector on ``engine``'s network is refused as soon as its
    plan sets any field (the ``shard`` column of
    :data:`~repro.faults.plan.FAULT_SUPPORT` is empty), with a
    ``ValueError`` naming the first.

    Returns a :class:`~repro.bench.rows.RunReport` bit-comparable with
    a serial :func:`~repro.bench.harness.run_workload` of the same engine
    configuration and ``evict_every``: traffic counters, notification
    digest, per-node load, delivery, eviction and suppression counts.
    Forked workers send their answers and their own nodes' load back at
    the end; in process both are read off ``engine`` on first use.
    """
    if engine.network.injector is not None:
        check_support(engine.network.injector.plan, "shard")
    # One pause around the install phase, the fork and every epoch:
    # the workers are forked inside it and inherit the paused collector.
    with CollectorPause() as pause:
        return _run_staged(
            engine, events, pause, shards, batch_size, seed, evict_every
        )


def _run_staged(
    engine, events, pause: CollectorPause, shards, batch_size, seed, evict_every
) -> RunReport:
    """The body of :func:`run_sharded`, inside its collector pause."""
    if batch_size < 1:
        raise ShardError("batch_size must be >= 1")
    try:
        replay = ReplayOrder(engine, events, seed=seed, evict_every=evict_every)
    except ValueError as error:  # the replay's own ``evict_every`` check
        raise ShardError(str(error)) from None
    if shards > 1 and not fork_available():  # pragma: no cover - platform
        shards = 1
    features = shard_capabilities(engine)
    network = engine.network
    window = engine.config.window
    start = network.stats.snapshot()
    install_snapshot = stream = None
    epoch = evictions = 0
    try:
        for event in replay:
            if replay.boundary:
                install_snapshot = network.stats.snapshot()
                stream = _Stream(engine, pause, shards)
            origin = replay.origin(event)
            if stream is None:  # the install phase runs serially
                if event.kind == "query":
                    engine.subscribe(origin, event.payload)
                else:
                    relation, values = event.payload
                    engine.publish(origin, relation, values)
                if replay.evict_due:
                    if window is not None:
                        evictions += engine.evict_expired()
                    pause.freeze_survivors()
                continue
            stream.publish(origin, event)
            epoch += 1
            due = window is not None and replay.evict_due
            if epoch == batch_size or due:
                stream.barrier(epoch)
                if due:
                    evictions += stream.evict()
                pause.freeze_survivors()
                epoch = 0
        if epoch:
            stream.barrier(epoch)
            pause.freeze_survivors()
        if window is not None:
            # The serial replay's unconditional final sweep.
            evictions += engine.evict_expired() if stream is None else stream.evict()

        install_traffic, stream_traffic = replay.split(
            start, install_snapshot, network.stats.snapshot()
        )
        duplicate_deliveries = engine.duplicate_deliveries
        gathered_pairs = gathered_load = None
        if stream is not None and stream.pool is not None:
            gathered_pairs, loads = {}, []
            for _, delta, pairs, duplicates, load in stream.finish():
                stream_traffic += delta
                gathered_pairs.update(pairs)
                duplicate_deliveries += duplicates
                loads.append(load)
            gathered_load = LoadSnapshot.union(loads)
    finally:
        if stream is not None:
            stream.close()

    return RunReport(
        kind="shard",
        engine=engine,
        install_traffic=install_traffic,
        stream_traffic=stream_traffic,
        events=replay.events,
        evictions=evictions,
        suppressed_renotifications=engine.suppressed_renotifications,
        duplicate_deliveries=duplicate_deliveries,
        shard={
            "shards": shards,
            "exchange_records": 0 if stream is None else stream.exchange_records,
            "features": list(features),
        },
        gathered_pairs=gathered_pairs,
        gathered_load=gathered_load,
    )


class _Stream:
    """The staged pipeline of one run's stream phase.

    Built at the install/stream boundary, so that forked workers inherit
    the installed engine: swaps in the :class:`ShardTransport` and the
    notification gateway, forks ``shards`` workers when there is more
    than one, and runs one epoch's stages per :meth:`barrier`.
    """

    def __init__(self, engine, pause: CollectorPause, shards: int):
        network = engine.network
        self.engine = engine
        # Shard ownership: contiguous segments of the sorted identifier
        # array, resolved by bisect on demand (no per-ident dict — at 10^6
        # members that dict alone would dwarf the workload's state).  The
        # map is created before the fork so workers share the array.
        self.shard_of = SegmentMap(network._sorted_idents, shards).shard_of
        self.transport = ShardTransport(network)
        self.previous_transport = network.use_transport(self.transport)
        engine.notification_gateway = self.transport.gateway
        #: Identities by query key that stage C will deliver: the mirror
        #: of the engine's delivered set that :meth:`resolve` filters on.
        self.mirror: dict[str, set] = {}
        self.sequence = 0
        self.exchange_records = 0
        self.pool = None
        if shards > 1:
            self.pool = ShardPool(
                shards, functools.partial(_worker_main, engine, pause, self.shard_of)
            )

    def publish(self, origin, event) -> None:
        """Stage 0: publish one stream tuple under the next causal stamp."""
        transport = self.transport
        transport.allowed = PRODUCES["publish"]
        self.sequence += 1
        transport.begin((self.sequence,), event.time)
        relation, values = event.payload
        self.engine.publish(origin, relation, values)

    def barrier(self, count: int) -> None:
        """Run stages A, B, the resolution and C over the epoch's
        ``count`` publishes."""
        if PERF.enabled:
            PERF.count("shard.epochs")
            PERF.count("shard.batch.events", count)
        stage_a, stage_b, stage_c, candidates = self.transport.drain()
        if stage_c or candidates:  # pragma: no cover - protocol guard
            raise ShardError("publishing produced post-barrier work")
        produced, candidates_a = self._run_stage("A", stage_a)
        if any(STAGE_BY_TYPE[item[3].type] == "A" for item in produced):
            raise ShardError(  # pragma: no cover - protocol guard
                "stage A produced attribute-level messages"
            )
        produced_b, candidates_b = self._run_stage("B", stage_b + produced)
        if produced_b:  # pragma: no cover - protocol guard
            raise ShardError("stage B produced staged messages")
        produced_c, candidates_c = self._run_stage(
            "C", self.resolve(candidates_a + candidates_b)
        )
        if produced_c or candidates_c:  # pragma: no cover - protocol guard
            raise ShardError("stage C produced further work")

    def resolve(self, candidates: list) -> list:
        """Replay the serial pre-hop suppression at the B→C barrier: turn
        notification candidates into stage-C items, billing their hops.

        Runs :meth:`ContinuousQueryEngine.notification_messages` over
        :attr:`mirror` (the engine's own delivered set is maintained by
        the subscriber-side ``_record_delivery`` at stage C): candidates
        are visited in global ``ts`` order, and each subscriber group's
        survivors join the mirror *before* the next group is examined —
        exactly the serial interleaving of filtering and synchronous
        delivery.  Suppressions count on the engine.
        """
        candidates.sort(key=lambda c: c[0])
        engine, mirror = self.engine, self.mirror
        stats = engine.network.stats
        items = []
        for ts, time, from_ident, notifications in candidates:
            for index, (message, target) in enumerate(
                engine.notification_messages(notifications, mirror)
            ):
                if target is None:
                    raise ShardError(
                        "sharded execution requires online, fault-free "
                        "subscribers (routed notification fallback is a "
                        "faulted-run path)"
                    )
                for notification in message.notifications:
                    mirror.setdefault(notification.query_key, set()).add(
                        notification.identity
                    )
                # ``send_direct`` accounting: one point-to-point hop,
                # zero when the evaluator is the subscriber.
                ident = message.subscriber_ident
                stats.record(message.type, 0 if from_ident == ident else 1)
                items.append((ts + (index,), time, ident, message))
        return items

    def _run_stage(self, phase: str, items: list) -> tuple[list, list]:
        """Execute one stage everywhere; returns (produced, candidates)."""
        pool, shard_of = self.pool, self.shard_of
        if pool is None:
            _process_stage(self.engine, self.transport, items, phase)
            a, b, c, candidates = self.transport.drain()
            return a + b + c, candidates
        partitions: list[list] = [[] for _ in range(pool.n_shards)]
        for item in items:
            partitions[shard_of(item[2])].append(item)
        pool.scatter([("stage", phase, part) for part in partitions])
        if PERF.enabled:
            PERF.count("shard.barrier.exchanges")
            PERF.count("shard.barrier.items", len(items))
        produced: list = []
        candidates: list = []
        for index, reply in enumerate(self._gather()):
            # Owner-aware exchange: records whose next-stage owner is a
            # different shard cross segments through these pipes — the
            # cross-shard join batches, replica probes and JFRT direct
            # sends that used to be rejected outright.
            crossed = sum(1 for item in reply[1] if shard_of(item[2]) != index)
            if crossed:
                self.exchange_records += crossed
                if PERF.enabled:
                    PERF.count("shard.exchange.records", crossed)
            produced.extend(reply[1])
            candidates.extend(reply[2])
        return produced, candidates

    def evict(self) -> int:
        """One eviction sweep at a barrier, against the driver's cutoff."""
        engine = self.engine
        cutoff = engine.clock.now - engine.config.window
        if PERF.enabled:
            PERF.count("shard.evictions.replayed")
        if self.pool is None:
            return engine.evict_expired(cutoff)
        self.pool.broadcast(("evict", cutoff))
        return sum(reply[1] for reply in self._gather())

    def finish(self) -> list:
        """Each worker's ``("final", stream traffic, answers, duplicate
        count, load)``, in shard order."""
        self.pool.broadcast(("finish",))
        return self._gather()

    def _gather(self) -> list:
        replies = self.pool.gather()
        for reply in replies:
            if reply[0] == "error":
                raise ShardError(f"shard worker failed:\n{reply[1]}")
        return replies

    def close(self) -> None:
        """Restore the ring's transport and reap the workers."""
        self.engine.network.use_transport(self.previous_transport)
        self.engine.notification_gateway = None
        if self.pool is not None:
            self.pool.close()


def _worker_main(engine, pause: CollectorPause, shard_of, conn, index: int) -> None:
    """One forked shard: run the driver's commands over the nodes it owns."""
    network = engine.network
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
                pause.freeze_survivors()
            elif command[0] == "evict":
                # Barrier-aligned eviction: sweep only the nodes this
                # shard owns, against the driver's cutoff (worker clocks
                # can lag the boundary when the last events produced no
                # work for them).
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
                    if shard_of(engine.queries[key].subscriber.ident) == index
                }
                own = [node for node in network if shard_of(node.ident) == index]
                conn.send(
                    (
                        "final",
                        network.stats.since(baseline),
                        delivered,
                        engine.duplicate_deliveries - duplicates_baseline,
                        snapshot(engine, own),
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
