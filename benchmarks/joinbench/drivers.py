"""One algorithm, one workload, one executor: set up, run, read the counts.

Each ``run_*`` function drives an executor through its public entry
point — :func:`repro.bench.harness.run_workload`,
:func:`repro.sim.shard.run_sharded` (``shards=1``, set up as
``repro.bench.scale.run_scale_point`` does, engine kept for inspection)
or :class:`repro.net.cluster.LiveCluster` — and returns an
:class:`AlgRun` with phase timings, latency samples and the exact
counters read from public state afterwards.  The program under test
receives only the generated events; the seed goes to
``WorkloadParams.seed``, the engine and the origin-node RNG.

Module attributes (``generator.build_workload``, ``shard.run_sharded``)
are looked up at call time so a traced run reaches the tracer's
wrappers.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bench import harness
from repro.bench.rows import notification_digest
from repro.chord.hashing import hash_key_cache_clear
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.errors import QuiesceTimeout
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.peer import NetConfig
from repro.sim import shard
from repro.workload import generator

from .spec import (
    EVICT_EVERY,
    LIVE_CREDITS,
    MAX_DRAIN_S,
    MAX_LATE_P99_MS,
    Size,
    Workload,
)
from .stats import median, percentile

clock = time.perf_counter

#: Events per staged epoch, as ``repro.bench.scale`` runs it.
STAGED_BATCH_SIZE = 512


@dataclass
class AlgRun:
    """Everything measured for one algorithm in one round."""

    algorithm: str
    # -- set-up phases (s) ----------------------------------------------
    gen_s: float = 0.0
    build_s: float = 0.0
    start_s: float = 0.0
    # -- measured phases (s) --------------------------------------------
    install_s: float = 0.0
    stream_s: float = 0.0
    drain_s: float = 0.0
    settle_s: float = 0.0
    #: Open loop only: the span of the publish schedule inside
    #: ``stream_s``, which no machine speed shortens.
    paced_s: float = 0.0
    #: How many times slower than reference speed the box ran during
    #: this run's round (see ``speed.py``; set by ``bench.run_round``).
    slowdown: float = 1.0
    # -- samples (s) ----------------------------------------------------
    #: One per notification, with the engine time of the publish it
    #: answers in ``latency_publish`` (the later contributing tuple).
    latencies: list = field(default_factory=list)
    latency_publish: list = field(default_factory=list)
    publish_s: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    # -- exact counters -------------------------------------------------
    hops: int = 0
    messages: int = 0
    hops_by_type: dict = field(default_factory=dict)
    notifications: int = 0
    suppressed: int = 0
    duplicates: int = 0
    evictions: int = 0
    digest: str = ""
    rewriter_candidates: int = 0
    evaluator_candidates: int = 0
    notifications_created: int = 0
    al_items: int = 0
    vl_items: int = 0
    storage_items: int = 0
    tf_max_over_mean: float = 0.0
    # -- live transport counters ----------------------------------------
    frames_sent: int = 0
    bytes_sent: int = 0
    batches_sent: int = 0
    frames_shed: int = 0
    peak_in_flight: int = 0
    recovered: int = 0
    # -- failures -------------------------------------------------------
    #: subscribe/publish calls that raised.
    raised: int = 0
    #: Quiesce timeouts and delivery failures (shed frames included)
    #: the live drains absorbed.
    delivery_failures: int = 0
    #: Open loop only: the offered rate was not sustained.
    unsustainable: bool = False
    # -- inputs kept for the oracle check (smoke pass only) -------------
    queries: list = field(default_factory=list)
    tuples: list = field(default_factory=list)
    delivered_rows: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.build_s + self.start_s

    @property
    def wall_s(self) -> float:
        """The wall a user pays for the events: install through settle."""
        return self.install_s + self.stream_s + self.drain_s + self.settle_s

    def at_reference_speed(self, seconds: float) -> float:
        return seconds / self.slowdown

    @property
    def reference_wall_s(self) -> float:
        """``wall_s`` at reference speed; the publish schedule of an
        open loop is wall-clock time, not work, and stays as it is."""
        return self.paced_s + self.at_reference_speed(self.wall_s - self.paced_s)

    def answer_latencies(self) -> list:
        """One latency per publish that was answered, in publish order:
        the median over the notifications it caused.  A hot join key
        answers one publish with hundreds of notifications; counted per
        notification it alone would place the median."""
        by_publish: dict[float, list] = {}
        for publish, latency in zip(self.latency_publish, self.latencies):
            by_publish.setdefault(publish, []).append(latency)
        return [median(by_publish[publish]) for publish in sorted(by_publish)]


class Probe:
    """Driver-side instrumentation of one engine.

    Replaces ``engine.subscribe`` / ``engine.publish`` *on the instance*
    with thin wrappers that timestamp each call and register a
    subscriber callback per query, so the harness and the staged
    executor — whose loops the benchmark does not own — still yield
    phase boundaries, per-publish durations and publish-to-notification
    latencies.  A notification's latency runs from the publish (or, in
    the open loop, the due instant) of the later of its two contributing
    tuples.
    """

    def __init__(self, engine: ContinuousQueryEngine, run: AlgRun, *, keep_inputs: bool):
        self.engine = engine
        self.run = run
        self.keep_inputs = keep_inputs
        self.first_publish: Optional[float] = None
        #: Open loop: the instant the next publish was due.
        self.due: Optional[float] = None
        self._publish_wall: dict[float, float] = {}
        self._subscribe = engine.subscribe
        self._publish = engine.publish
        engine.subscribe = self.subscribe
        engine.publish = self.publish

    def subscribe(self, origin, query, schema=None):
        bound = self._subscribe(origin, query, schema)
        self.engine.add_notification_listener(bound.key, self._on_notification)
        if self.keep_inputs:
            self.run.queries.append(bound)
        return bound

    def publish(self, origin, relation, values):
        started = clock()
        if self.first_publish is None:
            self.first_publish = started
        self._publish_wall[self.engine.clock.now] = (
            started if self.due is None else self.due
        )
        tup = self._publish(origin, relation, values)
        self.run.publish_s.append(clock() - started)
        if self.keep_inputs:
            self.run.tuples.append(tup)
        return tup

    def _on_notification(self, notification) -> None:
        publish = max(notification.trigger_pub_time, notification.match_pub_time)
        started = self._publish_wall.get(publish)
        if started is not None:
            self.run.latencies.append(clock() - started)
            self.run.latency_publish.append(publish)


def workload_params(spec: Workload, size: Size, seed: int) -> generator.WorkloadParams:
    return generator.WorkloadParams(
        n_queries=size.n_queries,
        n_tuples=size.n_tuples,
        domain_size=size.domain_size,
        zipf_s=spec.zipf_s,
        seed=seed,
    )


def _read_engine(run: AlgRun, engine: ContinuousQueryEngine, keep_inputs: bool) -> None:
    """Counts every executor exposes through the engine's public state."""
    run.notifications = sum(len(batch) for batch in engine.delivered.values())
    run.duplicates = engine.duplicate_deliveries
    run.digest = notification_digest(engine)
    load = engine.load_snapshot()
    run.rewriter_candidates = sum(load.attribute_level_filtering.values())
    run.evaluator_candidates = sum(load.value_level_filtering.values())
    run.notifications_created = sum(load.notifications_created.values())
    run.al_items = sum(load.attribute_level_storage.values())
    run.vl_items = sum(load.value_level_storage.values())
    run.storage_items = load.total_storage
    filtering = load.filtering.values()
    mean = sum(filtering) / len(filtering)
    run.tf_max_over_mean = max(filtering) / mean if mean else 0.0
    if keep_inputs:
        run.delivered_rows = {
            query.key: engine.delivered_rows(query.key) for query in run.queries
        }


def _read_traffic(run: AlgRun, *snapshots) -> None:
    for snapshot in snapshots:
        run.hops += snapshot.hops
        run.messages += snapshot.messages
        for kind, hops in snapshot.hops_by_type.items():
            run.hops_by_type[kind] = run.hops_by_type.get(kind, 0) + hops


def _run_simulator(
    spec: Workload, size: Size, algorithm: str, seed: int, *, keep_inputs: bool, staged: bool
) -> AlgRun:
    run = AlgRun(algorithm)
    hash_key_cache_clear()
    t0 = clock()
    workload = generator.build_workload(workload_params(spec, size, seed))
    t1 = clock()
    network = ChordNetwork.build(size.n_nodes, fast_routing=staged)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, seed=seed, **spec.engine)
    )
    t2 = clock()
    run.gen_s, run.build_s = t1 - t0, t2 - t1
    probe = Probe(engine, run, keep_inputs=keep_inputs)
    started = clock()
    if staged:
        result = shard.run_sharded(
            engine,
            workload,
            shards=1,
            batch_size=STAGED_BATCH_SIZE,
            seed=seed,
            evict_every=EVICT_EVERY,
        )
        # The barrier resolver suppresses on the engine's behalf.
        run.suppressed = result.suppressed_renotifications
    else:
        result = harness.run_workload(
            engine, workload, seed=seed, evict_every=EVICT_EVERY
        )
        run.suppressed = engine.suppressed_renotifications
    ended = clock()
    # Install = call start to first publish; stream = the rest.
    boundary = probe.first_publish if probe.first_publish is not None else ended
    run.install_s = boundary - started
    run.stream_s = ended - boundary
    run.evictions = result.evictions
    _read_traffic(run, result.install_traffic, result.stream_traffic)
    _read_engine(run, engine, keep_inputs)
    return run


def run_serial(
    spec: Workload, size: Size, algorithm: str, seed: int, *, keep_inputs: bool = False
) -> AlgRun:
    """The serial simulator through ``harness.run_workload``."""
    return _run_simulator(
        spec, size, algorithm, seed, keep_inputs=keep_inputs, staged=False
    )


def run_staged(
    spec: Workload, size: Size, algorithm: str, seed: int, *, keep_inputs: bool = False
) -> AlgRun:
    """The staged executor in-process: snapshot ring, ``shards=1``."""
    return _run_simulator(
        spec, size, algorithm, seed, keep_inputs=keep_inputs, staged=True
    )


async def drive_live(
    cluster: LiveCluster,
    workload: generator.Workload,
    run: AlgRun,
    *,
    seed: int,
    rate: Optional[float],
    keep_inputs: bool = False,
) -> None:
    """Install, stream, drain and settle ``workload`` on a started cluster.

    ``rate=None`` is the closed loop: every subscribe/publish first waits
    for the in-flight credit budget.  With a rate the stream is an open
    loop: tuple *i* is due at ``start + i / rate``; the driver sleeps
    only until a due time still ahead, publishes immediately when it is
    already missed (recording the lateness), and never waits for
    credits.  Failures are counted, never raised: drains run in
    tolerant mode so a quiesce timeout or a shed frame ends up in
    ``run.delivery_failures`` and the run carries on.
    """
    engine = cluster.engine
    probe = Probe(engine, run, keep_inputs=keep_inputs)
    rng = random.Random(seed)
    timeout = cluster.config.quiesce_timeout

    async def credit_gate() -> None:
        try:
            await cluster.in_flight.wait_below_budget(timeout)
        except QuiesceTimeout:
            run.delivery_failures += 1

    def call(operation, *args) -> None:
        try:
            operation(*args)
        except Exception:  # counted as a failed operation; the run carries on
            run.raised += 1

    query_events = [event for event in workload if event.kind == "query"]
    tuple_events = [event for event in workload if event.kind == "tuple"]

    install_start = clock()
    for event in query_events:
        await credit_gate()
        engine.clock.advance_to(event.time)
        call(engine.subscribe, cluster.network.random_node(rng), event.payload)
    await cluster.drain(tolerate_failures=True)

    stream_start = clock()
    if rate is not None:
        run.paced_s = (len(tuple_events) - 1) / rate
    for index, event in enumerate(tuple_events):
        if rate is None:
            await credit_gate()
        else:
            due = stream_start + index / rate
            ahead = due - clock()
            if ahead > 0.0:
                await asyncio.sleep(ahead)
            run.lateness.append(max(0.0, clock() - due))
            probe.due = due
        engine.clock.advance_to(event.time)
        relation, values = event.payload
        call(engine.publish, cluster.network.random_node(rng), relation, values)
    last_publish = clock()
    await cluster.drain(tolerate_failures=True)
    drained = clock()
    before_settle = sum(len(batch) for batch in engine.delivered.values())

    # One anti-entropy pass closes the DAI-Q/DAI-T one-shot-probe race
    # that pipelined publishes open (see repro.net.loadgen).
    for _, replay in engine.lease_refresh_steps():
        await credit_gate()
        call(replay)
    await cluster.drain(tolerate_failures=True)
    settled = clock()

    run.install_s = stream_start - install_start
    run.stream_s = last_publish - stream_start
    run.drain_s = drained - last_publish
    run.settle_s = settled - drained
    peers = cluster.peers.values()
    run.frames_sent = sum(peer.frames_sent for peer in peers)
    run.bytes_sent = sum(peer.bytes_sent for peer in peers)
    run.batches_sent = sum(peer.batches_sent for peer in peers)
    run.frames_shed = sum(peer.frames_shed for peer in peers)
    run.peak_in_flight = cluster.in_flight.peak
    run.delivery_failures += len(cluster.fault_log)
    run.suppressed = engine.suppressed_renotifications
    _read_traffic(run, cluster.stats.snapshot())
    _read_engine(run, engine, keep_inputs)
    run.recovered = run.notifications - before_settle
    if rate is not None:
        run.unsustainable = (
            run.drain_s > MAX_DRAIN_S
            or percentile(run.lateness, 0.99) * 1e3 > MAX_LATE_P99_MS
        )


def run_live(
    spec: Workload, size: Size, algorithm: str, seed: int, *, keep_inputs: bool = False
) -> AlgRun:
    """The live TCP cluster in the shipped configuration (batched,
    pipelined, raw relay), 16 asyncio peers on one loop over loopback."""
    run = AlgRun(algorithm)
    hash_key_cache_clear()
    t0 = clock()
    workload = generator.build_workload(workload_params(spec, size, seed))
    t1 = clock()
    cluster = LiveCluster(
        ClusterConfig(
            algorithm=algorithm,
            n_nodes=size.n_nodes,
            seed=seed,
            engine_overrides=dict(spec.engine),
            net=NetConfig(credit_budget=LIVE_CREDITS),
        )
    )
    run.gen_s, run.build_s = t1 - t0, clock() - t1

    async def session() -> None:
        try:
            t2 = clock()
            await cluster.start()
            run.start_s = clock() - t2
            await drive_live(
                cluster,
                workload,
                run,
                seed=seed,
                rate=spec.rate,
                keep_inputs=keep_inputs,
            )
        finally:
            # Always: a failed run must leave no listening sockets
            # behind for the next algorithm or workload.
            await cluster.stop()

    asyncio.run(session())
    return run


RUNNERS = {"serial": run_serial, "staged": run_staged, "live": run_live}
