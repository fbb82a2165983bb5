"""Run the four algorithms over a live localhost ring.

:class:`LiveCluster` builds the same stable Chord ring the simulator
uses (``ChordNetwork.build``), gives every node a :class:`NetPeer` with
a real TCP server, runs the bootstrap handshake so every peer's address
book converges, and swaps the network's transport for the
:class:`~repro.net.peer.SocketTransport`.  :meth:`LiveCluster.run`
replays a :class:`~repro.workload.generator.Workload` in the
simulator's order (:class:`~repro.bench.harness.ReplayOrder`: seeded
origin draws, clock advances, warm-up tuples before the queries),
**pipelined**: every event is gated only by the in-flight credit budget
(``config.net.credit_budget``), one drain closes the install phase at
the first tuple after a query, and one drain ends the run.  Every
delivered notification is timestamped against the wall-clock instant
the *later* of its two tuples was published — the publish that
completed the answer, the first instant the system could have known it.

Why pipelining cannot change the answers: the digest is a *set* digest
(:func:`repro.bench.rows.notification_digest`), queries are fully
installed before the stream starts, and every tuple carries its own
``pub_time`` — the simulator's, since both replay one order — so answer
identity never depends on arrival order.  DAI-Q
and DAI-T, which let only one side of a tuple pair match, decide that
side by the publish times the messages carry and hold an arriving half
while an older publish is still in flight (:mod:`repro.core.dai_q`,
:mod:`repro.core.dai_t`), so no pair is lost to a race and no settle
pass follows the stream.  A live run must therefore reproduce the
simulator's digest and delivered count exactly; the command line checks
it::

    python -m repro.net.cluster --algorithm all --nodes 6 --compare-sim

which exits non-zero on any divergence.  A run's one fault input is
:attr:`ClusterConfig.fault_plan`: its retry ladder always, and when it
faults the wire or churns the ring (``--chaos``), the wire-fault layer,
the failure detectors and the fault-tolerance soak
(:func:`repro.net.chaos.soak`) through this same driver: seeded
connection faults, and the plan's partition episode and live
crash/restarts at publish indexes of the stream
(:func:`repro.faults.schedule.churn_schedule`); after recovery the run
must still equal the fault-free simulator digest with zero duplicate
notifications, and its row carries the soak's counters as
``live["chaos"]``.

The committed live points are ``live`` rows of ``BENCH_baseline.json``:
``python -m repro.expdb gate`` re-runs them through
:func:`repro.expdb.runner.run_experiment` (this driver at
:data:`CREDIT_BUDGET`), demands the recorded digest and bounds today's
**install + stream** wall (:mod:`repro.expdb.gate`).
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..bench.harness import ReplayOrder, run_workload
from ..bench.rows import RunReport
from ..chord.network import ChordNetwork
from ..chord.node import ChordNode
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..errors import NetworkError, QuiesceTimeout
from ..faults.plan import FaultPlan
from ..sim.stats import TrafficStats
from ..workload.generator import Workload, WorkloadParams, build_workload
from . import link
from .chaos import SUBSCRIBERS, LiveChaos, parse_chaos_spec, soak, soak_ok, soak_summary
from .codec import encode_frame, read_frame
from .frames import JoinReply, JoinRequest, MultiFrame, RouteFrame
from .peer import InFlight, NetConfig, NetPeer, SocketTransport

#: What ``--algorithm all`` runs, in presentation order.
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Credit budget of the command line and of ``live`` experiment rows:
#: smaller gives saner latency tails, larger deeper pipelining.
CREDIT_BUDGET = 256

#: Latency percentiles reported, as fractions.
PERCENTILES = (0.50, 0.95, 0.99)

#: The plan of a cluster configured without one: no faults, and the
#: retry ladder a dead peer meets (3 attempts, 0.05 s base, no jitter).
DEFAULT_RETRIES = FaultPlan(max_attempts=3)


@dataclass
class ClusterConfig:
    """Shape of a live cluster run."""

    algorithm: str = "sai"
    n_nodes: int = 8
    #: Engine *and* driver seed, exactly like the harness's ``seed``.
    seed: int = 1
    host: str = "127.0.0.1"
    #: Ceiling on one wait for credits or for the cluster to drain.
    quiesce_timeout: float = 30.0
    #: Extra :class:`~repro.core.engine.EngineConfig` fields (window,
    #: replication_factor, ...).
    engine_overrides: dict = field(default_factory=dict)
    net: NetConfig = field(default_factory=NetConfig)
    #: The run's one fault input (:class:`LiveCluster`); loss and delay
    #: are refused: only the simulator injects them.
    fault_plan: Optional[FaultPlan] = None


def latency_ms(seconds: Sequence[float]) -> dict:
    """Wall-clock publish-to-notification latency samples, summarized
    in milliseconds (all zeros without a sample)."""
    ordered = sorted(seconds) or [0.0]

    def ms(value: float) -> float:
        return round(value * 1e3, 3)

    p50, p95, p99 = (ms(_percentile(ordered, q)) for q in PERCENTILES)
    return {
        "samples": len(seconds),
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
        "mean_ms": ms(sum(ordered) / len(ordered)),
        "max_ms": ms(ordered[-1]),
    }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sorted sample."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _per_second(count: int, seconds: float) -> float:
    return round(count / seconds, 1) if seconds > 0 else 0.0


def live_summary(report: RunReport) -> str:
    """One line on a live run's report."""
    live, latency = report.live, report.live["latency_ms"]
    return (
        f"{report.engine.config.algorithm:6s} {live['notifications_per_sec']:9.1f} "
        f"notif/s  p50 {latency['p50_ms']:7.2f}ms  p95 {latency['p95_ms']:7.2f}ms  "
        f"p99 {latency['p99_ms']:7.2f}ms  ({live['stream_seconds']:.3f}s stream, "
        f"{live['install_seconds'] + live['stream_seconds']:.3f}s total, "
        f"{report.notifications_delivered} notifications, "
        f"{live['frames_sent']} frames / {live['batches_sent']} batches / "
        f"{live['bytes_sent']} bytes on the wire, "
        f"{(report.install_traffic + report.stream_traffic).hops} overlay hops, "
        f"digest {report.notification_digest[:12]})"
    )


class LiveCluster:
    """An N-node localhost ring running one engine over real sockets."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config if config is not None else ClusterConfig()
        plan = self.config.fault_plan
        if plan is not None and plan.perturbs_delivery:
            raise ValueError(
                "the live transport cannot inject loss_probability or delay "
                "(per-delivery faults of the simulator's router); use "
                "transport='sim' for such a plan"
            )
        #: Source of the retry ladder (``max_attempts``, ``backoff_base``,
        #: ``backoff_jitter``) and of every fault.
        self.plan = plan if plan is not None else DEFAULT_RETRIES
        self.network = ChordNetwork.build(self.config.n_nodes)
        self.engine = ContinuousQueryEngine(
            self.network,
            EngineConfig(
                algorithm=self.config.algorithm,
                seed=self.config.seed,
                **self.config.engine_overrides,
            ),
        )
        self.net_config = self.config.net
        self.stats = TrafficStats()
        #: The wire-fault layer, built when the plan faults the wire or
        #: churns the ring (``None``: a benign run); such a cluster also
        #: runs a failure detector on every peer.
        self.chaos = (
            LiveChaos(self.plan)
            if self.plan.perturbs_wire or self.plan.schedules_churn
            else None
        )
        self.in_flight = InFlight(budget=self.net_config.credit_budget)
        # A node crash can settle a frame as lost in the same instant its
        # sender's write completes; under chaos that benign double
        # settlement must not abort the experiment.
        self.in_flight.allow_slack = self.chaos is not None
        self.transport = SocketTransport(self)
        self.max_hops = self.network.router.max_hops
        self.peers: dict[int, NetPeer] = {}
        self.errors: list[Exception] = []
        #: Failures a *tolerant* drain absorbed instead of raising
        #: (chaos runs); inspectable after the fact.
        self.fault_log: list[Exception] = []
        #: Overlay identifiers of currently-crashed nodes; outbound
        #: writes toward them fail fast instead of timing out.
        self.dead: set[int] = set()
        self.crash_frame_losses = 0
        self.frames_written_off = 0
        self.codec_faults = 0
        self.stream_breaks = 0
        self._jitter_rng = random.Random(self.config.seed ^ 0x5EED)
        self._previous_transport = None

    # ------------------------------------------------------------------
    # Plumbing used by peers/transport
    # ------------------------------------------------------------------
    def peer_for(self, node) -> NetPeer:
        return self.peers[node.ident]

    def is_dead(self, ident: int) -> bool:
        return ident in self.dead

    def jittered(self, pause: float) -> float:
        """Stretch a retry pause by the plan's ``backoff_jitter`` (seeded).

        The draw comes from a cluster RNG derived from the run seed,
        with or without chaos.  Zero jitter takes no draw at all, so the
        deterministic backoff sequence is bit-identical.
        """
        jitter = self.plan.backoff_jitter
        if jitter <= 0.0 or pause <= 0.0:
            return pause
        return pause * (1.0 + self._jitter_rng.random() * jitter)

    def frame_failed(self, exc: Exception, labels) -> None:
        """A frame was lost for good; settle its deliveries and record."""
        self.errors.append(exc)
        self.network.note_loss()
        self.stats.record_drop(
            getattr(exc, "message_type", labels[0] if labels else "frame")
        )
        for label in labels:
            self.in_flight.dec(label)

    def frame_lost(self, reason: str, labels) -> None:
        """A frame died *with* a crashed node — expected, not an error.

        Settles the in-flight credits so the cluster can quiesce; the
        lease refresh re-creates whatever the frame would have built.
        Unlike :meth:`frame_failed` this does not append to ``errors``:
        a crash announced through the chaos controller is part of the
        experiment, and tolerating it must not mask real failures.
        """
        self.stats.record_drop(labels[0] if labels else "frame")
        for label in labels:
            self.in_flight.dec(label)
        self.crash_frame_losses += 1
        self.network.note_loss()

    def handler_failed(self, exc: Exception) -> None:
        self.errors.append(exc)

    def note_codec_fault(self, exc: Exception) -> None:
        """Corrupt bytes arrived on a connection (it was aborted)."""
        self.codec_faults += 1
        self.network.note_loss()
        if self.chaos is None:
            # Without chaos installed nothing should ever garble a
            # frame; surface it on the next drain.
            self.errors.append(exc)

    def note_stream_break(self, exc: Exception) -> None:
        """A connection died mid-frame (truncation or peer crash)."""
        self.stream_breaks += 1
        self.network.note_loss()
        if self.chaos is None:
            self.errors.append(exc)

    def fallback_ident(self, frame, failed_ident: int) -> Optional[int]:
        """Where a retry-exhausted routed frame should go instead.

        Mirrors the simulator Router's successor fallback: if the
        target is gone from the ring (crashed), the node now
        responsible for the frame's routing identifier owns its keys;
        if the target is still a ring member (mere unreachability,
        e.g. an asymmetric partition), its first live successor acts
        as a relay that can usually still reach it.  Direct and
        control frames have no overlay fallback — their state comes
        back through the lease refresh.
        """
        kind = type(frame)
        if kind is RouteFrame:
            route_ident = frame.target_ident
        elif kind is MultiFrame:
            route_ident = frame.pairs[0][0]
        else:
            return None
        try:
            node = self.network.node_at(failed_ident)
        except KeyError:
            node = None
        if node is None or not node.alive:
            owner = self.network.responsible_node(route_ident)
            return owner.ident if owner.ident != failed_ident else None
        for candidate in node.successor_list:
            if candidate.alive and candidate.ident != failed_ident:
                if self.is_dead(candidate.ident):
                    continue
                return candidate.ident
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind every peer, run the bootstrap handshake, go live."""
        nodes = self.network.nodes
        for node in nodes:
            peer = NetPeer(node, self)
            self.peers[node.ident] = peer
            await peer.start(self.config.host)
        bootstrap = self.peers[nodes[0].ident]
        for node in nodes[1:]:
            await self._join_via(self.peers[node.ident], bootstrap.info)
        await self.drain()  # flush the MemberUpdate broadcasts
        expected = len(nodes)
        for peer in self.peers.values():
            if len(peer.book) != expected:
                raise NetworkError(
                    f"peer {peer.node.ident} bootstrapped with "
                    f"{len(peer.book)}/{expected} addresses"
                )
        self._previous_transport = self.network.use_transport(self.transport)
        if self.chaos is not None:
            for peer in self.peers.values():
                peer.enable_health()

    async def _join_via(self, peer: NetPeer, bootstrap) -> None:
        """One joiner's handshake: JoinRequest over TCP, JoinReply back."""
        reader, writer = await link.open_link(bootstrap, link.CONNECT_TIMEOUT)
        try:
            writer.write(encode_frame(JoinRequest(info=peer.info)))
            await asyncio.wait_for(writer.drain(), link.IO_TIMEOUT)
            reply = await read_frame(reader, timeout=link.IO_TIMEOUT)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover - teardown
                pass
        if not isinstance(reply, JoinReply):
            raise NetworkError(
                f"bootstrap answered a JoinRequest with "
                f"{type(reply).__name__}"
            )
        for info in reply.members:
            peer.book.setdefault(info.ident, info)

    async def restart_peer(self, node) -> NetPeer:
        """Socket-side restart: new server (new port), fresh bootstrap.

        ``node`` must already be back in the ring (``ChaosHarness.
        restart``).  The join handshake runs against any live peer;
        its MemberUpdate fan-out overwrites the dead address in every
        book, and stale pooled connections are reset on receipt.
        """
        self.dead.discard(node.ident)
        peer = NetPeer(node, self)
        self.peers[node.ident] = peer
        await peer.start(self.config.host)
        bootstrap = next(
            (
                existing
                for ident, existing in self.peers.items()
                if ident != node.ident and not existing.crashed
            ),
            None,
        )
        if bootstrap is None:  # pragma: no cover - defensive
            raise NetworkError("no live peer to bootstrap a restart from")
        await self._join_via(peer, bootstrap.info)
        if self.chaos is not None:
            peer.enable_health()
        return peer

    async def stop(self) -> None:
        """Close every peer; restore the simulator transport."""
        if self._previous_transport is not None:
            self.network.use_transport(self._previous_transport)
            self._previous_transport = None
        for peer in self.peers.values():
            await peer.stop()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    async def drain(self, *, tolerate_failures: bool = False) -> None:
        """Wait until every posted delivery has been handled.

        ``tolerate_failures`` is the chaos mode: a quiesce timeout
        writes the leaked credits off (arming matching debt) instead of
        raising, and collected delivery failures move to ``fault_log``
        instead of aborting the run — the lease refresh is responsible
        for healing whatever they broke.
        """
        try:
            await self.in_flight.wait_zero(self.config.quiesce_timeout)
        except QuiesceTimeout as exc:
            queues = {
                peer.node.ident: sum(
                    outbox.depth for outbox in peer._outboxes.values()
                )
                for peer in self.peers.values()
            }
            enriched = QuiesceTimeout(
                self.config.quiesce_timeout,
                exc.pending,
                {ident: depth for ident, depth in queues.items() if depth},
            )
            if not tolerate_failures:
                raise enriched from None
            self.fault_log.append(enriched)
            self.frames_written_off += sum(
                self.in_flight.write_off().values()
            )
            self.network.note_loss()
        if self.errors:
            if tolerate_failures:
                self.fault_log.extend(self.errors)
                self.errors.clear()
                return
            first = self.errors[0]
            raise NetworkError(
                f"{len(self.errors)} delivery/handler failure(s); "
                f"first: {first!r}"
            ) from first

    async def run(
        self,
        workload: Workload,
        *,
        origins: Optional[Sequence[ChordNode]] = None,
        schedule: Optional[Mapping[int, Sequence[Callable[[], object]]]] = None,
    ) -> RunReport:
        """Replay ``workload`` in :class:`~repro.bench.harness.ReplayOrder`
        (seeded origin draws, clock advances, the install/stream boundary
        and ``schedule``'s publish indexes, as the simulator replays it),
        each event gated only by the credit budget; drain at the boundary,
        where the install/stream split is taken (:meth:`ReplayOrder.split`
        — a replay whose boundary never fires is all install), and once
        at the end, then measure.

        ``origins`` is a fixed, identifier-ordered tuple of nodes to draw
        from, the live ring by default.  ``schedule`` maps publish indexes
        of the tuples to actions called just before that publish, each
        awaited when it returns an awaitable (a chaos soak's
        :func:`~repro.faults.schedule.churn_schedule`: async crashes,
        restarts and partition beside a sync lease refresh).  With a
        chaos layer installed every drain is tolerant.  A windowed engine
        is refused before the first event.
        """
        engine = self.engine
        if engine.config.window is not None:
            raise ValueError(
                "the live transport refuses windowed rows: the pipelined "
                "driver does not reproduce the simulator's windowed answer "
                "set (20-37 of 39 answers at a 6-node probe point), so such "
                "a run could never pass the oracle check; use transport="
                "'sim' or 'shard' for windowed sweep points"
            )
        replay = ReplayOrder(
            engine, workload, seed=self.config.seed, origins=origins, schedule=schedule
        )
        clock = time.perf_counter
        timeout = self.config.quiesce_timeout
        tolerate = self.chaos is not None

        # Publish wall times by sim pub_time; a notification's latency is
        # measured from the *later* of its two contributing publishes.
        publish_wall: dict[float, float] = {}
        latencies: list[float] = []

        def on_notification(notification) -> None:
            started = publish_wall.get(
                max(notification.trigger_pub_time, notification.match_pub_time)
            )
            if started is not None:
                latencies.append(clock() - started)

        install_start = stream_start = clock()
        traffic_start = installed = self.stats.snapshot()
        install_tuples = 0
        for event in replay:
            if replay.boundary:
                await self.drain(tolerate_failures=tolerate)
                installed = self.stats.snapshot()
                stream_start = clock()
                install_tuples = replay.published - 1
            for action in replay.actions:
                result = action()
                if inspect.isawaitable(result):
                    await result
            await self.in_flight.wait_below_budget(timeout)
            origin = replay.origin(event)
            if event.kind == "query":
                bound = engine.subscribe(origin, event.payload)
                engine.add_notification_listener(bound.key, on_notification)
            else:
                relation, values = event.payload
                publish_wall[event.time] = clock()
                engine.publish(origin, relation, values)
        await self.drain(tolerate_failures=tolerate)
        install_seconds, stream_seconds = replay.split(install_start, stream_start, clock())
        install_traffic, stream_traffic = replay.split(
            traffic_start, installed, self.stats.snapshot()
        )
        _, stream_tuples = replay.split(0, install_tuples, replay.published)

        peers = self.peers.values()
        return RunReport(
            kind="live",
            engine=engine,
            install_traffic=install_traffic,
            stream_traffic=stream_traffic,
            events=replay.events,
            evictions=0,
            suppressed_renotifications=engine.suppressed_renotifications,
            duplicate_deliveries=engine.duplicate_deliveries,
            live={
                "install_seconds": round(install_seconds, 4),
                "stream_seconds": round(stream_seconds, 4),
                "stream_tuples_per_sec": _per_second(stream_tuples, stream_seconds),
                "notifications_per_sec": _per_second(
                    sum(map(len, engine.delivered.values())), stream_seconds
                ),
                "frames_sent": sum(peer.frames_sent for peer in peers),
                "bytes_sent": sum(peer.bytes_sent for peer in peers),
                "batches_sent": sum(peer.batches_sent for peer in peers),
                "frames_shed": sum(peer.frames_shed for peer in peers),
                "peak_in_flight": self.in_flight.peak,
                "latency_ms": latency_ms(latencies),
            },
        )


async def run_live(
    workload: Workload, config: Optional[ClusterConfig] = None
) -> RunReport:
    """Start a cluster, run ``workload``, always tear down: the benign
    :meth:`~LiveCluster.run`, or — when the plan faults the wire or
    churns the ring — the soak (:func:`repro.net.chaos.soak`)."""
    cluster = LiveCluster(config)
    await cluster.start()
    try:
        if cluster.chaos is None:
            return await cluster.run(workload)
        return await soak(cluster, workload)
    finally:
        await cluster.stop()


def simulate_reference(
    workload: Workload,
    *,
    algorithm: str,
    n_nodes: int,
    seed: int,
    subscribers: Optional[int] = None,
) -> tuple[str, int]:
    """The simulator oracle: digest + delivery count for one workload.

    Origins are drawn like :meth:`LiveCluster.run` draws them: from the
    whole ring, or — ``subscribers`` given — from the first that many
    nodes in identifier order, a chaos soak's protected pool.
    """
    engine = ContinuousQueryEngine(
        ChordNetwork.build(n_nodes),
        EngineConfig(algorithm=algorithm, seed=seed),
    )
    origins = None if subscribers is None else engine.network.nodes[:subscribers]
    report = run_workload(engine, workload, seed=seed, origins=origins)
    return report.notification_digest, report.notifications_delivered


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.cluster",
        description="Run a workload over a live localhost ring of asyncio "
        "peers: notifications/sec and p50/p95/p99 latency per algorithm, "
        "optionally checked against the simulator.  The committed live "
        "points are gated by python -m repro.expdb gate.",
    )
    parser.add_argument(
        "--algorithm",
        default="sai",
        choices=ALGORITHMS + ("all",),
        help="query-processing algorithm, or all four (default: sai)",
    )
    parser.add_argument("--nodes", type=int, default=8, help="ring size")
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--tuples", type=int, default=100)
    parser.add_argument("--domain-size", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="run the fault-tolerance soak instead: the same stream "
        "under seeded connection faults, a partition episode and live "
        "crash/restarts.  SPEC is 'default' or comma-separated "
        "field=value pairs overriding the default fault plan's fields "
        "(times in workload time units, the k-th tuple publishes at "
        "time k: connect_refusal_probability=0.05,"
        "frame_fault_probability=0.05,crash_every=17,crash_count=2,"
        "restart_after=6,partition_at=22,partition_for=7,seed=17,"
        "max_attempts=4,backoff_base=0.02,backoff_jitter=0.5)",
    )
    parser.add_argument(
        "--compare-sim",
        action="store_true",
        help="also replay the workload in the simulator and fail unless "
        "the delivered digest and count match exactly",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report per algorithm, one per line",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    algorithms = ALGORITHMS if args.algorithm == "all" else (args.algorithm,)
    plan = None if args.chaos is None else parse_chaos_spec(args.chaos)
    # A soak keeps NetConfig's larger credit budget: its recovery drains
    # peak above CREDIT_BUDGET.
    net = NetConfig(credit_budget=CREDIT_BUDGET) if plan is None else NetConfig()
    workload = build_workload(
        WorkloadParams(
            n_queries=args.queries,
            n_tuples=args.tuples,
            domain_size=args.domain_size,
            seed=args.seed,
        )
    )
    status = 0
    for algorithm in algorithms:
        config = ClusterConfig(
            algorithm=algorithm, n_nodes=args.nodes, seed=args.seed, net=net, fault_plan=plan
        )
        try:
            report = asyncio.run(run_live(workload, config))
        except ValueError as exc:
            build_parser().error(str(exc))
        soaking = "chaos" in report.live
        payload = {"algorithm": algorithm, **report.to_row()}
        ok = not soaking or soak_ok(report)
        if args.compare_sim:
            sim_digest, sim_delivered = simulate_reference(
                workload,
                algorithm=algorithm,
                n_nodes=args.nodes,
                seed=args.seed,
                subscribers=SUBSCRIBERS if soaking else None,
            )
            answers = (report.notification_digest, report.notifications_delivered)
            matches = answers == (sim_digest, sim_delivered)
            payload["sim_digest"] = sim_digest
            payload["sim_notifications_delivered"] = sim_delivered
            payload["matches_simulator"] = matches
            ok = ok and matches
        payload["ok"] = ok
        status = status if ok else 1
        if args.json:
            print(json.dumps(payload, sort_keys=True))
            continue
        print(live_summary(report))
        if soaking:
            print(soak_summary(report))
        if args.compare_sim:
            print(
                f"simulator digest {sim_digest[:12]} ({sim_delivered} "
                f"notifications) -> {'MATCH' if matches else 'MISMATCH'}"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
