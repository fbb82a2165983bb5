"""Run the four algorithms over a live localhost ring.

:class:`LiveCluster` builds the same stable Chord ring the simulator
uses (``ChordNetwork.build``), gives every node a :class:`NetPeer` with
a real TCP server, runs the bootstrap handshake so every peer's address
book converges, and swaps the network's transport for the
:class:`~repro.net.peer.SocketTransport`.  :meth:`LiveCluster.run`
replays a :class:`~repro.workload.generator.Workload` with the
harness's seeded origin draws and clock advances, **pipelined**: the
queries are installed and drained, the tuples stream gated only by the
in-flight credit budget (``config.net.credit_budget``), and one drain
ends the run.  Every delivered notification is timestamped against the
wall-clock instant the *later* of its two tuples was published — the
publish that completed the answer, the first instant the system could
have known it.

Why pipelining cannot change the answers: the digest is a *set* digest
(:func:`repro.bench.rows.notification_digest`), queries are fully
installed before the stream starts, and every tuple carries its own
``pub_time``, so answer identity never depends on arrival order.  DAI-Q
and DAI-T, which let only one side of a tuple pair match, decide that
side by the publish times the messages carry and hold an arriving half
while an older publish is still in flight (:mod:`repro.core.dai_q`,
:mod:`repro.core.dai_t`), so no pair is lost to a race and no settle
pass follows the stream.  A live run must therefore reproduce the
simulator's digest and delivered count exactly; the command line checks
it::

    python -m repro.net.cluster --algorithm all --nodes 6 --compare-sim

which exits non-zero on any divergence.  With ``--chaos`` the same
command runs the fault-tolerance soak instead (:mod:`repro.net.chaos`):
seeded connection faults, one partition episode and live crash/restarts
are injected while the workload replays, and the run must still
converge to the fault-free simulator digest with zero duplicate
notifications.

The committed live points are ``live`` rows of ``BENCH_baseline.json``:
``python -m repro.expdb gate`` re-runs them through
:func:`repro.expdb.runner._run_live` (this driver at
:data:`CREDIT_BUDGET`), demands the recorded digest and bounds today's
**install + stream** wall (:mod:`repro.expdb.gate`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from ..chord.network import ChordNetwork
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..errors import NetworkError, QuiesceTimeout
from ..sim.stats import TrafficSnapshot, TrafficStats
from ..workload.generator import Workload, WorkloadParams, build_workload
from .codec import encode_frame, read_frame
from .frames import JoinReply, JoinRequest, MultiFrame, RouteFrame
from .health import HealthConfig
from .peer import InFlight, NetConfig, NetPeer, SocketTransport, set_nodelay

#: What ``--algorithm all`` runs, in presentation order.
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Credit budget of the command line and of ``live`` experiment rows:
#: smaller gives saner latency tails, larger deeper pipelining.
CREDIT_BUDGET = 256

#: Latency percentiles reported, as fractions.
PERCENTILES = (0.50, 0.95, 0.99)


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
    #: When set, every peer runs a heartbeat failure detector.
    health: Optional[HealthConfig] = None


@dataclass
class LatencySummary:
    """Wall-clock publish-to-notification latency, in milliseconds."""

    samples: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def of(cls, seconds: list[float]) -> "LatencySummary":
        if not seconds:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(seconds)
        p50, p95, p99 = (_percentile(ordered, q) for q in PERCENTILES)
        return cls(
            samples=len(ordered),
            p50_ms=round(p50 * 1e3, 3),
            p95_ms=round(p95 * 1e3, 3),
            p99_ms=round(p99 * 1e3, 3),
            mean_ms=round(sum(ordered) / len(ordered) * 1e3, 3),
            max_ms=round(ordered[-1] * 1e3, 3),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sorted sample."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class LoadReport:
    """One measured :meth:`LiveCluster.run`."""

    algorithm: str
    n_tuples: int
    install_seconds: float
    stream_seconds: float
    notifications: int
    frames_sent: int
    bytes_sent: int
    batches_sent: int
    frames_shed: int
    peak_in_flight: int
    digest: str
    latency: LatencySummary
    #: Per-node filtering/storage observations at the end of the run
    #: (:func:`repro.bench.rows.load_to_row`), exact for a seed.
    load: dict
    #: Overlay traffic of the whole run (install + stream).
    traffic: TrafficSnapshot

    @property
    def total_seconds(self) -> float:
        """The whole path a user pays for: install + stream."""
        return self.install_seconds + self.stream_seconds

    @property
    def notifications_per_sec(self) -> float:
        return self.notifications / self.stream_seconds if self.stream_seconds > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.n_tuples / self.stream_seconds if self.stream_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "wall_seconds": round(self.stream_seconds, 4),
            "install_seconds": round(self.install_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "notifications_per_sec": round(self.notifications_per_sec, 1),
            "events_per_sec": round(self.events_per_sec, 1),
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "batches_sent": self.batches_sent,
            "frames_shed": self.frames_shed,
            "peak_in_flight": self.peak_in_flight,
            "latency_ms": self.latency.as_dict(),
        }

    def to_row(self) -> dict:
        """Stable JSON-safe dict shared with the :mod:`repro.expdb`
        writer: the invariant answer-set columns under the same names
        as the simulator rows, the live-only measurements nested."""
        from ..bench.rows import ROW_VERSION

        return {
            "row_version": ROW_VERSION,
            "kind": "live",
            "hops": self.traffic.hops,
            "messages": self.traffic.messages,
            "notifications_delivered": self.notifications,
            "notification_digest": self.digest,
            # Constant: stored expdb rows from when a per-frame mode
            # existed stay comparable on this key.
            "mode": "batched",
            "live": self.as_dict(),
            "load": self.load,
        }

    def summary(self) -> str:
        latency = self.latency
        return (
            f"{self.algorithm:6s} {self.notifications_per_sec:9.1f} notif/s  "
            f"p50 {latency.p50_ms:7.2f}ms  p95 {latency.p95_ms:7.2f}ms  "
            f"p99 {latency.p99_ms:7.2f}ms  ({self.stream_seconds:.3f}s stream, "
            f"{self.total_seconds:.3f}s total, {self.notifications} notifications, "
            f"{self.frames_sent} frames / {self.batches_sent} batches / "
            f"{self.bytes_sent} bytes on the wire, "
            f"{self.traffic.hops} overlay hops, digest {self.digest[:12]})"
        )


class LiveCluster:
    """An N-node localhost ring running one engine over real sockets."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config if config is not None else ClusterConfig()
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
        self.in_flight = InFlight(budget=self.net_config.credit_budget)
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
        #: Installed :class:`~repro.net.chaos.LiveChaos`, or ``None``.
        self.chaos = None
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
        """Stretch a retry pause by ``net_config.backoff_jitter`` (seeded).

        The draw comes from a cluster RNG derived from the run seed,
        with or without chaos (``NetConfig.from_fault_plan`` lifts the
        plan's jitter).  Zero jitter takes no draw at all, so the
        deterministic backoff sequence is bit-identical.
        """
        jitter = self.net_config.backoff_jitter
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

    def install_chaos(self, chaos) -> None:
        """Attach a :class:`~repro.net.chaos.LiveChaos` wire-fault layer.

        Must happen before :meth:`start`.  Also relaxes the in-flight
        ledger (``allow_slack``): a node crash can settle a frame as
        lost in the same instant its sender's write completes, and that
        benign double-settlement must not abort the experiment.
        """
        self.chaos = chaos
        self.in_flight.allow_slack = True

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
        if self.config.health is not None:
            for peer in self.peers.values():
                peer.enable_health(self.config.health)

    async def _join_via(self, peer: NetPeer, bootstrap) -> None:
        """One joiner's handshake: JoinRequest over TCP, JoinReply back."""
        net = self.net_config
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(bootstrap.host, bootstrap.port),
            net.connect_timeout,
        )
        set_nodelay(writer)
        try:
            writer.write(encode_frame(JoinRequest(info=peer.info)))
            await asyncio.wait_for(writer.drain(), net.io_timeout)
            reply = await read_frame(reader, timeout=net.io_timeout)
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
        if self.config.health is not None:
            peer.enable_health(self.config.health)
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

    async def run(self, workload: Workload) -> LoadReport:
        """Replay ``workload``: install the queries and drain, stream the
        tuples gated only by the credit budget, drain once, measure.

        Origins are drawn from the run seed, queries first, then tuples.
        A windowed engine is refused before the first event.
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
        rng = random.Random(self.config.seed)
        clock = time.perf_counter
        timeout = self.config.quiesce_timeout
        query_events = [event for event in workload if event.kind == "query"]
        tuple_events = [event for event in workload if event.kind == "tuple"]

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

        install_start = clock()
        for event in query_events:
            await self.in_flight.wait_below_budget(timeout)
            engine.clock.advance_to(event.time)
            origin = self.network.random_node(rng)
            bound = engine.subscribe(origin, event.payload)
            engine.add_notification_listener(bound.key, on_notification)
        await self.drain()
        install_seconds = clock() - install_start

        stream_start = clock()
        for event in tuple_events:
            await self.in_flight.wait_below_budget(timeout)
            engine.clock.advance_to(event.time)
            origin = self.network.random_node(rng)
            relation, values = event.payload
            publish_wall[event.time] = clock()
            engine.publish(origin, relation, values)
        await self.drain()
        stream_seconds = clock() - stream_start

        from ..bench.rows import load_to_row, notification_digest

        peers = self.peers.values()
        return LoadReport(
            algorithm=engine.config.algorithm,
            n_tuples=len(tuple_events),
            install_seconds=install_seconds,
            stream_seconds=stream_seconds,
            notifications=sum(len(batch) for batch in engine.delivered.values()),
            frames_sent=sum(peer.frames_sent for peer in peers),
            bytes_sent=sum(peer.bytes_sent for peer in peers),
            batches_sent=sum(peer.batches_sent for peer in peers),
            frames_shed=sum(peer.frames_shed for peer in peers),
            peak_in_flight=self.in_flight.peak,
            digest=notification_digest(engine),
            latency=LatencySummary.of(latencies),
            load=load_to_row(engine.load_snapshot()),
            traffic=self.stats.snapshot(),
        )


async def run_live(
    workload: Workload, config: Optional[ClusterConfig] = None
) -> LoadReport:
    """Start a cluster, :meth:`~LiveCluster.run` ``workload``, always tear down."""
    cluster = LiveCluster(config)
    await cluster.start()
    try:
        return await cluster.run(workload)
    finally:
        await cluster.stop()


def simulate_reference(
    workload: Workload, *, algorithm: str, n_nodes: int, seed: int
) -> tuple[str, int]:
    """The simulator oracle: digest + delivery count for one workload."""
    from ..bench.harness import run_workload
    from ..bench.rows import notification_digest

    engine = ContinuousQueryEngine(
        ChordNetwork.build(n_nodes),
        EngineConfig(algorithm=algorithm, seed=seed),
    )
    result = run_workload(engine, workload, seed=seed)
    return notification_digest(engine), result.notifications_delivered


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
        help="run the fault-tolerance soak instead: inject seeded "
        "connection faults, a partition episode and live "
        "crash/restarts while the workload replays.  SPEC is "
        "'default' or comma-separated key=value pairs "
        "(frame=0.05,connect=0.05,crashes=2,partition=1,seed=17,"
        "attempts=4,backoff=0.02,jitter=0.5,subscribers=2)",
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
    if args.chaos is not None:
        from .chaos import run_soak_cli

        return max(run_soak_cli(args, algorithm) for algorithm in algorithms)

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
        report = asyncio.run(
            run_live(
                workload,
                ClusterConfig(
                    algorithm=algorithm,
                    n_nodes=args.nodes,
                    seed=args.seed,
                    net=NetConfig(credit_budget=CREDIT_BUDGET),
                ),
            )
        )
        payload = {
            "algorithm": algorithm,
            **report.to_row(),
            "overlay_hops": report.traffic.hops,
            "messages": report.traffic.messages,
        }
        if args.compare_sim:
            sim_digest, sim_delivered = simulate_reference(
                workload, algorithm=algorithm, n_nodes=args.nodes, seed=args.seed
            )
            matches = (report.digest, report.notifications) == (
                sim_digest,
                sim_delivered,
            )
            payload["sim_digest"] = sim_digest
            payload["sim_notifications_delivered"] = sim_delivered
            payload["matches_simulator"] = matches
            status = status if matches else 1
        if args.json:
            print(json.dumps(payload, sort_keys=True))
            continue
        print(report.summary())
        if args.compare_sim:
            print(
                f"simulator digest {sim_digest[:12]} ({sim_delivered} "
                f"notifications) -> {'MATCH' if matches else 'MISMATCH'}"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
