"""Run the four algorithms over a live localhost ring.

:class:`LiveCluster` builds the same stable Chord ring the simulator
uses (``ChordNetwork.build``), gives every node a :class:`NetPeer` with
a real TCP server, runs the bootstrap handshake so every peer's address
book converges, swaps the network's transport for the
:class:`~repro.net.peer.SocketTransport`, and replays a
:class:`~repro.workload.generator.Workload` with exactly the harness's
seeded driver loop — same RNG stream, same clock advances, same
subscribe/publish calls.  Between workload events the driver awaits
cluster quiescence (the in-flight delivery counter reaching zero), so
an event's full causal cascade lands before the next event fires, just
as a simulator event's synchronous call tree completes before the next.

Because the notification digest is a *set* digest (sorted per query and
across queries), within-event frame reordering over TCP cannot change
it; a live run must therefore reproduce the simulator's digest exactly
for the same workload and seed.  That is the subsystem's correctness
gate, runnable from the command line::

    python -m repro.net.cluster --algorithm dai-v --nodes 8 \\
        --queries 30 --tuples 120 --compare-sim

which exits non-zero if the live digest differs from the simulator's.

With ``--chaos`` the same command runs the fault-tolerance soak
instead (:mod:`repro.net.chaos`): seeded connection faults, one
partition episode and live crash/restarts are injected while the
workload replays, and the run must still converge to the fault-free
simulator digest with zero duplicate notifications.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Optional

from ..chord.network import ChordNetwork
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..errors import NetworkError, QuiesceTimeout
from ..perf import PERF
from ..sim.stats import TrafficSnapshot, TrafficStats
from ..workload.generator import Workload, WorkloadParams, build_workload
from .codec import encode_frame, read_frame
from .frames import JoinReply, JoinRequest, MultiFrame, RouteFrame
from .health import HealthConfig
from .peer import InFlight, NetConfig, NetPeer, SocketTransport, set_nodelay


@dataclass
class ClusterConfig:
    """Shape of a live cluster run."""

    algorithm: str = "sai"
    n_nodes: int = 8
    #: Engine *and* driver seed, exactly like the harness's ``seed``.
    seed: int = 1
    host: str = "127.0.0.1"
    #: Ceiling on waiting for one workload event's cascade to land.
    quiesce_timeout: float = 30.0
    #: Extra :class:`~repro.core.engine.EngineConfig` fields (window,
    #: replication_factor, ...).
    engine_overrides: dict = field(default_factory=dict)
    net: NetConfig = field(default_factory=NetConfig)
    #: When set, every peer runs a heartbeat failure detector.
    health: Optional[HealthConfig] = None


@dataclass
class LiveReport:
    """What a live run produced, for humans and for the sim comparison."""

    algorithm: str
    n_nodes: int
    n_queries: int
    n_tuples: int
    notifications_delivered: int
    notification_digest: str
    traffic: TrafficSnapshot
    frames_sent: int
    bytes_sent: int
    batches_sent: int
    perf: dict
    peak_in_flight: int = 0
    credit_budget: Optional[int] = None
    frames_shed: int = 0
    chaos: Optional[dict] = None

    def summary(self) -> str:
        return (
            f"live {self.algorithm}: {self.n_nodes} nodes, "
            f"{self.n_queries} queries, {self.n_tuples} tuples -> "
            f"{self.notifications_delivered} notifications, "
            f"{self.frames_sent} frames / {self.bytes_sent} bytes on the "
            f"wire, {self.traffic.hops} overlay hops, "
            f"digest {self.notification_digest[:12]}"
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
        """Stretch a retry pause by the configured jitter (seeded).

        With chaos installed the draw comes from the fault plan's own
        injector RNG (the satellite-1 contract: jitter is part of the
        seeded fault plan); otherwise from a cluster RNG derived from
        the run seed.  Zero jitter takes no draw at all, so the
        deterministic legacy backoff sequence is bit-identical.
        """
        if self.chaos is not None:
            return self.chaos.injector.jittered(pause)
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

    async def crash_peer(self, node) -> Optional[NetPeer]:
        """Socket-side crash of ``node``: freeze, unpool, settle, hang up.

        The ring-side half (``network.fail`` + stabilization + key
        inheritance) is :meth:`repro.faults.recovery.ChaosHarness.crash`;
        the live chaos controller sequences the two.  Callers that
        crash a node directly (tests) must repair the ring themselves.
        """
        peer = self.peers.pop(node.ident, None)
        if peer is None:
            return None
        self.dead.add(node.ident)
        peer.freeze()
        await peer.abort()
        return peer

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

    async def run(self, workload: Workload, *, evict_every: int = 64) -> LiveReport:
        """Replay ``workload`` — the harness driver loop, one drain per event."""
        engine = self.engine
        rng = random.Random(self.config.seed)
        events_since_evict = 0
        for event in workload:
            await self.in_flight.wait_below_budget(self.config.quiesce_timeout)
            engine.clock.advance_to(event.time)
            origin = self.network.random_node(rng)
            if event.kind == "query":
                engine.subscribe(origin, event.payload)
            else:
                relation, values = event.payload
                engine.publish(origin, relation, values)
            await self.drain()
            events_since_evict += 1
            if (
                engine.config.window is not None
                and events_since_evict >= evict_every
            ):
                engine.evict_expired()
                events_since_evict = 0
        if engine.config.window is not None:
            engine.evict_expired()
        await self.drain()
        return self.report(workload)

    def report(self, workload: Workload) -> LiveReport:
        from ..bench.rows import notification_digest

        return LiveReport(
            algorithm=self.engine.config.algorithm,
            n_nodes=len(self.network),
            n_queries=workload.n_queries,
            n_tuples=workload.n_tuples,
            notifications_delivered=sum(
                len(batch) for batch in self.engine.delivered.values()
            ),
            notification_digest=notification_digest(self.engine),
            traffic=self.stats.snapshot(),
            frames_sent=sum(peer.frames_sent for peer in self.peers.values()),
            bytes_sent=sum(peer.bytes_sent for peer in self.peers.values()),
            batches_sent=sum(
                peer.batches_sent for peer in self.peers.values()
            ),
            perf=PERF.snapshot(),
            peak_in_flight=self.in_flight.peak,
            credit_budget=self.in_flight.budget,
            frames_shed=sum(peer.frames_shed for peer in self.peers.values()),
            chaos=self.chaos.snapshot() if self.chaos is not None else None,
        )


async def run_live(
    workload: Workload, config: Optional[ClusterConfig] = None
) -> LiveReport:
    """Start a cluster, replay ``workload``, always tear down."""
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
# Command-line runner
# ----------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.cluster",
        description="Run a workload over a live localhost ring of "
        "asyncio peers (optionally checking it against the simulator).",
    )
    parser.add_argument(
        "--algorithm",
        default="sai",
        choices=("sai", "dai-q", "dai-t", "dai-v"),
        help="query-processing algorithm (default: sai)",
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
        "the delivered-notification digests match exactly",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    if args.chaos is not None:
        from .chaos import run_soak_cli

        return run_soak_cli(args)

    workload = build_workload(
        WorkloadParams(
            n_queries=args.queries,
            n_tuples=args.tuples,
            domain_size=args.domain_size,
            seed=args.seed,
        )
    )
    report = asyncio.run(
        run_live(
            workload,
            ClusterConfig(
                algorithm=args.algorithm, n_nodes=args.nodes, seed=args.seed
            ),
        )
    )

    payload = {
        "algorithm": report.algorithm,
        "n_nodes": report.n_nodes,
        "n_queries": report.n_queries,
        "n_tuples": report.n_tuples,
        "notifications_delivered": report.notifications_delivered,
        "notification_digest": report.notification_digest,
        "frames_sent": report.frames_sent,
        "bytes_sent": report.bytes_sent,
        "batches_sent": report.batches_sent,
        "overlay_hops": report.traffic.hops,
        "messages": report.traffic.messages,
        "peak_in_flight": report.peak_in_flight,
        "credit_budget": report.credit_budget,
        "perf": report.perf,
    }

    status = 0
    if args.compare_sim:
        sim_digest, sim_delivered = simulate_reference(
            workload,
            algorithm=args.algorithm,
            n_nodes=args.nodes,
            seed=args.seed,
        )
        matches = sim_digest == report.notification_digest
        payload["sim_digest"] = sim_digest
        payload["sim_notifications_delivered"] = sim_delivered
        payload["matches_simulator"] = matches
        status = 0 if matches else 1

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
        if args.compare_sim:
            verdict = "MATCH" if payload["matches_simulator"] else "MISMATCH"
            print(
                f"simulator digest {payload['sim_digest'][:12]} "
                f"({payload['sim_notifications_delivered']} notifications) "
                f"-> {verdict}"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
