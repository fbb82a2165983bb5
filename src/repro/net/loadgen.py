"""Latency-gated live load generator (``python -m repro.net.loadgen``).

The cluster driver (:meth:`repro.net.cluster.LiveCluster.run`) proves
*correctness*: it drains the whole cluster after every workload event,
so each event's causal cascade lands before the next fires — faithful
to the simulator, and deliberately slow.  This module measures
*throughput*: the same seeded workload is pushed through the same live
cluster **pipelined**, gated only by the in-flight credit budget, while
every delivered notification is timestamped against the wall-clock
instant its triggering tuple was published.

What it records, per algorithm:

* **notifications/sec** and events/sec over the tuple-stream phase
  (monotonic clocks, installs excluded);
* **p50/p95/p99 end-to-end latency** — tuple publish to subscriber
  notification, measured at the moment the subscriber-side handler
  records the delivery.  A join answer needs *two* tuples; latency is
  measured from the publish of the **later** one (the publish that
  completed the answer), which is the instant the system could first
  have known it;
* wire/frame/batch counters and the delivered-notification digest.

Why pipelining cannot change the answers: the digest is a *set* digest
(:func:`repro.bench.rows.notification_digest`), queries are fully
installed (and drained) before the stream starts, and every tuple
carries its own ``pub_time``, so answer identity never depends on
arrival order.  DAI-Q and DAI-T, which let only one side of a tuple
pair match, decide that side by the publish times the messages carry
and hold an arriving half while an older publish is still in flight
(:mod:`repro.core.dai_q`, :mod:`repro.core.dai_t`), so no pair is lost
to a race and no settle pass follows the stream.  ``--compare-sim``
asserts the delivered set is digest-identical to the simulator oracle.

The committed live points are ``live`` rows of ``BENCH_baseline.json``:
``python -m repro.expdb gate`` re-runs them through
:func:`run_load_sync`, demands the recorded digest and bounds today's
**install + stream** wall (:mod:`repro.expdb.gate`).
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from ..workload.generator import Workload, WorkloadParams, build_workload
from .cluster import ClusterConfig, LiveCluster, simulate_reference
from .peer import NetConfig

#: Algorithms the command line measures, in presentation order.
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Latency percentiles reported, as fractions.
PERCENTILES = (0.50, 0.95, 0.99)


@dataclass
class LoadgenConfig:
    """Shape of one load-generator run."""

    algorithm: str = "sai"
    n_nodes: int = 4
    n_queries: int = 15
    n_tuples: int = 80
    domain_size: int = 40
    #: Zipf exponent of the generated values (the WorkloadParams
    #: default, so committed baselines are unaffected).
    zipf_s: float = 0.9
    seed: int = 1
    #: Credit budget gating the pipelined driver; smaller = saner
    #: latency tails, larger = deeper pipelining.
    inflight_budget: int = 256
    quiesce_timeout: float = 60.0
    host: str = "127.0.0.1"
    engine_overrides: dict = field(default_factory=dict)

    def workload(self) -> Workload:
        return build_workload(
            WorkloadParams(
                n_queries=self.n_queries,
                n_tuples=self.n_tuples,
                domain_size=self.domain_size,
                zipf_s=self.zipf_s,
                seed=self.seed,
            )
        )

    def net_config(self) -> NetConfig:
        return NetConfig(credit_budget=self.inflight_budget)


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
    """One algorithm's measured run."""

    algorithm: str
    n_nodes: int
    n_queries: int
    n_tuples: int
    seed: int
    install_seconds: float
    stream_seconds: float
    notifications: int
    notifications_per_sec: float
    events_per_sec: float
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

    @property
    def total_seconds(self) -> float:
        """The whole path a user pays for: install + stream."""
        return self.install_seconds + self.stream_seconds

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
            "notifications_delivered": self.notifications,
            "notification_digest": self.digest,
            # Constant: stored expdb rows from when a per-frame mode
            # existed stay comparable on this key.
            "mode": "batched",
            "live": self.as_dict(),
            "load": self.load,
        }


async def run_load(config: LoadgenConfig) -> LoadReport:
    """Drive one pipelined load run; returns the measured report."""
    workload = config.workload()
    cluster = LiveCluster(
        ClusterConfig(
            algorithm=config.algorithm,
            n_nodes=config.n_nodes,
            seed=config.seed,
            host=config.host,
            quiesce_timeout=config.quiesce_timeout,
            engine_overrides=dict(config.engine_overrides),
            net=config.net_config(),
        )
    )
    await cluster.start()
    try:
        return await _drive(cluster, workload, config)
    finally:
        await cluster.stop()


async def _drive(
    cluster: LiveCluster, workload: Workload, config: LoadgenConfig
) -> LoadReport:
    engine = cluster.engine
    rng = random.Random(config.seed)
    clock = time.perf_counter

    query_events = [event for event in workload if event.kind == "query"]
    tuple_events = [event for event in workload if event.kind == "tuple"]

    # Publish wall times by sim pub_time; a notification's latency is
    # measured from the *later* of its two contributing publishes.
    publish_wall: dict[float, float] = {}
    latencies: list[float] = []

    def on_notification(notification) -> None:
        started = publish_wall.get(
            max(
                notification.trigger_pub_time, notification.match_pub_time
            )
        )
        if started is not None:
            latencies.append(clock() - started)

    # -- install phase: queries land (and drain) before the stream -----
    install_start = clock()
    for event in query_events:
        await cluster.in_flight.wait_below_budget(config.quiesce_timeout)
        engine.clock.advance_to(event.time)
        origin = cluster.network.random_node(rng)
        bound = engine.subscribe(origin, event.payload)
        engine.add_notification_listener(bound.key, on_notification)
    await cluster.drain()
    install_seconds = clock() - install_start

    # -- stream phase: the measured tuple stream ------------------------
    stream_start = clock()
    for event in tuple_events:
        await cluster.in_flight.wait_below_budget(config.quiesce_timeout)
        engine.clock.advance_to(event.time)
        origin = cluster.network.random_node(rng)
        relation, values = event.payload
        publish_wall[event.time] = clock()
        engine.publish(origin, relation, values)
    await cluster.drain()
    stream_seconds = clock() - stream_start

    from ..bench.rows import load_to_row, notification_digest

    notifications = sum(len(batch) for batch in engine.delivered.values())
    peers = cluster.peers.values()
    return LoadReport(
        algorithm=config.algorithm,
        n_nodes=config.n_nodes,
        n_queries=workload.n_queries,
        n_tuples=workload.n_tuples,
        seed=config.seed,
        install_seconds=install_seconds,
        stream_seconds=stream_seconds,
        notifications=notifications,
        notifications_per_sec=(
            notifications / stream_seconds if stream_seconds > 0 else 0.0
        ),
        events_per_sec=(
            len(tuple_events) / stream_seconds if stream_seconds > 0 else 0.0
        ),
        frames_sent=sum(peer.frames_sent for peer in peers),
        bytes_sent=sum(peer.bytes_sent for peer in peers),
        batches_sent=sum(peer.batches_sent for peer in peers),
        frames_shed=sum(peer.frames_shed for peer in peers),
        peak_in_flight=cluster.in_flight.peak,
        digest=notification_digest(engine),
        latency=LatencySummary.of(latencies),
        load=load_to_row(engine.load_snapshot()),
    )


def run_load_sync(config: LoadgenConfig) -> LoadReport:
    """:func:`run_load` under ``asyncio.run`` (convenience for tests)."""
    return asyncio.run(run_load(config))


def check_against_simulator(config: LoadgenConfig, report: LoadReport) -> None:
    """Raise ``RuntimeError`` unless ``report`` delivered exactly what
    the simulator oracle delivers for the same workload — digest *and*
    count (throughput work must never change answers)."""
    expected = simulate_reference(
        config.workload(),
        algorithm=config.algorithm,
        n_nodes=config.n_nodes,
        seed=config.seed,
    )
    if (report.digest, report.notifications) != expected:
        raise RuntimeError(
            f"live {config.algorithm} run diverged from the simulator: "
            f"digest {report.digest[:12]} / {report.notifications} delivered "
            f"!= {expected[0][:12]} / {expected[1]}"
        )


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    defaults = LoadgenConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.loadgen",
        description="Pipelined live-cluster load generator: "
        "notifications/sec + p50/p95/p99 latency per algorithm.  The "
        "committed live points are gated by python -m repro.expdb gate.",
    )
    parser.add_argument(
        "--algorithms",
        default="all",
        help="comma-separated subset of sai,dai-q,dai-t,dai-v or 'all'",
    )
    parser.add_argument("--nodes", type=int, default=defaults.n_nodes)
    parser.add_argument("--queries", type=int, default=defaults.n_queries)
    parser.add_argument("--tuples", type=int, default=defaults.n_tuples)
    parser.add_argument("--domain-size", type=int, default=defaults.domain_size)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--inflight-budget",
        type=int,
        default=defaults.inflight_budget,
        help="credit budget gating the pipelined driver",
    )
    parser.add_argument(
        "--compare-sim",
        action="store_true",
        help="fail unless every live digest matches the simulator's",
    )
    args = parser.parse_args(argv)

    if args.algorithms.strip().lower() == "all":
        algorithms: Sequence[str] = ALGORITHMS
    else:
        algorithms = tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        )
        unknown = set(algorithms) - set(ALGORITHMS)
        if unknown:
            parser.error(f"unknown algorithm(s): {sorted(unknown)}")

    status = 0
    for algorithm in algorithms:
        config = LoadgenConfig(
            algorithm=algorithm,
            n_nodes=args.nodes,
            n_queries=args.queries,
            n_tuples=args.tuples,
            domain_size=args.domain_size,
            seed=args.seed,
            inflight_budget=args.inflight_budget,
        )
        report = run_load_sync(config)
        latency = report.latency
        print(
            f"{algorithm:6s} "
            f"{report.notifications_per_sec:9.1f} notif/s  "
            f"p50 {latency.p50_ms:7.2f}ms  "
            f"p95 {latency.p95_ms:7.2f}ms  "
            f"p99 {latency.p99_ms:7.2f}ms  "
            f"({report.stream_seconds:.3f}s stream, "
            f"{report.total_seconds:.3f}s total, "
            f"{report.frames_sent} frames, "
            f"{report.batches_sent} batches)"
        )
        if args.compare_sim:
            try:
                check_against_simulator(config, report)
            except RuntimeError as error:
                print(f"LOADGEN FAIL: {error}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
