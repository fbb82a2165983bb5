"""What joinbench runs and what it reports — written down before measuring.

``BENCHMARK.json`` at the repository root lists the same workload and
metric names (its format has no room for more than a one-line ``why``);
the exact parameters of each workload, and for each layer metric the
end-to-end metric and workload it is predicted to move, live here so a
later claim can be checked against what was written beforehand.
``tests/test_joinbench_spec.py`` keeps the two files in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Every workload replays its input through all four algorithms.
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Sizes.  The issue proposed 300 / 2500 / 3200 / 500 / 320 tuples, timed
#: at 19-27 s per workload; the benchmark contract allows ~30 s for a
#: whole run including warm-up, several rounds and the checks, so every
#: workload is cut to about 3 s per round of four algorithms on this box:
#: ``n_tuples`` is 1/8 of the proposal (1/4 on ``sim_route``) and
#: ``domain_size`` shrinks with it so notifications per tuple — latency
#: samples, value-level matching — stay at the proposed level.
#: ``sim_route`` runs the repository's 20k-node gate ring instead of 50k
#: nodes (four 50k builds alone took 3 s) with 20 queries instead of 40:
#: at 40 the rewrite group, not routing, was the largest in the trace,
#: and at 10 hops_per_event moved 12% with the seed (7% at 20).


@dataclass(frozen=True)
class Size:
    n_nodes: int
    n_queries: int
    n_tuples: int
    domain_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``serial`` (harness.run_workload), ``staged`` (sim.shard.run_sharded,
    #: shards=1) or ``live`` (net.cluster.LiveCluster over loopback TCP).
    executor: str
    #: One line for ``BENCHMARK.json``: why the workload exists.
    why: str
    #: Open or closed loop, with its rate or client/credit count.
    loop: str
    full: Size
    #: Same shape, small enough for a test run; also the warm-up pass and,
    #: on the simulators, the copy checked against ``CentralizedOracle``.
    smoke: Size
    zipf_s: float
    #: ``EngineConfig`` fields beyond algorithm and seed.
    engine: dict = field(default_factory=dict)
    #: Open-loop offered rate in tuples/s (``None`` = closed loop).
    rate: Optional[float] = None


WORKLOADS = (
    Workload(
        name="sim_fanout",
        executor="serial",
        why="2000 stored queries, ~1000 rewrites per tuple: rewriting and "
        "value-level matching dominate, routing is minor; grouped rewriting "
        "must show here",
        loop="closed loop, 1 client (synchronous simulator)",
        full=Size(n_nodes=128, n_queries=2000, n_tuples=38, domain_size=500),
        smoke=Size(n_nodes=128, n_queries=200, n_tuples=24, domain_size=60),
        zipf_s=0.75,
        engine={"index_choice": "random"},
    ),
    Workload(
        name="sim_route",
        executor="staged",
        why="20k-node snapshot ring, 20 queries: finger walks and multisend "
        "dominate, rewriting is small; routing/epoch work shows here, a "
        "rewriter change should not",
        loop="closed loop, 1 client (staged epochs of 512 events)",
        full=Size(n_nodes=20_000, n_queries=20, n_tuples=624, domain_size=1500),
        smoke=Size(n_nodes=2_000, n_queries=10, n_tuples=80, domain_size=60),
        zipf_s=0.75,
        engine={"index_choice": "random"},
    ),
    Workload(
        name="sim_window",
        executor="serial",
        why="window=100, replication 2, JFRT 128 on the object-walk router: "
        "table writes and heap evictions in steady state, which a change "
        "tuned on the other two can slow",
        loop="closed loop, 1 client (synchronous simulator)",
        full=Size(n_nodes=256, n_queries=100, n_tuples=400, domain_size=400),
        smoke=Size(n_nodes=64, n_queries=40, n_tuples=120, domain_size=100),
        zipf_s=0.75,
        engine={"window": 100, "replication_factor": 2, "jfrt_capacity": 128},
    ),
    Workload(
        name="live_stream",
        executor="live",
        why="16 TCP peers, closed loop on 256 credits, install+stream+settle: "
        "codec, batching, relay and the settle replay do the work, "
        "rewriting little",
        loop="closed loop gated by 256 in-flight credits",
        full=Size(n_nodes=16, n_queries=60, n_tuples=62, domain_size=100),
        smoke=Size(n_nodes=8, n_queries=20, n_tuples=24, domain_size=40),
        zipf_s=0.9,
    ),
    Workload(
        name="live_paced",
        executor="live",
        why="same cluster, open loop at 80 tuples/s timed from each due "
        "instant: a batching change that holds frames longer shows here "
        "as latency",
        loop="open loop at 80 tuples/s, no credit wait",
        full=Size(n_nodes=16, n_queries=60, n_tuples=40, domain_size=100),
        smoke=Size(n_nodes=8, n_queries=20, n_tuples=16, domain_size=40),
        zipf_s=0.9,
        rate=80.0,
    ),
)

#: Events between sliding-window eviction sweeps (only ``sim_window``
#: has a window) and the in-flight credit budget of the live cluster.
EVICT_EVERY = 64
LIVE_CREDITS = 256

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: ``live_paced`` is unsustainable — every sample counts as failed — when
#: the final drain or the generator's p99 lateness exceeds these.
MAX_DRAIN_S = 2.0
MAX_LATE_P99_MS = 500.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median a run may worsen by (end-to-end only).
    bound: Optional[float]
    #: End-to-end: how it is computed.  Per-layer: the end-to-end metric
    #: and workload it is predicted to move.
    note: str


END_TO_END = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "workload generation + ChordNetwork.build + engine construction + "
        "(live) LiveCluster.start, summed over the four algorithms, at "
        "reference speed; median over the run's rounds",
    ),
    Metric(
        "events_per_s", "1/s", "higher", 0.25,
        "4 x n_tuples / sum over algorithms of the (install + stream + final "
        "drain + settle) wall at reference speed; median over the rounds.  "
        "Includes the settle pass, unlike BENCH_net_seed.json's wall_seconds",
    ),
    Metric(
        "latency_p50_ms", "ms", "lower", 0.25,
        "serial simulator: the engine.publish call (it returns once every "
        "notification it causes is delivered); staged and live: publish (due "
        "instant in live_paced) -> subscriber-side delivery, one value per "
        "answered publish.  Median per algorithm at reference speed, mean "
        "over the four, median over the rounds",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload process after the measured rounds",
    ),
    Metric(
        "hops_per_event", "hops", "lower", 0.25,
        "all overlay hops (install + stream, and settle on live) summed "
        "over the algorithms / (4 x n_tuples), the paper's traffic metric; "
        "exact per seed on the simulators",
    ),
    Metric(
        "storage_items", "items", "lower", 0.15,
        "total_storage at end of run from engine.load_snapshot(), summed "
        "over the algorithms; exact per seed on the simulators",
    ),
)

#: Metrics that are simulated statistics: for one seed they repeat
#: bit-for-bit on these executors, and ``compare`` treats any difference
#: there as a mismatch rather than a regression.
EXACT_METRICS = ("hops_per_event", "storage_items")
EXACT_EXECUTORS = ("serial", "staged")

#: Spans recorded by ``--trace 1`` (see trace.install_repro_spans); each
#: yields ``<span>.calls`` and ``<span>.self_s``.  The note names the
#: end-to-end metric and workload the span's self time should move.
SPANS = (
    ("core.engine.subscribe", "root span; events_per_s (install) everywhere"),
    ("core.engine.publish", "root span, self = driver-side work; events_per_s"),
    ("workload.generator", "setup_s everywhere"),
    ("sim.shard.run_sharded", "self = epoch/barrier/staging; events_per_s on sim_route"),
    ("chord.routing.send", "events_per_s on sim_route and sim_window"),
    ("chord.routing.multisend", "events_per_s on sim_route (snapshot path) and sim_window (object walk)"),
    ("chord.routing.send_direct", "events_per_s on sim_window (JFRT hits), latency_p50_ms on live"),
    ("chord.routing.find_successor", "events_per_s on sim_route and sim_window; <=10% of self time on sim_fanout"),
    ("chord.hashing.hash_parts", "events_per_s on sim_fanout (one per rewritten query)"),
    ("core.algorithm.index_tuple", "events_per_s on sim_route"),
    ("core.algorithm.on_query", "events_per_s (install) on sim_fanout"),
    ("core.algorithm.on_al_index", "events_per_s on sim_fanout (top group), small on sim_route and live"),
    ("core.algorithm.on_vl_index", "events_per_s on sim_window"),
    ("core.algorithm.on_join", "events_per_s on sim_fanout"),
    ("sql.query.rewrite", "events_per_s on sim_fanout (top group), small on sim_route and live"),
    ("core.tables.alqt.groups_for", "events_per_s on sim_fanout"),
    ("core.tables.vlqt.add", "events_per_s on sim_fanout and sim_window"),
    ("core.tables.vlqt.candidates", "events_per_s on sim_fanout"),
    ("core.tables.vltt.add", "events_per_s on sim_window"),
    ("core.tables.vltt.candidates", "events_per_s on sim_fanout"),
    ("core.tables.evict", "events_per_s on sim_window; zero elsewhere"),
    ("core.engine.evict_expired", "events_per_s on sim_window (sweep over adopted nodes)"),
    ("core.engine.deliver_notifications", "events_per_s on sim_window, latency_p50_ms on live_paced"),
    ("net.codec.encode", "events_per_s on live_stream, latency_p50_ms on live_paced"),
    ("net.codec.decode", "events_per_s on live_stream, latency_p50_ms on live_paced"),
    ("net.frames.peek", "events_per_s on live_stream"),
    ("net.frames.splice", "events_per_s on live_stream"),
)


def _layer(name, unit, better, note):
    return Metric(name, unit, better, None, note)


PER_LAYER = (
    # -- timed, from the untraced rounds (medians over rounds) ----------
    _layer("bench.gen_s", "s", "lower", "setup_s everywhere"),
    _layer("bench.build_s", "s", "lower", "setup_s on sim_route"),
    _layer("net.cluster.start_s", "s", "lower", "setup_s on the live workloads"),
    _layer("bench.install_s", "s", "lower", "events_per_s on sim_fanout"),
    _layer("bench.stream_s", "s", "lower", "events_per_s on every workload"),
    _layer("bench.settle_s", "s", "lower", "events_per_s on live_stream; a protocol fix for the probe race removes it"),
    _layer("bench.drain_s", "s", "lower", "events_per_s on live_stream; sustainability on live_paced"),
    _layer("bench.settle_share", "ratio", "lower", "settle_s / measured wall on live_stream"),
    _layer("bench.slowdown", "ratio", "lower", "kernel time / its reference (speed.py), median over the runs: what setup_s, events_per_s and latency_p50_ms were divided by; every per-layer time is as measured"),
    *(
        _layer(f"bench.alg.{algorithm}.wall_s", "s", "lower", "events_per_s on its workload")
        for algorithm in ALGORITHMS
    ),
    _layer("bench.publish_p50_ms", "ms", "lower", "events_per_s on sim_fanout and sim_window"),
    _layer("bench.publish_p99_ms", "ms", "lower", "events_per_s on sim_fanout and sim_window"),
    _layer("loadgen.late_p99_ms", "ms", "lower", "reported beside latency_p50_ms on live_paced, not gated"),
    _layer("loadgen.latency_p95_ms", "ms", "lower", "reported beside latency_p50_ms, not gated (~2x run to run)"),
    _layer("loadgen.latency_p99_ms", "ms", "lower", "reported beside latency_p50_ms, not gated (~2x run to run)"),
    _layer("loadgen.latency_samples", "count", "higher", "sample count behind the latency percentiles"),
    _layer("loadgen.latency_top_pct", "%", "higher", "highest percentile with >=10 samples beyond it"),
    _layer("loadgen.latency_top_ms", "ms", "lower", "latency at that percentile"),
    # -- exact counts read from public state after each run -------------
    _layer("chord.routing.hops", "count", "lower", "hops_per_event everywhere, events_per_s on sim_route"),
    _layer("chord.routing.messages", "count", "lower", "hops_per_event everywhere"),
    *(
        _layer(f"chord.routing.hops.{kind}", "count", "lower", "hops_per_event everywhere, events_per_s on sim_route")
        for kind in ("al-index", "vl-index", "join", "notification", "query")
    ),
    _layer("tf_max_over_mean", "ratio", "lower", "most-loaded node's filtering load over the all-node mean, worst algorithm (paper E15); moves 13-22% with the seed, so not an end-to-end entry"),
    _layer("core.rewriter.candidates", "count", "lower", "tf_max_over_mean, events_per_s on sim_fanout"),
    _layer("core.evaluator.candidates", "count", "lower", "tf_max_over_mean, events_per_s on sim_fanout"),
    _layer("core.evaluator.match_share", "ratio", "higher", "notifications created / candidates examined: wasted matching on sim_fanout"),
    _layer("core.tables.al_items", "count", "lower", "storage_items, peak_rss_mb on sim_fanout"),
    _layer("core.tables.vl_items", "count", "lower", "storage_items, peak_rss_mb on sim_fanout"),
    _layer("core.tables.evictions", "count", "lower", "events_per_s on sim_window"),
    _layer("core.engine.notifications", "count", "higher", "failed count (missing answers)"),
    _layer("core.engine.suppressed", "count", "lower", "failed count; settle work on live"),
    _layer("core.engine.duplicates", "count", "lower", "failed count (must stay 0)"),
    _layer("net.peer.frames_sent", "count", "lower", "events_per_s on live_stream, wire_bytes_per_event"),
    _layer("net.peer.bytes_sent", "bytes", "lower", "wire_bytes_per_event on both live workloads"),
    _layer("net.peer.batches_sent", "count", "lower", "events_per_s on live_stream"),
    _layer("net.peer.frames_per_batch", "ratio", "higher", "events_per_s on live_stream, latency_p50_ms on live_paced"),
    _layer("net.peer.frames_shed", "count", "lower", "failed count (must stay 0)"),
    _layer("net.peer.peak_in_flight", "count", "lower", "latency_p50_ms on live_stream"),
    _layer("net.settle.recovered", "count", "lower", "events_per_s on live_stream (probe-race answers the settle recovers)"),
    _layer("wire_bytes_per_event", "bytes", "lower", "sum of peer.bytes_sent / (4 x n_tuples); live only, so not an end-to-end entry"),
    _layer("failed_share", "ratio", "lower", "failed / attempted; always 0, so reported through the result's failed/attempted"),
    # -- traced run -----------------------------------------------------
    *(
        metric
        for span, note in SPANS
        for metric in (
            _layer(f"{span}.calls", "count", "lower", note),
            _layer(f"{span}.self_s", "s", "lower", note),
        )
    ),
    _layer("net.codec.encode.bytes", "bytes", "lower", "wire_bytes_per_event on the live workloads"),
    _layer("core.rewriter.useful_share", "ratio", "higher", "rewritten queries shipped in JoinMessages / rewrite calls: wasted rewriting on sim_fanout"),
    _layer("net.peer.relay_share", "ratio", "higher", "peeks / (peeks + decodes): events_per_s on live_stream"),
    _layer("net.loop.untraced_s", "s", "lower", "traced wall - sum of self times (event loop, sockets) on live"),
    _layer("trace.group.chord.self_s", "s", "lower", "largest group on sim_route; under half the rewrite group on sim_fanout"),
    _layer("trace.group.rewrite.self_s", "s", "lower", "core.algorithm.* + sql.query.rewrite: largest group on sim_fanout; under half of chord on sim_route"),
    _layer("trace.group.tables.self_s", "s", "lower", "events_per_s on sim_window and sim_fanout"),
    _layer("trace.group.core.self_s", "s", "lower", "below net + net.loop.untraced_s on live_stream"),
    _layer("trace.group.net.self_s", "s", "lower", "events_per_s on live_stream"),
    _layer("trace.overhead_ratio", "ratio", "lower", "traced wall / untraced wall of the same workload"),
    _layer("trace.covered_share", "ratio", "higher", "sum of self times / traced wall; >=0.6 on the simulators"),
)
