"""End-to-end: a live TCP ring must reproduce the simulator exactly.

An 8-node localhost cluster replays a seeded workload over real sockets
and must deliver *exactly* the simulator's notification set — same
digest, same per-query (join value, row) sets — and both must agree
with the centralized nested-loop oracle.  This is the subsystem's
correctness gate: any divergence in routing, codec, or quiescence shows
up as a digest mismatch here.
"""

import asyncio
import dataclasses

import pytest

from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.core.oracle import CentralizedOracle
from repro.bench.harness import run_workload
from repro.bench.rows import notification_digest
from repro.net import codec
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.sql.tuples import DataTuple
from repro.workload.generator import WorkloadParams, build_workload

N_NODES = 8
SEED = 7

WORKLOAD = build_workload(
    WorkloadParams(n_queries=10, n_tuples=40, domain_size=20, seed=SEED)
)


async def live_run(algorithm, workload=WORKLOAD, n_nodes=N_NODES):
    """Run ``workload`` on a live ring; return the still-warm cluster."""
    cluster = LiveCluster(
        ClusterConfig(algorithm=algorithm, n_nodes=n_nodes, seed=SEED)
    )
    await cluster.start()
    try:
        report = await cluster.run(workload)
    finally:
        await cluster.stop()
    return cluster, report


def simulator_run(algorithm, workload=WORKLOAD, n_nodes=N_NODES):
    engine = ContinuousQueryEngine(
        ChordNetwork.build(n_nodes),
        EngineConfig(algorithm=algorithm, seed=SEED),
    )
    run_workload(engine, workload, seed=SEED)
    return engine


def oracle_for(engine, workload):
    """Ground truth for the live engine's bound queries + the workload."""
    oracle = CentralizedOracle()
    for query in engine.queries.values():
        oracle.subscribe(query)
    for event in workload:
        if event.kind == "tuple":
            relation, values = event.payload
            oracle.insert(DataTuple.make(relation, values, pub_time=event.time))
    return oracle


@pytest.mark.parametrize("algorithm", ["sai", "dai-v"])
def test_live_ring_matches_simulator_exactly(algorithm):
    cluster, report = asyncio.run(live_run(algorithm))
    sim_engine = simulator_run(algorithm)

    # Same digest (the CLI gate) ...
    assert report.notification_digest == notification_digest(sim_engine)
    # ... and, stronger, the same per-query delivered-notification sets.
    live_engine = cluster.engine
    assert set(live_engine.queries) == set(sim_engine.queries)
    for key in sim_engine.queries:
        assert live_engine.delivered_rows(key) == sim_engine.delivered_rows(key)
    assert report.notifications_delivered == sum(
        len(batch) for batch in sim_engine.delivered.values()
    )
    # No deliveries outstanding, no swallowed failures.
    assert cluster.in_flight.count == 0
    assert cluster.errors == []
    # Payloads really crossed sockets.
    assert report.frames_sent > 0
    assert report.bytes_sent > 0


@pytest.mark.parametrize("algorithm", ["sai", "dai-v"])
def test_live_ring_matches_centralized_oracle(algorithm):
    cluster, _ = asyncio.run(live_run(algorithm))
    engine = cluster.engine
    oracle = oracle_for(engine, WORKLOAD)
    for key in engine.queries:
        assert engine.delivered_rows(key) == oracle.rows_for(key), key


def fresh_seal(shape) -> bytes:
    """What ``shape`` seals to now, ignoring the bytes it cached."""
    return codec.encode(dataclasses.replace(shape, sealed=None))


def assert_shared_shapes_untouched(cluster) -> int:
    """Every shape the run shared — a rewriter's plan shape, sealed at
    its first ``join()``, and every shape a receiver interned — still
    seals to the bytes it had then: nothing mutated one."""
    engine = cluster.engine
    plans = [
        group._plan
        for node in engine.network
        for buckets in engine.state(node).alqt._buckets.values()
        for group in buckets.values()
    ]
    sealed = [plan.shape for plan in plans if plan and plan.shape.sealed]
    for shape in sealed:
        assert fresh_seal(shape) == shape.sealed
    for blob, shape in codec._SHAPE_TABLE.items():
        assert fresh_seal(shape).endswith(blob)
    return len(sealed)


def test_all_four_algorithms_match_on_a_small_ring():
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=24, domain_size=12, seed=SEED)
    )
    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        codec._SHAPE_TABLE.clear()
        cluster, report = asyncio.run(live_run(algorithm, workload, n_nodes=6))
        sim_engine = simulator_run(algorithm, workload, n_nodes=6)
        assert report.notification_digest == notification_digest(sim_engine), (
            algorithm
        )
        assert assert_shared_shapes_untouched(cluster) > 0, algorithm
        assert codec._SHAPE_TABLE, algorithm
