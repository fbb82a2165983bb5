"""``NetPeer._next_hop``: the ring snapshot and the finger scan agree.

While the ring is exact a live peer reads its forwarding step off
``network.snapshot`` (one rank-space step); under churn there is no
snapshot and the node's finger table is scanned.  Both must name the
same hop for every ``(node, identifier)`` pair, fall back to the
successor for a suspected hop alike, and a ring that lost its snapshot
to a crash must keep answering exactly.
"""

import asyncio
import random

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.recovery import ChaosHarness
from repro.net.chaos import (
    ChaosController,
    LiveChaos,
    delivered_duplicates,
    drive_event,
    soak_reference,
    subscriber_pool,
)
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.health import FailureDetector, HealthConfig
from repro.net.peer import NetConfig, NetPeer
from repro.workload.generator import WorkloadParams, build_workload


def hops_of(cluster, peers):
    """``{(node, ident): next hop}`` over every member identifier ±1."""
    size = cluster.network.space.size
    idents = [node.ident for node in cluster.network.nodes]
    probes = sorted({(i + d) % size for i in idents for d in (-1, 0, 1)})
    return {
        (peer.node.ident, ident): peer._next_hop(ident).ident
        for peer in peers
        for ident in probes
    }


class TestSnapshotEqualsFingerScan:
    @pytest.mark.parametrize("n_nodes", [16, 64])
    def test_every_node_every_identifier(self, n_nodes):
        cluster = LiveCluster(ClusterConfig(n_nodes=n_nodes))
        network = cluster.network
        peers = [NetPeer(node, cluster) for node in network.nodes]
        snapshot = network.snapshot
        assert snapshot is not None  # a built ring is exact
        by_snapshot = hops_of(cluster, peers)
        network.snapshot = None
        try:
            by_scan = hops_of(cluster, peers)
        finally:
            network.snapshot = snapshot
        assert by_snapshot == by_scan
        assert len(by_snapshot) >= n_nodes * n_nodes * 2
        # Some steps really are fingers, not just the successor.
        assert any(
            hop != network.node_at(node).successor.ident
            for (node, _), hop in by_snapshot.items()
        )

    @pytest.mark.parametrize("n_nodes", [16, 64])
    def test_suspected_hop_falls_back_to_the_successor_on_both(self, n_nodes):
        async def scenario():
            cluster = LiveCluster(ClusterConfig(n_nodes=n_nodes))
            network = cluster.network
            peer = NetPeer(network.nodes[0], cluster)
            successor = peer.node.successor
            size = network.space.size
            # A far identifier whose step is a finger, not the successor.
            target = (peer.node.ident + size // 2) % size
            finger = peer._next_hop(target)
            assert finger is not successor and finger is not peer.node
            peer.detector = FailureDetector(peer, HealthConfig())
            peer.detector._suspects.add(finger.ident)
            snapshot = network.snapshot
            assert peer._next_hop(target) is successor
            network.snapshot = None
            assert peer._next_hop(target) is successor
            peer.detector._suspects.clear()
            assert peer._next_hop(target) is finger
            network.snapshot = snapshot
            assert peer._next_hop(target) is finger

        asyncio.run(scenario())


class TestCrashDropsTheSnapshot:
    def test_live_crash_restart_cycle_stays_oracle_exact(self):
        """Four live peers; one crashes mid-stream (``network.fail``
        drops the snapshot, the finger scan serves from then on),
        restarts, and the delivered notifications still equal the
        fault-free simulator's, exactly once."""
        workload = build_workload(
            WorkloadParams(n_queries=8, n_tuples=40, domain_size=25, seed=7)
        )
        plan = FaultPlan(seed=17, max_attempts=4, backoff_base=0.02)

        async def scenario():
            chaos = LiveChaos(plan)
            cluster = LiveCluster(
                ClusterConfig(
                    algorithm="dai-t",
                    n_nodes=4,
                    seed=7,
                    quiesce_timeout=20.0,
                    net=NetConfig.from_fault_plan(
                        plan, connect_timeout=1.0, io_timeout=2.0
                    ),
                )
            )
            cluster.install_chaos(chaos)
            await cluster.start()
            try:
                engine = cluster.engine
                pool = subscriber_pool(cluster.network, 2)
                harness = ChaosHarness(
                    engine, chaos.injector, protect=[node.ident for node in pool]
                )
                controller = ChaosController(cluster, harness, chaos)
                rng = random.Random(7)
                events = list(workload)
                seen = []
                for index, event in enumerate(events):
                    drive_event(engine, event, rng, pool)
                    await cluster.drain(tolerate_failures=True)
                    if index == len(events) // 3:
                        seen.append(cluster.network.snapshot is not None)
                        await controller.crash()
                        seen.append(cluster.network.snapshot is None)
                    if index == 2 * len(events) // 3:
                        await controller.restart()
                        seen.append(cluster.network.snapshot is None)
                await controller.restart_all()
                digest = await controller.settle()
                return (
                    seen,
                    digest,
                    sum(len(batch) for batch in engine.delivered.values()),
                    delivered_duplicates(engine),
                    controller.crashes,
                    controller.restarts,
                )
            finally:
                await cluster.stop()

        seen, digest, delivered, duplicates, crashes, restarts = asyncio.run(
            scenario()
        )
        # Exact before the crash; the object walk during and after it.
        assert seen == [True, True, True]
        assert (crashes, restarts) == (1, 1)
        assert (digest, delivered) == soak_reference(
            workload, algorithm="dai-t", n_nodes=4, seed=7, subscribers=2
        )
        assert duplicates == 0
