"""Chaos-over-TCP tests: soak convergence, restart, backpressure.

The soak tests are the acceptance gate of the live failure model
(DESIGN.md §12): a workload streamed through the one live driver under
seeded wire faults, one partition episode and live crash/restart cycles
must converge to the fault-free simulator digest with no duplicate
deliveries and a peak in-flight load inside the credit budget.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.errors import DeliveryError
from repro.faults.plan import DelaySpec, FaultPlan, NetFaultSpec
from repro.net import health
from repro.net.chaos import (
    _SPEC_KEYS,
    DEFAULT_PLAN,
    SUBSCRIBERS,
    LiveChaos,
    parse_chaos_spec,
    soak_ok,
)
from repro.net.cluster import (
    DEFAULT_RETRIES,
    ClusterConfig,
    LiveCluster,
    build_parser,
    run_live,
    simulate_reference,
)
from repro.net.cluster import main as cluster_main
from repro.net.frames import DirectFrame, PeerInfo
from repro.net.peer import NetConfig, _Outbox
from repro.perf import PERF
from repro.sim.messages import UnsubscribeMessage
from repro.workload.generator import WorkloadParams, build_workload
from tests.net.test_peer import closed_port

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: What a soak adds to its run's ``live`` block.
CHAOS_KEYS = {
    "crashes",
    "restarts",
    "suspicions",
    "crash_frame_losses",
    "frames_written_off",
    "absorbed_faults",
    "wire",
    "delivered_duplicates",
    "credit_budget",
}


class TestChaosSoak:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_soak_converges_to_fault_free_digest(self, algorithm, monkeypatch):
        monkeypatch.setattr(health, "PROBE_BACKOFF_MAX", 0.2)
        workload = build_workload(
            WorkloadParams(n_queries=8, n_tuples=40, domain_size=25, seed=7)
        )
        config = ClusterConfig(
            algorithm=algorithm,
            n_nodes=5,
            seed=7,
            quiesce_timeout=20.0,
            fault_plan=DEFAULT_PLAN,
        )
        report = asyncio.run(run_live(workload, config))
        assert report.kind == "live"  # the run's own report
        soak = report.live["chaos"]
        wire = soak["wire"]
        # The chaos really bit: wire faults, a partition, live crashes.
        wire_faults = (
            wire.get("connects_refused", 0)
            + wire.get("frames_reset", 0)
            + wire.get("frames_truncated", 0)
            + wire.get("frames_garbled", 0)
        )
        assert wire_faults > 0
        assert wire.get("partitions", 0) >= 1
        assert wire.get("blocked_sends", 0) > 0
        assert soak["crashes"] == 2
        assert soak["restarts"] == 2
        assert soak["suspicions"] > 0
        # ... and the system still converged, exactly once, in budget,
        # without a drain ever waiting out its timeout.
        assert (report.notification_digest, report.notifications_delivered) == simulate_reference(
            workload, algorithm=algorithm, n_nodes=5, seed=7, subscribers=SUBSCRIBERS
        )
        assert soak["delivered_duplicates"] == 0
        assert report.live["peak_in_flight"] <= soak["credit_budget"]
        assert soak_ok(report)
        assert report.live["peak_in_flight"] > 0
        assert "QuiesceTimeout" not in soak["absorbed_faults"]


class TestLiveRestart:
    def test_server_restart_on_same_address_resumes_routing(self):
        """Satellite: kill a node's TCP server mid-run, restart it on the
        same port, and routing resumes with no duplicate deliveries."""

        async def scenario():
            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=4,
                    quiesce_timeout=10.0,
                    fault_plan=FaultPlan(max_attempts=6, backoff_base=0.05),
                )
            )
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(
                            (node.ident, message.query_key)
                        ),
                    )
                source = cluster.network.nodes[0]
                target = cluster.network.nodes[2]
                target_peer = cluster.peers[target.ident]
                port = target_peer.info.port

                # Healthy delivery first, so a pooled connection exists.
                cluster.transport.send_direct(
                    source, UnsubscribeMessage(query_key="before"), target
                )
                await cluster.drain()

                await target_peer.stop_server()
                # Posted while the listener is down: the pooled (now
                # dead) connection is detected, the reconnect fails, the
                # outbox retries with backoff.
                cluster.transport.send_direct(
                    source, UnsubscribeMessage(query_key="during"), target
                )
                await asyncio.sleep(0.1)
                await target_peer.start(cluster.config.host, port=port)
                await cluster.drain()

                cluster.transport.send_direct(
                    source, UnsubscribeMessage(query_key="after"), target
                )
                await cluster.drain()

                keys = [key for _, key in received]
                assert keys == ["before", "during", "after"]  # exactly once
                assert cluster.errors == []
                # Same address: nobody's book needed an update.
                for peer in cluster.peers.values():
                    assert peer.book[target.ident].port == port
            finally:
                cluster.errors.clear()
                await cluster.stop()

        asyncio.run(scenario())


async def restart_a_peer(cluster):
    """Socket-side restart of one non-bootstrap node: stop its peer and
    bring it back on a fresh port through ``restart_peer``."""
    node = cluster.network.nodes[1]
    await cluster.peers[node.ident].stop()
    return await cluster.restart_peer(node)


class TestThePlanIsTheOneFaultInput:
    """What a cluster derives from ``ClusterConfig.fault_plan``."""

    @staticmethod
    def detectors(cluster):
        return [peer.detector is not None for peer in cluster.peers.values()]

    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(max_attempts=5, backoff_base=0.02, backoff_jitter=0.5)],
        ids=["no-plan", "retry-only"],
    )
    def test_a_benign_cluster_has_no_chaos_layer_and_no_detector(self, plan):
        async def scenario():
            cluster = LiveCluster(ClusterConfig(n_nodes=4, fault_plan=plan))
            assert cluster.plan is (plan or DEFAULT_RETRIES)
            assert cluster.chaos is None
            assert not cluster.in_flight.allow_slack
            await cluster.start()
            try:
                started = self.detectors(cluster)
                restarted = await restart_a_peer(cluster)
                await cluster.drain()
                return started, self.detectors(cluster), restarted.detector
            finally:
                await cluster.stop()

        started, after_restart, restarted = asyncio.run(scenario())
        assert started == after_restart == [False] * 4
        assert restarted is None

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_every=17.0, crash_count=1, restart_after=6.0),
            FaultPlan(net=NetFaultSpec(connect_refusal_probability=0.05)),
        ],
        ids=["churn", "wire"],
    )
    def test_a_faulting_plan_runs_a_detector_on_every_peer(self, plan):
        async def scenario():
            cluster = LiveCluster(ClusterConfig(n_nodes=4, fault_plan=plan))
            assert cluster.chaos is not None and cluster.chaos.plan is plan
            assert cluster.in_flight.allow_slack
            await cluster.start()
            try:
                started = self.detectors(cluster)
                restarted = await restart_a_peer(cluster)
                await cluster.drain(tolerate_failures=True)
                return started, self.detectors(cluster), restarted.detector
            finally:
                await cluster.stop()

        started, after_restart, restarted = asyncio.run(scenario())
        assert started == after_restart == [True] * 4
        assert restarted is not None

    @pytest.mark.parametrize(
        "plan, attempts",
        [
            (None, 3),  # the live default the dead-peer tests are timed for
            (FaultPlan(max_attempts=1), 1),
            (FaultPlan(max_attempts=5, backoff_base=0.001), 5),
        ],
        ids=["no-plan", "one", "five"],
    )
    def test_the_write_ladder_follows_the_plan(self, plan, attempts):
        async def scenario():
            cluster = LiveCluster(ClusterConfig(n_nodes=2, fault_plan=plan))
            await cluster.start()
            try:
                peer, other = cluster.peers.values()
                dead = peer.book[other.node.ident]
                peer.book[dead.ident] = PeerInfo(dead.ident, dead.host, closed_port())
                peer._outboxes.pop(dead.ident, None)
                cluster.in_flight.inc("unsubscribe")
                peer.post(
                    dead.ident,
                    DirectFrame(message=UnsubscribeMessage(query_key="k")),
                    weight=1,
                )
                await cluster.drain(tolerate_failures=True)
                return cluster.fault_log, cluster.stats.snapshot().retries
            finally:
                await cluster.stop()

        (failure,), retries = asyncio.run(scenario())
        assert isinstance(failure, DeliveryError)
        assert failure.attempts == attempts
        assert retries == attempts - 1

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(loss_probability=0.3),
            FaultPlan(delay=DelaySpec(probability=0.5, maximum=2.0)),
            replace(DEFAULT_PLAN, loss_probability=0.3),
        ],
        ids=["loss", "delay", "default-plus-loss"],
    )
    def test_loss_and_delay_are_refused_on_the_wire(self, plan):
        """The wire carries no per-delivery loss or delay; before the
        refusal such a plan ran unfaulted, and its injector on the ring
        router switched snapshot routing off for every live hop."""
        with pytest.raises(ValueError, match="transport='sim'"):
            LiveCluster(ClusterConfig(n_nodes=4, fault_plan=plan))


class TestBackpressure:
    def test_full_send_window_sheds_instead_of_buffering(self):
        async def scenario():
            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=3,
                    quiesce_timeout=10.0,
                    net=NetConfig(send_window=4),
                    # Slow retries keep the queue full.
                    fault_plan=FaultPlan(max_attempts=3, backoff_base=0.2),
                )
            )
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                other = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                await cluster.peers[other].stop_server()
                peer._outboxes.pop(other, None)
                for index in range(10):
                    cluster.in_flight.inc("unsubscribe")
                    peer.post(
                        other,
                        DirectFrame(
                            message=UnsubscribeMessage(query_key=f"k{index}")
                        ),
                        weight=1,
                    )
                assert peer.frames_shed >= 1
                # Shed frames settle immediately as failures; the rest
                # exhaust their retries against the dead listener.
                await cluster.drain(tolerate_failures=True)
                assert cluster.in_flight.count == 0
                assert len(cluster.fault_log) >= peer.frames_shed
            finally:
                cluster.errors.clear()
                await cluster.stop()

        asyncio.run(scenario())

    def test_credit_budget_gates_the_driver(self):
        async def scenario():
            from repro.errors import QuiesceTimeout
            from repro.net.peer import InFlight

            counter = InFlight(budget=2)
            counter.inc("match", 2)
            with pytest.raises(QuiesceTimeout):
                await counter.wait_below_budget(0.05)
            counter.dec("match")
            await counter.wait_below_budget(0.5)
            assert counter.peak == 2

        asyncio.run(scenario())


def _chaos_cluster(n_nodes):
    """A cluster with a chaos layer that injects no wire fault (its plan
    only names a partition window, which the tests open themselves) and
    a controller whose protected pool is the soak's."""
    from repro.faults import ChaosHarness
    from repro.net.chaos import ChaosController

    plan = FaultPlan(
        seed=1, max_attempts=3, backoff_base=0.01, net=NetFaultSpec(partition_for=1.0)
    )
    cluster = LiveCluster(ClusterConfig(n_nodes=n_nodes, quiesce_timeout=10.0, fault_plan=plan))
    chaos = cluster.chaos
    pool = [node.ident for node in cluster.network.nodes[:SUBSCRIBERS]]
    harness = ChaosHarness(cluster.engine, chaos.injector, protect=pool)
    return cluster, ChaosController(cluster, harness, chaos), chaos


class TestPartitionRecovery:
    def test_a_soak_crashes_all_but_one_unprotected_node(self):
        """Four nodes, two protected: one crash/restart cycle, however
        many crashes the plan schedules."""

        async def scenario():
            cluster, controller, _ = _chaos_cluster(4)
            await cluster.start()
            try:
                assert controller.max_crashes == 1
                first = await controller.crash()
                second = await controller.crash()
                await controller.restart_all()
                return first, second, controller
            finally:
                cluster.errors.clear()
                await cluster.stop()

        first, second, controller = asyncio.run(scenario())
        assert first is not None and second is None
        assert (controller.crashes, controller.restarts) == (1, 1)

    def test_a_partition_never_cuts_a_node_off_from_a_subscriber(self):
        """Three live nodes, two of them subscribers: the lower half
        alone would leave a subscriber on the blocked side, where no
        notification could reach it."""
        cluster, controller, chaos = _chaos_cluster(3)  # never started
        asyncio.run(controller.begin_partition())
        assert chaos._blocked
        assert {dst for _, dst in chaos._blocked}.isdisjoint(controller.protected)

    def test_a_restart_inside_a_partition_reaches_every_book_after_heal(self):
        """The bootstrap's MemberUpdate fan-out to the far side of a
        partition is lost; healing re-announces every address, so no
        peer keeps dialing the restarted node's dead port."""

        def stale(cluster):
            return {
                (ident, member)
                for ident, peer in cluster.peers.items()
                for member, info in peer.book.items()
                if cluster.peers[member].info != info
            }

        async def scenario():
            cluster, controller, _ = _chaos_cluster(4)
            await cluster.start()
            try:
                await controller.crash()
                await controller.begin_partition()
                await controller.restart()
                during = stale(cluster)
                await controller.heal_partition()
                await cluster.drain(tolerate_failures=True)
                return during, stale(cluster)
            finally:
                cluster.errors.clear()
                await cluster.stop()

        during, after = asyncio.run(scenario())
        assert during  # the partition really kept an update from someone
        assert after == set()

    def test_a_stream_too_short_for_the_plan_is_refused(self, capsys):
        workload = build_workload(
            WorkloadParams(n_queries=3, n_tuples=15, domain_size=10, seed=1)
        )
        config = ClusterConfig(n_nodes=4, fault_plan=DEFAULT_PLAN)
        with pytest.raises(ValueError, match="past a 15-tuple stream"):
            asyncio.run(run_live(workload, config))
        with pytest.raises(SystemExit) as exit_info:
            cluster_main(
                ["--chaos", "default", "--nodes", "4", "--queries", "3", "--tuples", "15"]
            )
        assert exit_info.value.code == 2
        assert "past a 15-tuple stream" in capsys.readouterr().err


class TestLiveChaosUnit:
    def test_partition_blocks_directionally(self):
        chaos = LiveChaos(FaultPlan(seed=1))
        chaos.partition([1, 2], [3], asymmetric=True)
        assert chaos.blocked(1, 3) and chaos.blocked(2, 3)
        assert not chaos.blocked(3, 1)  # asymmetric: B still reaches A
        chaos.heal()
        assert not chaos.blocked(1, 3)
        assert chaos.counters["partitions"] == 1

    def test_symmetric_partition_blocks_both_ways(self):
        chaos = LiveChaos(FaultPlan(seed=1))
        chaos.partition([1], [2], asymmetric=False)
        assert chaos.blocked(1, 2) and chaos.blocked(2, 1)

    def test_corrupt_keeps_header_poisons_payload(self):
        from repro.net.codec import (
            HEADER_SIZE,
            decode,
            decode_header,
            encode_frame,
        )
        from repro.errors import CodecError

        chaos = LiveChaos(FaultPlan(seed=1))
        data = encode_frame(DirectFrame(message=UnsubscribeMessage(query_key="x")))
        bad = chaos.corrupt(data)
        assert len(bad) == len(data)
        # Header still valid: a receiver reads the full frame...
        assert decode_header(bad[:HEADER_SIZE]) == len(bad) - HEADER_SIZE
        # ...then must fail in the decoder, not in readexactly.
        with pytest.raises(CodecError):
            decode(bad[HEADER_SIZE:])

    def test_spec_parsing(self):
        plan = parse_chaos_spec("default")
        assert plan == DEFAULT_PLAN
        assert plan.net.connect_refusal_probability >= 0.05
        assert plan.net.frame_fault_probability >= 0.05
        assert plan.backoff_jitter > 0
        assert plan.crash_count == 2 and plan.net.partition_for > 0

        plan = parse_chaos_spec(
            "frame_fault_probability=0.2,crash_count=3,partition_for=0,seed=5"
        )
        assert plan.net.frame_fault_probability == 0.2
        assert plan.seed == 5
        assert plan.crash_count == 3 and plan.net.partition_for == 0
        assert plan.crash_every == DEFAULT_PLAN.crash_every  # the rest is the preset

        with pytest.raises(ValueError):
            parse_chaos_spec("bogus_key=1")
        with pytest.raises(ValueError):
            parse_chaos_spec("crash_count=-1")  # the plan's own checks

    def test_chaos_help_names_every_spec_key(self):
        (chaos,) = [a for a in build_parser()._actions if a.dest == "chaos"]
        assert [key for key in sorted(_SPEC_KEYS) if f"{key}=" not in chaos.help] == []

    def test_cli_json_is_the_whole_report(self, capsys):
        """The CI point whose drains used to wait out two 30 s quiesce
        timeouts: one driver, one row, the soak's counters inside it."""
        point = [
            "--algorithm", "sai", "--nodes", "4", "--queries", "10",
            "--tuples", "50", "--seed", "1", "--compare-sim", "--json",
        ]
        status = cluster_main(["--chaos", "default", *point])
        soaked = json.loads(capsys.readouterr().out)
        assert cluster_main(point) == 0
        benign = json.loads(capsys.readouterr().out)
        assert status == 0
        assert soaked["ok"] is True and soaked["matches_simulator"] is True
        assert set(soaked) == set(benign)
        assert set(soaked["live"]) == set(benign["live"]) | {"chaos"}
        assert set(soaked["live"]["chaos"]) == CHAOS_KEYS
        assert "QuiesceTimeout" not in soaked["live"]["chaos"]["absorbed_faults"]


class TestOneSchedule:
    """One fault plan compiles to one schedule on either driver."""

    PLAN = FaultPlan(
        crash_every=6.0, crash_count=2, restart_after=3.0, lease_refresh_every=10.0, seed=3
    )

    @staticmethod
    def kinds(schedule):
        return {
            index: [action.__name__ for action in actions]
            for index, actions in sorted(schedule.items())
        }

    def test_sim_harness_and_live_controller_get_the_same_schedule(self):
        from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
        from repro.faults import ChaosHarness, FaultInjector, churn_schedule
        from repro.net.chaos import ChaosController

        workload = build_workload(
            WorkloadParams(n_queries=4, n_tuples=30, domain_size=10, seed=2)
        )
        injector = FaultInjector(self.PLAN)
        engine = ContinuousQueryEngine(
            ChordNetwork.build(6, injector=injector), EngineConfig("sai")
        )
        sim = churn_schedule(self.PLAN, ChaosHarness(engine, injector), workload)

        cluster = LiveCluster(ClusterConfig(n_nodes=6, fault_plan=self.PLAN))  # never started
        chaos = cluster.chaos
        controller = ChaosController(
            cluster, ChaosHarness(cluster.engine, chaos.injector), chaos
        )
        live = churn_schedule(self.PLAN, controller, workload)

        assert self.kinds(sim) == self.kinds(live) == {
            5: ["crash"],
            8: ["restart"],
            9: ["refresh_leases"],
            11: ["crash"],
            14: ["restart"],
            19: ["refresh_leases"],
            29: ["refresh_leases"],
        }
        # The live actions hand their coroutines to the driver.
        restart = live[8][0]()
        assert asyncio.iscoroutine(restart)
        restart.close()

    def test_partitions_are_scheduled_for_a_live_controller(self):
        from repro.faults import churn_schedule

        workload = build_workload(
            WorkloadParams(n_queries=2, n_tuples=40, domain_size=10, seed=2)
        )
        schedule = churn_schedule(DEFAULT_PLAN, _Recorder(), workload)
        assert self.kinds(schedule) == {
            16: ["crash"],
            21: ["begin_partition"],
            22: ["restart"],  # the first restart drains inside the partition
            28: ["heal_partition"],
            33: ["crash"],
            39: ["restart"],
        }

    def test_run_calls_sync_actions_and_awaits_async_ones(self):
        workload = build_workload(
            WorkloadParams(n_queries=3, n_tuples=6, domain_size=10, seed=1)
        )
        calls = []

        def sync():
            calls.append("sync")

        async def later():
            await asyncio.sleep(0)
            calls.append("async")

        async def scenario():
            cluster = LiveCluster(ClusterConfig(n_nodes=3))
            await cluster.start()
            try:
                return await cluster.run(
                    workload, schedule={0: [sync, later], 4: [later, sync]}
                )
            finally:
                await cluster.stop()

        report = asyncio.run(scenario())
        assert calls == ["sync", "async", "async", "sync"]
        assert report.events == workload.n_queries + workload.n_tuples


class _Recorder:
    """The harness surface ``churn_schedule`` reads, with no ring."""

    engine = type("Engine", (), {"queries": {}, "refresh_leases": lambda self: None})()
    protected: set = set()

    def crash(self):
        pass

    def restart(self):
        pass

    def begin_partition(self):
        pass

    def heal_partition(self):
        pass


class TestExactlyOnceUnderWireFaults:
    def test_every_frame_delivered_once_despite_faults(self):
        """Resets, truncations and garbles are all pre-write faults:
        heavy injection must not duplicate or drop a single frame — on
        the shipped write path, coalesced batches and raw relays
        included."""

        async def scenario():
            plan = FaultPlan(
                seed=23,
                max_attempts=8,
                backoff_base=0.01,
                net=NetFaultSpec(frame_fault_probability=0.3),
            )
            cluster = LiveCluster(
                ClusterConfig(n_nodes=6, quiesce_timeout=20.0, fault_plan=plan)
            )
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(message.query_key),
                    )
                source = cluster.network.nodes[0]
                targets = cluster.network.nodes[1:]
                size = cluster.network.space.size
                expected = []
                for burst in range(6):
                    # Two frames per target queue in one loop turn, so
                    # each outbox coalesces them into one write.
                    for index in range(2 * len(targets)):
                        key = f"d{burst}.{index}"
                        expected.append(key)
                        cluster.transport.send_direct(
                            source,
                            UnsubscribeMessage(query_key=key),
                            targets[index % len(targets)],
                        )
                    # A multisend sweep crosses pure relays, which
                    # forward its bytes without decoding them.
                    keys = [f"m{burst}.{index}" for index in range(8)]
                    expected.extend(keys)
                    idents = [(burst * 977 + i * size // 8) % size for i in range(8)]
                    cluster.transport.multisend(
                        source, [UnsubscribeMessage(query_key=k) for k in keys], idents
                    )
                    await cluster.drain(tolerate_failures=True)
                assert cluster.fault_log == []  # retries absorbed everything
                return received, expected, cluster.chaos.counters
            finally:
                cluster.errors.clear()
                await cluster.stop()

        PERF.reset()
        PERF.enable()
        try:
            received, expected, faults = asyncio.run(scenario())
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        assert sorted(received) == sorted(expected)  # each exactly once
        assert (
            faults["frames_reset"]
            + faults["frames_truncated"]
            + faults["frames_garbled"]
        ) > 0
        assert counters.get("net.batches", 0) > 0
        assert counters.get("net.frames_relayed_raw", 0) > 0


class _ScriptedInjector:
    """Stands in for a ``FaultInjector``: never refuses a dial, and
    answers frame-fault draws from ``script``, then ``None``."""

    def __init__(self):
        self.script: list = []

    def should_refuse_connection(self) -> bool:
        return False

    def sample_frame_fault(self):
        return self.script.pop(0) if self.script else None


class TestBatchFaultRule:
    @pytest.mark.parametrize("kind", ["reset", "truncate", "garble"])
    def test_fault_drawn_for_a_later_frame_fails_the_whole_batch(
        self, kind, monkeypatch
    ):
        """A fault drawn for the k-th frame of a batch (k > 0) damages
        only the first frame and writes no clean byte of the attempt;
        ``_recover``'s failed-batch branch then retries every frame
        alone, and each is delivered exactly once."""
        n_frames, k = 5, 2
        # No heartbeat may take a scripted draw.
        monkeypatch.setattr(health, "HEARTBEAT_INTERVAL", 60.0)

        async def scenario():
            plan = FaultPlan(
                seed=1,
                max_attempts=4,
                backoff_base=0.01,
                net=NetFaultSpec(frame_fault_probability=0.5),
            )
            cluster = LiveCluster(
                ClusterConfig(n_nodes=2, quiesce_timeout=10.0, fault_plan=plan)
            )
            injector = _ScriptedInjector()
            chaos = cluster.chaos
            chaos.injector = injector
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(message.query_key),
                    )
                source, target = cluster.network.nodes
                # A pooled connection first, so the batch is written
                # (and faulted) inside the synchronous flush.
                cluster.transport.send_direct(
                    source, UnsubscribeMessage(query_key="warm"), target
                )
                await cluster.drain()

                attempts = []
                real_write = _Outbox._write

                def spy(outbox, items):
                    writer, written = outbox.writer, []

                    def write(data):
                        written.append(bytes(data))
                        type(writer).write(writer, data)

                    writer.write = write
                    try:
                        return real_write(outbox, items)
                    finally:
                        del writer.write
                        attempts.append(([item.data for item in items], written))

                monkeypatch.setattr(_Outbox, "_write", spy)
                injector.script = [None] * k + [kind]
                for index in range(n_frames):
                    cluster.transport.send_direct(
                        source, UnsubscribeMessage(query_key=f"q{index}"), target
                    )
                await cluster.drain(tolerate_failures=True)
                return received, attempts, list(cluster.fault_log), chaos
            finally:
                cluster.errors.clear()
                await cluster.stop()

        received, attempts, fault_log, chaos = asyncio.run(scenario())
        (frames, written), *retries = attempts
        assert len(frames) == n_frames  # one coalesced write...
        first = frames[0]
        damaged = {
            "reset": [],
            "truncate": [first[: len(first) // 2]],
            "garble": [chaos.corrupt(first)],
        }[kind]
        assert written == damaged  # ...that put no clean byte on the wire
        # Every frame then went alone, clean, in order.
        assert retries == [([frame], [frame]) for frame in frames]
        assert received == ["warm"] + [f"q{i}" for i in range(n_frames)]
        assert fault_log == []
        assert chaos.counters["write_attempts"] == 1 + (k + 1) + n_frames
