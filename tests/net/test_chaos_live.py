"""Chaos-over-TCP tests: soak convergence, restart, backpressure.

The soak tests are the acceptance gate of the live failure model
(DESIGN.md §12): a workload streamed through the one live driver under
seeded wire faults, one partition episode and live crash/restart cycles
must converge to the fault-free simulator digest with no duplicate
deliveries and a peak in-flight load inside the credit budget.
"""

import asyncio
import json
from dataclasses import fields

import pytest

from repro.faults.plan import FaultPlan, NetFaultSpec
from repro.net.chaos import (
    _SPEC_KEYS,
    ChaosSoakReport,
    LiveChaos,
    SoakSettings,
    parse_chaos_spec,
    run_chaos_soak,
)
from repro.net.cluster import (
    ClusterConfig,
    LiveCluster,
    build_parser,
    simulate_reference,
)
from repro.net.cluster import main as cluster_main
from repro.net.frames import DirectFrame
from repro.net.health import HealthConfig
from repro.net.peer import NetConfig, _Outbox
from repro.perf import PERF
from repro.sim.messages import UnsubscribeMessage
from repro.workload.generator import WorkloadParams, build_workload

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

SOAK_PLAN = FaultPlan(
    seed=17,
    max_attempts=4,
    backoff_base=0.02,
    backoff_jitter=0.5,
    net=NetFaultSpec(
        connect_refusal_probability=0.05,
        frame_fault_probability=0.05,
    ),
)

FAST_HEALTH = HealthConfig(
    heartbeat_interval=0.05,
    suspicion_timeout=0.3,
    probe_backoff_base=0.05,
    probe_backoff_max=0.2,
)


def soak_config(algorithm, n_nodes=5, seed=7):
    return ClusterConfig(
        algorithm=algorithm,
        n_nodes=n_nodes,
        seed=seed,
        quiesce_timeout=20.0,
        net=NetConfig.from_fault_plan(
            SOAK_PLAN, connect_timeout=1.0, io_timeout=2.0
        ),
        health=FAST_HEALTH,
    )


class TestChaosSoak:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_soak_converges_to_fault_free_digest(self, algorithm):
        workload = build_workload(
            WorkloadParams(n_queries=8, n_tuples=40, domain_size=25, seed=7)
        )
        settings = SoakSettings(crashes=2, partition=True, subscribers=2)
        report = asyncio.run(
            run_chaos_soak(
                workload,
                config=soak_config(algorithm),
                plan=SOAK_PLAN,
                settings=settings,
            )
        )
        assert isinstance(report, ChaosSoakReport)
        # The chaos really bit: wire faults, a partition, live crashes.
        wire_faults = (
            report.chaos.get("connects_refused", 0)
            + report.chaos.get("frames_reset", 0)
            + report.chaos.get("frames_truncated", 0)
            + report.chaos.get("frames_garbled", 0)
        )
        assert wire_faults > 0
        assert report.chaos.get("partitions", 0) >= 1
        assert report.chaos.get("blocked_sends", 0) > 0
        assert report.crashes == 2
        assert report.restarts == 2
        assert report.suspicions > 0
        # ... and the system still converged, exactly once, in budget,
        # without a drain ever waiting out its timeout.
        run = report.run
        assert (run.notification_digest, run.notifications_delivered) == simulate_reference(
            workload, algorithm=algorithm, n_nodes=5, seed=7, subscribers=2
        )
        assert report.delivered_duplicates == 0
        assert report.within_budget
        assert report.run.live["peak_in_flight"] > 0
        assert "QuiesceTimeout" not in report.absorbed_faults


class TestLiveRestart:
    def test_server_restart_on_same_address_resumes_routing(self):
        """Satellite: kill a node's TCP server mid-run, restart it on the
        same port, and routing resumes with no duplicate deliveries."""

        async def scenario():
            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=4,
                    quiesce_timeout=10.0,
                    net=NetConfig(
                        connect_timeout=0.5,
                        io_timeout=1.0,
                        backoff_base=0.05,
                        max_attempts=6,
                    ),
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


class TestBackpressure:
    def test_full_send_window_sheds_instead_of_buffering(self):
        async def scenario():
            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=3,
                    quiesce_timeout=10.0,
                    net=NetConfig(
                        connect_timeout=0.3,
                        io_timeout=1.0,
                        backoff_base=0.2,  # slow retries keep the queue full
                        max_attempts=3,
                        send_window=4,
                    ),
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
        plan, settings = parse_chaos_spec("default")
        assert plan.net.connect_refusal_probability >= 0.05
        assert plan.net.frame_fault_probability >= 0.05
        assert plan.backoff_jitter > 0
        assert settings.crashes == 2 and settings.partition

        plan, settings = parse_chaos_spec("frame=0.2,crashes=3,partition=0,seed=5")
        assert plan.net.frame_fault_probability == 0.2
        assert plan.seed == 5
        assert settings.crashes == 3 and not settings.partition

        with pytest.raises(ValueError):
            parse_chaos_spec("bogus_key=1")

    def test_chaos_help_names_every_spec_key(self):
        (chaos,) = [a for a in build_parser()._actions if a.dest == "chaos"]
        assert [key for key in sorted(_SPEC_KEYS) if f"{key}=" not in chaos.help] == []

    def test_cli_json_is_the_whole_report(self, capsys):
        """The CI point whose drains used to wait out two 30 s quiesce
        timeouts: one driver, one row, the soak's own block beside it."""
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
        assert set(soaked) == set(benign) | {"soak"}
        assert set(soaked["soak"]) == {f.name for f in fields(ChaosSoakReport)} - {"run"}
        assert "QuiesceTimeout" not in soaked["soak"]["absorbed_faults"]


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
                ClusterConfig(
                    n_nodes=6,
                    quiesce_timeout=20.0,
                    net=NetConfig.from_fault_plan(
                        plan, connect_timeout=1.0, io_timeout=2.0
                    ),
                )
            )
            cluster.install_chaos(LiveChaos(plan))
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

        async def scenario():
            injector = _ScriptedInjector()
            chaos = LiveChaos(FaultPlan(seed=1), injector=injector)
            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=2,
                    quiesce_timeout=10.0,
                    net=NetConfig(
                        connect_timeout=1.0,
                        io_timeout=2.0,
                        backoff_base=0.01,
                        max_attempts=4,
                    ),
                )
            )
            cluster.install_chaos(chaos)
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
