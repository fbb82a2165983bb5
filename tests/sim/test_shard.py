"""Differential tests: the staged/sharded executor ≡ serial replay.

The sharded fast path is only admissible because it is *exactly* the
serial simulator — same hop and message counters per type, same
delivered notifications, same suppression counts (DESIGN.md §14).
These tests replay one seeded workload per algorithm three ways
(serial harness, staged in-process, forked shards) and require
bit-identical metrics, mirroring ``python -m repro.expdb diff
--transports sim,shard`` at test-suite scale.  ``TestBarrierBilling``
holds the hops billed at the barrier to the serial run's stream
traffic and leaves no leg pending.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.bench.configs import Scale
from repro.bench.harness import run_standard, run_workload, workload_for
from repro.bench.rows import notification_digest
from repro.chord.network import ChordNetwork
from repro.chord.snapshot import KERNEL_MAX_M
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.sim import shard
from repro.sim.messages import Message
from repro.sim.shard import ShardError, fork_available, run_sharded, shard_capabilities
from repro.sim.stats import TrafficStats

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

POINT = Scale(
    name="shard-test",
    n_nodes=64,
    n_queries=30,
    n_tuples=60,
    domain_size=40,
    zipf_s=0.75,
)


def serial_reference(algorithm, workload, seed=1):
    result = run_standard(
        algorithm,
        POINT,
        config_overrides={"index_choice": "random"},
        workload=workload,
        seed=seed,
    )
    return {
        "install_hops": result.install_traffic.hops,
        "stream_hops": result.stream_traffic.hops,
        "stream_messages": dict(result.stream_traffic.messages_by_type),
        "notifications": result.notifications_delivered,
        "digest": notification_digest(result.engine),
    }


def sharded_run(algorithm, workload, *, shards, seed=1, whole=False):
    network = ChordNetwork.build(POINT.n_nodes)
    if whole:
        network.nodes  # every member created before the run
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, index_choice="random", seed=seed)
    )
    result = run_sharded(engine, workload, shards=shards, batch_size=16, seed=seed)
    return result, {
        "install_hops": result.install_traffic.hops,
        "stream_hops": result.stream_traffic.hops,
        "stream_messages": dict(result.stream_traffic.messages_by_type),
        "notifications": result.notifications_delivered,
        "digest": result.notification_digest,
    }


@pytest.fixture(scope="module")
def workload():
    return workload_for(POINT)


class TestStagedEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_staged_in_process_matches_serial(self, algorithm, workload):
        expected = serial_reference(algorithm, workload)
        result, got = sharded_run(algorithm, workload, shards=1)
        assert got == expected
        assert result.shard["shards"] == 1
        assert result.events == len(workload)
        assert result.duplicate_deliveries == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_staged_on_a_ring_created_whole_matches_serial(self, algorithm, workload):
        expected = serial_reference(algorithm, workload)
        _, got = sharded_run(algorithm, workload, shards=1, whole=True)
        assert got == expected


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
class TestForkedEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_forked_shards_match_serial(self, algorithm, workload):
        expected = serial_reference(algorithm, workload)
        result, got = sharded_run(algorithm, workload, shards=3)
        assert got == expected
        assert result.shard["shards"] == 3


class TestCapabilities:
    """The blanket preconditions are gone; lifted modes carry them.

    Each once-rejected configuration now runs sharded and is named by
    :func:`shard_capabilities`; the genuinely unsupported perturbing
    fault injector keeps a clear error.
    """

    def _engine(self, **overrides):
        network = ChordNetwork.build(64)
        config = EngineConfig(algorithm="sai", index_choice="random", **overrides)
        return ContinuousQueryEngine(network, config)

    def test_window_lifted(self, workload):
        engine = self._engine(window=10.0)
        assert shard_capabilities(engine) == ("barrier-aligned eviction",)
        result = run_sharded(engine, workload, batch_size=16)
        assert result.shard["features"] == ["barrier-aligned eviction"]

    def test_replication_lifted(self, workload):
        engine = self._engine(replication_factor=2)
        assert shard_capabilities(engine) == ("owner-aware replica exchange",)
        result = run_sharded(engine, workload, batch_size=16)
        assert result.shard["features"] == ["owner-aware replica exchange"]

    def test_jfrt_lifted(self, workload):
        engine = self._engine(jfrt_capacity=4)
        assert shard_capabilities(engine) == ("owner-aware JFRT exchange",)
        result = run_sharded(engine, workload, batch_size=16)
        assert result.shard["features"] == ["owner-aware JFRT exchange"]

    def test_all_features_engage_together(self, workload):
        engine = self._engine(window=10.0, replication_factor=2, jfrt_capacity=4)
        assert shard_capabilities(engine) == (
            "barrier-aligned eviction",
            "owner-aware replica exchange",
            "owner-aware JFRT exchange",
        )

    def test_stripped_config_reports_no_features(self, workload):
        engine = self._engine()
        assert shard_capabilities(engine) == ()
        result = run_sharded(engine, workload, batch_size=16)
        assert result.shard["features"] == []

    def test_perturbing_fault_injector_rejected(self, workload):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        engine = self._engine()
        engine.network.injector = FaultInjector(FaultPlan(loss_probability=0.1))
        with pytest.raises(ValueError, match="shard transport cannot carry .* 'loss_probability'"):
            run_sharded(engine, workload)

    def test_a_crash_plan_is_refused_not_ignored(self, workload):
        # Before the table the staged replay ran such a plan without a
        # single crash and reported the fault-free answers.
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        engine = self._engine()
        engine.network.injector = FaultInjector(FaultPlan(crash_every=5.0))
        with pytest.raises(ValueError, match="shard transport cannot carry .* 'crash_every'"):
            run_sharded(engine, workload)

    def test_bad_evict_every_rejected(self, workload):
        with pytest.raises(ShardError, match="evict_every"):
            run_sharded(self._engine(window=10.0), workload, evict_every=0)


# ----------------------------------------------------------------------
# Hops billed at the barrier (``BarrierBilledTransport``)
# ----------------------------------------------------------------------
FEATURED = {"window": 20.0, "replication_factor": 2, "jfrt_capacity": 4}


def stream_traffic(result):
    traffic = result.stream_traffic
    return traffic.hops, dict(traffic.hops_by_type), dict(traffic.messages_by_type)


@pytest.fixture
def closed_transports(monkeypatch):
    """``(type, pending legs)`` of each driver transport as its stream closes."""
    seen = []
    close = shard._Stream.close

    def spy(stream):
        seen.append((type(stream.transport), len(getattr(stream.transport, "_owners", ()))))
        close(stream)

    monkeypatch.setattr(shard._Stream, "close", spy)
    return seen


class TestBarrierBilling:
    """The deferred hop counts are the per-leg walk's, in every mode."""

    def _pair(self, algorithm, workload, config, *, network=None, **run):
        serial = run_standard(
            algorithm, POINT, config_overrides=config, workload=workload, seed=1
        )
        engine = ContinuousQueryEngine(
            network or ChordNetwork.build(POINT.n_nodes),
            EngineConfig(algorithm=algorithm, seed=1, **config),
        )
        staged = run_sharded(engine, workload, seed=1, **run)
        return stream_traffic(serial), stream_traffic(staged)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_event_epochs(self, algorithm, workload, closed_transports):
        serial, staged = self._pair(
            algorithm, workload, {"index_choice": "random"}, batch_size=1
        )
        assert staged == serial
        assert closed_transports == [(shard.BarrierBilledTransport, 0)]

    @pytest.mark.skipif(not fork_available(), reason="requires fork start method")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_forked_shards_under_min_rate(self, algorithm, workload, closed_transports):
        serial, staged = self._pair(algorithm, workload, {}, shards=2, batch_size=16)
        assert staged == serial
        assert closed_transports == [(shard.BarrierBilledTransport, 0)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_window_replication_and_jfrt(self, algorithm, workload, closed_transports):
        serial, staged = self._pair(
            algorithm, workload, {"index_choice": "random", **FEATURED}, batch_size=16
        )
        assert staged == serial
        assert closed_transports == [(shard.BarrierBilledTransport, 0)]

    @pytest.mark.parametrize("ring", ["no snapshot", "wider than int64"])
    def test_rings_the_kernel_cannot_route_bill_per_leg(self, ring, workload, closed_transports):
        """A ring off the snapshot (a join left it inexact) or with
        identifiers past int64 keeps the inherited per-leg billing."""

        def build():
            if ring == "no snapshot":
                network = ChordNetwork.build(POINT.n_nodes)
                network.join("late")
                assert network.snapshot is None
            else:
                network = ChordNetwork.build(POINT.n_nodes, m=KERNEL_MAX_M + 2)
                assert network.snapshot is not None
            return network

        config = EngineConfig(algorithm="dai-q", index_choice="random", seed=1)
        serial = run_workload(ContinuousQueryEngine(build(), config), workload, seed=1)
        staged = run_sharded(
            ContinuousQueryEngine(build(), config), workload, batch_size=16, seed=1
        )
        assert stream_traffic(staged) == stream_traffic(serial)
        assert staged.notification_digest == notification_digest(serial.engine)
        assert closed_transports == [(shard.ShardTransport, 0)]


@dataclass(frozen=True, slots=True)
class _Attribute(Message):
    type: ClassVar[str] = "al-index"
    tag: int


@dataclass(frozen=True, slots=True)
class _Value(Message):
    type: ClassVar[str] = "vl-index"
    tag: int


def test_every_bill_kind_matches_the_routers():
    """``send``, a mixed recursive sweep, an iterative multisend and a
    rate-probe ``lookup`` (billed at once by the inherited router)
    through the barrier-billed transport, against the same calls through
    the ring's own router: same recipients at once, same traffic once
    flushed."""
    network = ChordNetwork.build(300)
    network.adopt_hook = lambda node: [
        node.register_handler(kind, lambda node, message: None)
        for kind in ("al-index", "vl-index")
    ]
    transport = shard.BarrierBilledTransport(network)
    transport.stats = TrafficStats()
    rng = random.Random(3)
    size = network.space.size
    for step in range(200):
        source = network.random_node(rng)
        idents = [rng.randrange(size) for _ in range(rng.randrange(1, 9))]
        messages = [(_Attribute if rng.random() < 0.4 else _Value)(i) for i in range(len(idents))]
        kind = step % 4
        recipients = []
        for router in (network.router, transport):
            if kind == 0:
                got = [router.send(source, messages[0], idents[0])]
            elif kind == 1:
                got = router.multisend(source, messages, idents)
            elif kind == 2:
                got = router.multisend(source, messages, idents, recursive=False)
            else:
                got = [router.lookup(source, idents[0], account="rate-probe")]
            recipients.append([node.ident for node in got])
        assert recipients[0] == recipients[1]
    assert transport._owners
    transport.flush()
    assert not transport._owners and not transport._bills
    assert transport.stats.snapshot() == network.stats.snapshot()
