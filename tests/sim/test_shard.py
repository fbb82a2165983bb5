"""Differential tests: the staged/sharded executor ≡ serial replay.

The sharded fast path is only admissible because it is *exactly* the
serial simulator — same hop and message counters per type, same
delivered notifications, same suppression counts (DESIGN.md §14).
These tests replay one seeded workload per algorithm three ways
(serial harness, staged in-process, forked shards) and require
bit-identical metrics, mirroring ``python -m repro.expdb diff
--transports sim,shard`` at test-suite scale.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import Scale
from repro.bench.harness import run_standard, workload_for
from repro.bench.rows import notification_digest
from repro.sim.shard import fork_available
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.sim.shard import ShardError, run_sharded, shard_capabilities

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


def sharded_run(algorithm, workload, *, shards, seed=1, fast_routing=True):
    network = ChordNetwork.build(POINT.n_nodes, fast_routing=fast_routing)
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
    def test_staged_without_fast_routing_matches_serial(self, algorithm, workload):
        expected = serial_reference(algorithm, workload)
        _, got = sharded_run(algorithm, workload, shards=1, fast_routing=False)
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
        network = ChordNetwork.build(64, fast_routing=True)
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
