"""Tests for the opt-in perf instrumentation registry."""

from __future__ import annotations

import gc
import time

from repro.core.tables import ValueLevelQueryTable
from repro.perf import PERF, PerfRegistry
from repro.sql.query import GroupMember, GroupShape, RewrittenGroup, Subscriber, bind


def _member_record(query_keys, trigger_time: float) -> RewrittenGroup:
    """A group record over one signature, one value and one suffix."""
    subscriber = Subscriber("perf", 1, "10.0.0.1")
    shape = GroupShape(
        group_signature="sig",
        relation="R",
        expr=None,
        dis_attribute="A",
        filters=(),
        members=tuple(GroupMember(key, subscriber, 0.0, 0) for key in query_keys),
        select_specs=((),),
    )
    return bind(shape, 7, 7, trigger_time, ())


class TestDisabled:
    def test_disabled_by_default(self):
        assert PerfRegistry().enabled is False

    def test_count_is_noop(self):
        registry = PerfRegistry()
        registry.count("x", 5)
        assert registry.counter("x") == 0
        assert registry.snapshot()["counters"] == {}

    def test_timer_is_shared_null_object(self):
        registry = PerfRegistry()
        first, second = registry.timer("t"), registry.timer("t")
        assert first is second  # no per-call allocation while disabled
        with first:
            pass
        assert registry.seconds("t") == 0.0
        assert registry.calls("t") == 0


class TestEnabled:
    def test_counters_accumulate(self):
        registry = PerfRegistry(enabled=True)
        registry.count("evictions")
        registry.count("evictions", 4)
        registry.count("other", 2)
        assert registry.counter("evictions") == 5
        assert registry.snapshot()["counters"] == {"evictions": 5, "other": 2}

    def test_timer_accumulates_seconds_and_calls(self):
        registry = PerfRegistry(enabled=True)
        for _ in range(3):
            with registry.timer("sleepy"):
                time.sleep(0.002)
        assert registry.calls("sleepy") == 3
        assert registry.seconds("sleepy") >= 0.006
        snap = registry.snapshot()["timers"]["sleepy"]
        assert snap["calls"] == 3
        assert snap["seconds"] == registry.seconds("sleepy")

    def test_timer_records_on_exception(self):
        registry = PerfRegistry(enabled=True)
        try:
            with registry.timer("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert registry.calls("failing") == 1

    def test_reset_clears_values_not_flag(self):
        registry = PerfRegistry(enabled=True)
        registry.count("x")
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.enabled is True
        assert registry.counter("x") == 0
        assert registry.calls("t") == 0

    def test_enable_disable_round_trip(self):
        registry = PerfRegistry()
        registry.enable()
        registry.count("x")
        registry.disable()
        registry.count("x")
        assert registry.counter("x") == 1


def _collector_hooks(registry: PerfRegistry) -> list:
    return [
        hook for hook in gc.callbacks if getattr(hook, "__self__", None) is registry
    ]


class TestCollectorAccounting:
    """``enable()`` installs one ``gc.callbacks`` hook, ``disable()``
    removes it; in between every collection is counted and timed."""

    def test_hook_follows_enable_and_disable(self):
        registry = PerfRegistry()
        assert _collector_hooks(registry) == []
        registry.enable()
        registry.enable()  # idempotent: still one hook
        try:
            assert len(_collector_hooks(registry)) == 1
        finally:
            registry.disable()
        assert _collector_hooks(registry) == []
        registry.disable()  # and removing twice is harmless

    def test_a_registry_built_enabled_registers_nothing(self):
        registry = PerfRegistry(enabled=True)
        assert _collector_hooks(registry) == []
        gc.collect()
        assert registry.snapshot()["counters"] == {}

    def test_collections_are_counted_by_generation_and_timed(self):
        gc.collect()
        registry = PerfRegistry()
        registry.enable()
        try:
            cycle: list = []
            cycle.append(cycle)
            del cycle
            found = gc.collect(0)
            gc.collect(1)
            gc.collect()
        finally:
            registry.disable()
        counters = registry.snapshot()["counters"]
        assert found == 1
        assert counters["gc.collections.gen0"] >= 1
        assert counters["gc.collections.gen1"] >= 1
        assert counters["gc.collections.gen2"] == 1
        assert counters["gc.unreachable"] == 1
        collections = sum(
            count for name, count in counters.items() if name.startswith("gc.coll")
        )
        assert registry.calls("gc.pause") == collections
        assert registry.seconds("gc.pause") > 0.0
        gc.collect()  # after disable(): not recorded
        assert registry.snapshot()["counters"] == counters

    def test_a_replay_reports_its_collector_cost(self):
        """What the hook is for: the snapshot of a run states that the
        paused replay ran young collections only and freed nothing."""
        from repro.bench.configs import Scale
        from repro.bench.harness import make_engine, run_workload, workload_for
        from repro.core.engine import EngineConfig

        tiny = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=30)
        engine = make_engine(tiny, EngineConfig(algorithm="sai"))
        workload = workload_for(tiny)
        gc.collect()
        PERF.reset()
        PERF.enable()
        try:
            run_workload(engine, workload, evict_every=8)
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        pauses = PERF.calls("gc.pause")
        PERF.reset()
        # One young collection per barrier and one on exit, nothing else.
        assert counters["gc.collections.gen0"] == (12 + 40) // 8 + 1 == pauses
        assert counters["gc.unreachable"] == 0
        assert "gc.collections.gen1" not in counters
        assert "gc.collections.gen2" not in counters


class TestInstrumentedSites:
    def test_eviction_and_rewrite_counters_record(self):
        from repro.bench.configs import Scale
        from repro.bench.harness import run_standard

        tiny = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=30)
        PERF.reset()
        PERF.enable()
        try:
            run_standard("dai-t", tiny, config_overrides={"window": 10.0})
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        # One rewrite per (group, trigger), covering at least one member.
        assert 0 < counters["sql.rewrites"] <= counters["sql.rewrite.members"]
        assert "vlqt.evicted" in counters
        assert counters.get("hash.parts_hit", 0) > 0

    def test_rewrites_count_groups_and_rejections_explain_match_share(self):
        """Twelve similar queries are rewritten once per trigger, and
        every examined (member, candidate) pair is either a created
        notification, an emitted-identity repeat, or a counted rejection
        (window / time / filter)."""
        from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema

        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        network = ChordNetwork.build(8)
        engine = ContinuousQueryEngine(
            network, EngineConfig(algorithm="dai-q", window=3.0)
        )
        node = network.nodes[0]
        R, S = schema.relation("R"), schema.relation("S")
        PERF.reset()
        PERF.enable()
        try:
            for _ in range(12):
                engine.subscribe(
                    node, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.D = 1", schema
                )
            for d, gap in ((1, 1.0), (2, 5.0), (1, 1.0)):
                engine.clock.advance(gap)
                engine.publish(node, S, {"D": d, "E": 7})
            for _ in range(2):  # the second R tuple re-creates the same rows
                engine.clock.advance(1.0)
                engine.publish(node, R, {"A": 5, "B": 7})
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        # Two R triggers plus the two S triggers that pass ``S.D = 1``.
        assert counters["sql.rewrites"] == 4
        assert counters["sql.rewrite.members"] == 48
        load = engine.load_snapshot()
        examined = sum(load.value_level_filtering.values())
        created = sum(load.notifications_created.values())
        assert (examined, created) == (72, 12)
        assert counters["evaluator.rejected.window"] == 24  # the S tuple 7-8 s back
        assert counters["evaluator.rejected.filter"] == 24  # S.D = 2
        assert counters["evaluator.rejected.repeat"] == 12
        assert "evaluator.rejected.time" not in counters

    def test_filter_rejected_cohort_counts_young_members_as_time(self):
        """A cohort is filtered as one, but counted as its members would
        be one by one (time test first): a lease-refresh replay of an S
        tuple that fails ``S.D = 1`` meets a stored cohort of two, one of
        them subscribed after the tuple.  SAI, whose value nodes match in
        both directions (a DAI-T replay never meets a younger cohort); the
        replay runs only after a loss, so an idle node fails first."""
        from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema

        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        network = ChordNetwork.build(8)
        # Seed 1: the first query, subscribed before any arrival, draws
        # the R side; min-rate puts the second there too.
        engine = ContinuousQueryEngine(network, EngineConfig(algorithm="sai", seed=1))
        node = network.nodes[0]
        R, S = schema.relation("R"), schema.relation("S")
        sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.D = 1"
        PERF.reset()
        PERF.enable()
        try:
            engine.clock.advance(1.0)
            engine.subscribe(node, sql, schema)
            engine.clock.advance(1.0)
            engine.publish(node, S, {"D": 2, "E": 7})
            engine.clock.advance(1.0)
            engine.subscribe(node, sql, schema)
            engine.clock.advance(1.0)
            engine.publish(node, R, {"A": 5, "B": 7})
            assert [len(c) for n in network for c in engine.state(n).vlqt] == [2]
            idle = next(
                n for n in network
                if n is not node and engine.state(n).storage_breakdown().total == 0
            )
            network.fail(idle)
            network.run_stabilization(2, fix_all_fingers=True)
            engine.clock.advance(1.0)
            PERF.reset()  # the R tuple's own arrival was filtered, as two
            engine.refresh_leases()
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        assert counters["evaluator.rejected.filter"] == 1
        assert counters["evaluator.rejected.time"] == 1

    def test_vlqt_add_examines_the_record_not_the_bucket(self):
        """Counted, not timed: adding a one-member record examines the
        same number of slots/keys whether its ``(signature, suffix)`` is
        already shared by 2, 64 or 512 one-member cohorts (they are
        indexed by query key), and no more than beside a single cohort
        (which is indexed on that occasion)."""
        counts = {}
        for resident in (1, 2, 64, 512):
            table = ValueLevelQueryTable()
            for i in range(resident):
                table.add(_member_record([f"q{i}"], 1.0), 0)
            PERF.reset()
            PERF.enable()
            try:
                assert table.add(_member_record(["new"], 2.0), 0) is not None
                fresh = PERF.counter("vlqt.add.examined")
                assert table.add(_member_record(["q0"], 3.0), 0) is None
                refresh = PERF.counter("vlqt.add.examined") - fresh
            finally:
                PERF.disable()
                PERF.reset()
            counts[resident] = (fresh, refresh)
            assert len(table) == resident + 1
        # One slot lookup + one member probe; the lone cohort's member is
        # examined once more while its slot becomes an index.
        assert counts[2] == counts[64] == counts[512] == (2, 2)
        assert counts[1] == (3, 2)

    def test_vlqt_split_is_counted(self):
        table = ValueLevelQueryTable()
        table.add(_member_record(["a", "b", "c"], 1.0), 0)
        PERF.reset()
        PERF.enable()
        try:
            table.add(_member_record(["a", "b", "c"], 2.0), 0)  # whole: no split
            assert PERF.counter("vlqt.cohorts.split") == 0
            table.add(_member_record(["b"], 3.0), 0)  # part of it: one split
            counters = PERF.snapshot()["counters"]
        finally:
            PERF.disable()
            PERF.reset()
        assert counters["vlqt.cohorts.split"] == 1
        assert sorted(len(cohort) for cohort in table) == [1, 2] and len(table) == 3

    def test_scale_counters_record(self):
        """The §14 fast-path sites: snapshot rebuilds, epochs, batches."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        workload = workload_for(tiny)
        PERF.reset()
        PERF.enable()
        try:
            # The snapshot is built when the ring is, not on first use.
            network = ChordNetwork.build(tiny.n_nodes, fast_routing=True)
            engine = ContinuousQueryEngine(
                network, EngineConfig(algorithm="sai", index_choice="random", seed=1)
            )
            run_sharded(engine, workload, shards=1, batch_size=8)
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        assert counters.get("snapshot.rebuilds", 0) == 1
        assert "router.fallbacks" not in counters
        assert counters.get("shard.epochs", 0) >= tiny.n_tuples // 8
        assert counters.get("shard.batch.events", 0) == tiny.n_tuples

    def test_barrier_counters_record(self):
        """The §15 lifted-mode sites: eviction replay + owner exchange."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.sim.shard import fork_available
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        workload = workload_for(tiny)
        shards = 2 if fork_available() else 1
        network = ChordNetwork.build(tiny.n_nodes, fast_routing=True)
        engine = ContinuousQueryEngine(
            network,
            EngineConfig(
                algorithm="sai",
                index_choice="random",
                seed=1,
                window=10.0,
                replication_factor=2,
                jfrt_capacity=4,
            ),
        )
        PERF.reset()
        PERF.enable()
        try:
            result = run_sharded(
                engine, workload, shards=shards, batch_size=8, evict_every=8
            )
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        # One eviction replay per barrier-aligned boundary + final sweep.
        expected_replays = tiny.n_queries + tiny.n_tuples
        assert counters.get("shard.evictions.replayed", 0) >= expected_replays // 8
        if shards > 1:
            assert counters.get("shard.exchange.records", 0) == (
                result.exchange_records
            )
            assert result.exchange_records > 0

    def test_scale_counters_zero_overhead_when_disabled(self):
        """Disabled registry: the same run records nothing at all."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        network = ChordNetwork.build(tiny.n_nodes, fast_routing=True)
        # The featured configuration drives the §15 sites too (barrier
        # eviction replay, owner-aware exchange) — still zero recording.
        engine = ContinuousQueryEngine(
            network,
            EngineConfig(
                algorithm="sai",
                index_choice="random",
                seed=1,
                window=10.0,
                replication_factor=2,
                jfrt_capacity=4,
            ),
        )
        assert PERF.enabled is False
        run_sharded(engine, workload_for(tiny), shards=1, batch_size=8, evict_every=8)
        # The cohort sites of the VLQT, split included.
        table = ValueLevelQueryTable()
        table.add(_member_record(["a", "b"], 1.0), 0)
        table.add(_member_record(["b", "c"], 2.0), 0)
        assert [len(cohort) for cohort in table] == [1, 1, 1]
        assert PERF.snapshot()["counters"] == {}
        assert PERF.snapshot()["timers"] == {}
        # ... and nothing listens to the collector on its behalf.
        assert _collector_hooks(PERF) == []

    def test_global_registry_disabled_in_tests(self):
        # REPRO_PERF is not set for the suite, so instrumented hot paths
        # must run with the zero-overhead branch.
        assert PERF.enabled is False
