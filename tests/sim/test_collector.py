"""The collector policy of the replay loops (DESIGN.md §17).

``CollectorPause`` switches automatic cycle collection off inside
``run_workload`` and ``run_sharded``.  That is only safe because a
replay makes no reference cycles — reference counting frees all of its
garbage — and these tests pin exactly that: whatever the algorithm,
executor or feature set, the collector finds nothing to free, during
the run or after it.  Behaviour is asserted only through
``gc.isenabled`` / ``gc.callbacks`` / ``gc.collect`` return values, so
the tests hold on every supported interpreter.
"""

from __future__ import annotations

import gc
import os
from collections import Counter

import pytest

from repro.bench.configs import Scale
from repro.bench.harness import run_standard, run_workload, workload_for
from repro.sim.shard import fork_available
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.sim.collector import CollectorPause
from repro.sim.shard import run_sharded

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

POINT = Scale(
    name="collector-test",
    n_nodes=48,
    n_queries=20,
    n_tuples=160,
    domain_size=30,
    zipf_s=0.75,
)

CONFIGURATIONS = {
    "stripped": {},
    "featured": {"window": 20.0, "replication_factor": 2, "jfrt_capacity": 4},
}

EXECUTORS = ("serial", "staged", "forked")

WORKLOAD = workload_for(POINT)


class CollectionProbe:
    """A ``gc.callbacks`` hook recording what the collector did."""

    def __init__(self):
        self.generations: list[int] = []
        self.unreachable = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.generations.append(info["generation"])
            self.unreachable += info["collected"] + info["uncollectable"]

    def __enter__(self) -> "CollectionProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def replay(algorithm: str, executor: str, overrides: dict, *, on_delivery=None):
    """Build a fresh engine and replay WORKLOAD; returns the engine."""
    staged = executor != "serial"
    network = ChordNetwork.build(POINT.n_nodes, fast_routing=staged)
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(algorithm=algorithm, index_choice="random", seed=1, **overrides),
    )
    if on_delivery is not None:
        subscribe = engine.subscribe

        def subscribe_and_listen(origin, query, schema=None):
            bound = subscribe(origin, query, schema)
            engine.add_notification_listener(bound.key, on_delivery)
            return bound

        engine.subscribe = subscribe_and_listen
    if staged:
        shards = 2 if executor == "forked" else 1
        run_sharded(engine, WORKLOAD, shards=shards, batch_size=32, evict_every=16)
    else:
        run_workload(engine, WORKLOAD, evict_every=16)
    return engine


def unreachable_types(algorithm: str, executor: str, overrides: dict) -> Counter:
    """Re-run under ``DEBUG_SAVEALL`` and name what the collector found."""
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        engine = replay(algorithm, executor, overrides)
        gc.collect()
        del engine
        return Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_replay_makes_no_cycles(algorithm, executor, configuration):
    """The invariant the pause rests on: between entry and exit no
    automatic (older-generation) collection runs, and neither the young
    collections at the barriers nor a full collection afterwards, with
    the engine still alive, find a single unreachable object."""
    if executor == "forked" and not fork_available():
        pytest.skip("forked shards need the fork start method")
    overrides = CONFIGURATIONS[configuration]
    gc.collect()  # whatever earlier tests left behind is not this run's
    assert gc.isenabled()
    with CollectionProbe() as probe:
        engine = replay(algorithm, executor, overrides)
        assert gc.isenabled()  # handed back as found
        during = list(probe.generations)
        found = probe.unreachable + gc.collect()
    if executor != "forked":  # forked deliveries are recorded in the workers
        assert any(engine.delivered.values())
    assert during and set(during) == {0}, (
        f"only the barriers' young collections may run inside a replay, "
        f"saw generations {sorted(set(during))}"
    )
    if found:
        types = unreachable_types(algorithm, executor, overrides)
        pytest.fail(
            f"{algorithm}/{executor}/{configuration}: the collector found "
            f"{found} unreachable objects; a replay must make no cycles. "
            f"Types: {dict(types.most_common(8))}"
        )


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forked_shards_run_paused_and_make_no_cycles(algorithm, tmp_path):
    """A listener fires where the delivery is recorded — in the worker
    owning the subscriber — and reports that process's collector state
    and what a full collection finds there.  The first report of each
    worker is not held to zero: ``multiprocessing``'s own bootstrap
    drops the parent's ``_MainProcess`` class (a class is a cycle)."""
    log = tmp_path / "workers.log"

    def report(notification) -> None:
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {int(gc.isenabled())} {gc.collect()}\n")

    replay(algorithm, "forked", CONFIGURATIONS["featured"], on_delivery=report)
    assert gc.isenabled()
    by_worker: dict[str, list] = {}
    for pid, enabled, found in map(str.split, log.read_text().splitlines()):
        assert enabled == "0", "workers inherit the pause"
        by_worker.setdefault(pid, []).append(int(found))
    assert by_worker and str(os.getpid()) not in by_worker
    for pid, found in by_worker.items():
        assert len(found) > 1 and not any(found[1:]), (
            f"worker {pid} made cycles while replaying: {found}"
        )


class TestCollectorPause:
    def test_pauses_inside_and_restores_after(self):
        assert gc.isenabled()
        with CollectorPause():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with CollectorPause():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_replay_loops_restore_when_an_event_raises(self):
        network = ChordNetwork.build(8, fast_routing=True)
        for run in (run_workload, run_sharded):
            engine = ContinuousQueryEngine(network, EngineConfig(algorithm="sai"))
            engine.publish = None  # the first tuple event raises TypeError
            with pytest.raises(TypeError):
                run(engine, WORKLOAD)
            assert gc.isenabled()

    def test_nests(self):
        with CollectorPause():
            with CollectorPause():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner exit left the outer pause on
        assert gc.isenabled()

    def test_nests_around_the_harness(self):
        with CollectorPause():
            result = run_standard("sai", POINT, workload=WORKLOAD)
            assert not gc.isenabled()
        assert gc.isenabled()
        assert result.notifications_delivered > 0

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with CollectorPause():
                assert not gc.isenabled()
            assert not gc.isenabled()
            run_standard("sai", POINT, workload=WORKLOAD)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_barrier_and_exit_run_young_collections_only(self):
        with CollectionProbe() as probe:
            with CollectorPause() as pause:
                pause.young()
                pause.young()
        assert probe.generations == [0, 0, 0]

    def test_a_young_cycle_is_reclaimed_at_the_next_barrier(self):
        """Why the barriers collect at all: should a future path make
        young cycles, memory stays bounded without automatic passes."""
        gc.collect()
        with CollectionProbe() as probe:
            with CollectorPause() as pause:
                for _ in range(3):
                    cycle: list = []
                    cycle.append(cycle)
                    del cycle
                    pause.young()
        assert probe.unreachable == 3
