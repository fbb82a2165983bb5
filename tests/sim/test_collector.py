"""The collector policy of the replay loops (DESIGN.md §17).

``CollectorPause`` switches automatic cycle collection off inside
``run_workload`` and ``run_sharded`` and freezes what the replay keeps
instead of re-walking it.  That is only safe because a replay makes no
reference cycles — reference counting frees all of its garbage — and
these tests pin exactly that: whatever the algorithm, executor or
feature set, no collection runs inside a replay and a full collection
after it, with everything unfrozen, finds nothing to free.  Behaviour
is asserted only through ``gc.isenabled`` / ``gc.callbacks`` /
``gc.collect`` / ``gc.get_count`` / ``gc.get_freeze_count`` /
``gc.get_objects``, so the tests hold on every supported interpreter.
"""

from __future__ import annotations

import gc
import os
import pathlib
import weakref
from collections import Counter

import pytest

import repro
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


def build(algorithm: str, executor: str, overrides: dict, *, on_delivery=None):
    """A fresh engine for WORKLOAD, ``on_delivery`` listening to every query."""
    network = ChordNetwork.build(POINT.n_nodes)
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
    return engine


def run(engine, executor: str):
    """Replay WORKLOAD on ``engine`` through the executor's paused loop."""
    if executor == "serial":
        run_workload(engine, WORKLOAD, evict_every=16)
    else:
        shards = 2 if executor == "forked" else 1
        run_sharded(engine, WORKLOAD, shards=shards, batch_size=32, evict_every=16)
    assert gc.get_freeze_count() == 0, "the pause leaves nothing frozen"
    return engine


def replay(algorithm: str, executor: str, overrides: dict, *, on_delivery=None):
    """Build a fresh engine and replay WORKLOAD; returns the engine."""
    engine = build(algorithm, executor, overrides, on_delivery=on_delivery)
    return run(engine, executor)


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


def worker_reports(algorithm: str, log, *, leak: bool = False) -> dict:
    """Forked replay whose listener reports, from the worker owning the
    subscriber, ``gc.isenabled()`` and what a full collection finds there.

    The listener unfreezes before collecting and refreezes after, so a
    cycle frozen at a barrier cannot hide from it.  With ``leak`` it then
    drops one garbage cycle, which the worker's next report must find.
    Returns ``{pid: [found, ...]}``; every worker must run paused.
    """

    def report(notification) -> None:
        gc.unfreeze()
        found = gc.collect()
        gc.freeze()
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {int(gc.isenabled())} {found}\n")
        if leak:
            cycle: list = []
            cycle.append(cycle)

    replay(algorithm, "forked", CONFIGURATIONS["featured"], on_delivery=report)
    assert gc.isenabled()
    by_worker: dict[str, list] = {}
    for pid, enabled, found in map(str.split, log.read_text().splitlines()):
        assert enabled == "0", "workers inherit the pause"
        by_worker.setdefault(pid, []).append(int(found))
    assert by_worker and str(os.getpid()) not in by_worker
    return by_worker


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_replay_makes_no_cycles(algorithm, executor, configuration):
    """The invariant the pause rests on: no collection at all runs
    between entry and exit, and a full collection afterwards — with
    everything unfrozen and the engine still alive — finds not a single
    unreachable object."""
    if executor == "forked" and not fork_available():
        pytest.skip("forked shards need the fork start method")
    overrides = CONFIGURATIONS[configuration]
    engine = build(algorithm, executor, overrides)
    gc.collect()  # whatever earlier tests and the build left is not this run's
    assert gc.isenabled()
    with CollectionProbe() as probe:
        run(engine, executor)
        assert gc.isenabled()  # handed back as found
        during = list(probe.generations)
        found = gc.collect()
    if executor != "forked":  # forked deliveries are recorded in the workers
        assert any(engine.delivered.values())
    assert not during, (
        f"no collection may run inside a replay, saw generations {during}"
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
    owning the subscriber.  The first report of each worker is not held
    to zero: ``multiprocessing``'s own bootstrap drops the parent's
    ``_MainProcess`` class (a class is a cycle)."""
    for pid, found in worker_reports(algorithm, tmp_path / "workers.log").items():
        assert len(found) > 1 and not any(found[1:]), (
            f"worker {pid} made cycles while replaying: {found}"
        )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_cycle_per_notification_is_reported(executor, tmp_path):
    """Mutation check of the two tests above: a listener that drops one
    garbage cycle per notification is caught in every executor — by the
    full collection after exit, or by the workers' own reports."""
    if executor == "forked":
        if not fork_available():
            pytest.skip("forked shards need the fork start method")
        reports = worker_reports("sai", tmp_path / "workers.log", leak=True)
        for found in reports.values():  # each finds the previous one's cycle
            assert len(found) > 1 and found[1:] == [1] * (len(found) - 1)
        return
    calls = []

    def leak(notification) -> None:
        calls.append(None)
        cycle: list = []
        cycle.append(cycle)

    engine = build("sai", executor, CONFIGURATIONS["featured"], on_delivery=leak)
    gc.collect()
    with CollectionProbe() as probe:
        run(engine, executor)
    assert not probe.generations  # kept frozen, not collected, inside
    assert calls and gc.collect() == len(calls)


def test_back_to_back_replays_free_the_previous_ring():
    """Replays run back to back, with no collection of the caller's in
    between, keep one finished ring alive at most: entry runs the full
    pass that no automatic collection runs after a pause (each exit
    hands the collector a heap it does not count).  Without it every
    ring stayed alive until the caller collected."""
    gc.collect()
    with CollectionProbe() as probe:
        rings = []
        for seed in range(6):
            network = ChordNetwork.build(POINT.n_nodes * 4)
            engine = ContinuousQueryEngine(
                network, EngineConfig(algorithm="dai-q", seed=seed)
            )
            rings.append(weakref.ref(network))
            del network
            run_workload(engine, WORKLOAD)
            del engine
    assert [ring() is None for ring in rings] == [True] * 5 + [False]
    assert probe.generations.count(2) >= 5


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
        network = ChordNetwork.build(8)
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

    def test_barriers_and_exit_run_no_collection(self):
        gc.collect()
        with CollectionProbe() as probe:
            with CollectorPause() as pause:
                assert gc.get_count() == (0, 0, 0)
                pause.freeze_survivors()
                pause.freeze_survivors()
                assert gc.get_freeze_count() > 0
                tail = [[] for _ in range(100)]  # young since the last barrier
            handed_back = gc.get_count()
        assert handed_back == (0, 0, 0)  # the tail is not left counted
        assert probe.generations == []
        assert gc.get_freeze_count() == 0
        del tail

    def test_entry_freezes_a_freshly_built_ring(self):
        """The build finding (DESIGN.md §17) is gone: a build allocates
        no node, so no successor list either.  A ring forced whole
        holds them all, young or not.  Entry keeps all of it without a
        walk: the young counter reads zero and nothing built before
        entry is collectable until exit."""
        gc.collect()
        network = ChordNetwork.build(2_000)
        assert not network._nodes
        successor_lists = {id(node.successor_list) for node in network.nodes}
        assert len(successor_lists) == 2_000
        dropped: list = []
        dropped.append(dropped)  # garbage made before entry
        del dropped
        built = successor_lists | {id(node) for node in network.nodes}
        with CollectorPause():
            counts = gc.get_count()
            collectable = {
                id(obj) for generation in range(3) for obj in gc.get_objects(generation)
            }
            found_inside = gc.collect()
        assert counts[0] == 0
        assert not built & collectable
        assert found_inside == 0
        assert gc.collect() == 1  # unfrozen on exit: the dropped cycle

    def test_a_cycle_made_inside_is_freed_after_exit(self):
        """Frozen cycles are kept, not lost: the first full collection
        after the pause frees every one of them."""
        gc.collect()
        with CollectionProbe() as probe:
            with CollectorPause() as pause:
                for _ in range(3):
                    cycle: list = []
                    cycle.append(cycle)
                    del cycle
                    pause.freeze_survivors()
        assert probe.unreachable == 0
        assert gc.collect() == 3

    def test_nothing_else_in_src_freezes(self):
        """The pause owns the permanent generation while inside."""
        callers = {
            path.name
            for root in repro.__path__
            for path in pathlib.Path(root).rglob("*.py")
            if any(call in path.read_text() for call in ("gc.freeze(", "gc.unfreeze("))
        }
        assert callers == {"collector.py"}
