"""Schedule explorer: value nodes under any delivery order, no refresh.

Every schedule is one seeded delay-only :class:`FaultPlan` replayed by
``run_workload``: no loss, no crash, but about half of all routed
deliveries land 0.5-6 time units late while tuples are published one
unit apart, so several publishes are in flight at once and a pair's two
halves meet their value nodes in either order — what the pipelined live
driver does with sockets.  The replay lands the queries' installs
before the stream.  Without any lease refresh each run must deliver
exactly the centralized oracle's rows, create no answer twice (the
queries select a unique id from each side, so every answer row has one
tuple pair behind it: a duplicate would be the mirror race) and leave
nothing held once quiescent.

Before the order-independent DAI-Q/DAI-T value nodes every one of the
200 schedules below lost answers for both algorithms, plain and
replicated (and delivered mirror duplicates); SAI and DAI-V, which keep
both halves of a pair at one node, lost none.
"""

import random

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.bench.harness import run_workload
from repro.faults import DelaySpec, FaultInjector, FaultPlan

from .scripted import oracle_of, scripted

SCHEMA = Schema.from_dict({"R": ["A", "B", "C"], "S": ["D", "E", "F"]})
QUERIES = (
    "SELECT R.A, S.D FROM R, S WHERE R.B = S.E",
    "SELECT S.D, R.A FROM R, S WHERE R.B = S.E",  # same group, other select list
    "SELECT R.A, S.D FROM R, S WHERE R.C = S.F AND S.E = 1",
    "SELECT R.A, S.D, S.E FROM R, S WHERE R.B = S.F",
)
DELAY = DelaySpec(probability=0.5, minimum=0.5, maximum=6.0)
SCHEDULES = range(200)
CONFIGS = {"plain": {}, "replicated": {"replication_factor": 2, "jfrt_capacity": 8}}
#: Installs land within one delay, so a stream from here gives every
#: publish its own time, one unit apart.  A stream that starts while
#: installs are still in flight publishes its first tuples at one
#: clock reading, which DAI-Q/DAI-T do not survive (see
#: ``test_publishes_sharing_the_quiesced_clock``).
STREAM_START = DELAY.maximum + 1.0


def workload(seed, start):
    """24 tuples, half R and half S on average, over a 3-value domain."""
    rng = random.Random(seed)
    tuples = []
    for index in range(24):
        a, b = rng.randrange(3), rng.randrange(3)
        if rng.random() < 0.5:
            tuples.append(("R", {"A": index, "B": a, "C": b}))
        else:
            tuples.append(("S", {"D": index, "E": a, "F": b}))
    return scripted(SCHEMA, QUERIES, tuples, start=start)


def explore(algorithm, seed, *, window=None, evict_every=64, start=STREAM_START, **config):
    """Replay one schedule to quiescence; returns ``(engine, oracle, keys)``."""
    injector = FaultInjector(FaultPlan(delay=DELAY, seed=seed))
    network = ChordNetwork.build(12, injector=injector)
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(algorithm, index_choice="random", window=window, seed=seed, **config),
    )
    run_workload(engine, workload(seed, start), seed=seed, evict_every=evict_every)
    return engine, oracle_of(engine, window), list(engine.queries)


def failures(algorithm, seeds, **options):
    """``(seed, missing, extra, duplicates, suppressed, held)`` per schedule
    that went wrong."""
    bad = []
    for seed in seeds:
        engine, oracle, keys = explore(algorithm, seed, **options)
        missing = sum(len(oracle.rows_for(k) - engine.delivered_rows(k)) for k in keys)
        extra = sum(len(engine.delivered_rows(k) - oracle.rows_for(k)) for k in keys)
        held = sum(
            len(entries)
            for _, state in engine.adopted_states()
            for entries in state.held.values()
        )
        counts = (
            missing, extra, engine.duplicate_deliveries,
            engine.suppressed_renotifications, held,
        )
        if any(counts):
            bad.append((seed, *counts))
    return bad


@pytest.mark.parametrize("config", CONFIGS, ids=str)
@pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
def test_every_schedule_delivers_the_oracle_rows_once(algorithm, config):
    assert failures(algorithm, SCHEDULES, **CONFIGS[config]) == []


def test_schedules_really_reorder_pairs():
    """The explorer is not vacuous: DAI-T value nodes held tuples whose
    stored half was still in flight, and matched some when it landed."""
    from repro.perf import PERF

    PERF.reset()
    PERF.enable()
    try:
        failures("dai-t", range(5))
        failures("dai-q", range(5))
    finally:
        PERF.disable()
    counters = PERF.snapshot()["counters"]
    PERF.reset()
    assert counters["engine.reorder.buffered"] > 0
    assert counters["engine.reorder.matched"] > 0
    assert 0 < counters["engine.reorder.peak"] <= counters["engine.reorder.buffered"]


# Windowed schedules still lose answers, every algorithm alike: eviction
# cuts at ``clock.now - window`` while older publishes are in flight,
# so an entry can leave a table before the half it pairs with lands
# (ROADMAP item 1(b)) — not an arrival-order question the rule decides.
@pytest.mark.xfail(strict=True, reason="windowed eviction outruns in-flight halves")
@pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
def test_windowed_schedule_with_eviction(algorithm):
    assert failures(algorithm, [0], window=10.0, evict_every=4) == []


# A stream whose first publishes are due before the installs have landed
# publishes them at the clock the install quiesce left behind: several
# tuples share one publish time, and DAI-Q/DAI-T then lose or suppress
# answers (ROADMAP item 2; the same loss at the faulted-row point is
# pinned in tests/expdb/test_runner.py).
@pytest.mark.xfail(strict=True, reason="publishes sharing one time lose pairs")
@pytest.mark.parametrize("algorithm", ["dai-q", "dai-t"])
def test_publishes_sharing_the_quiesced_clock(algorithm):
    assert failures(algorithm, [1], start=1.0) == []
