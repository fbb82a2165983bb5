"""Differential tests for the lifted sharded modes (DESIGN.md §15).

The blanket preconditions (unbounded window, ``replication_factor=1``,
JFRT off) are gone; these tests pin the admissibility argument for
their replacements — barrier-aligned eviction and the owner-aware
exchanges — by replaying seeded workloads serial vs staged (shards=1)
vs forked (shards≥2) and requiring byte-identical notification digests
and metrics rows, including the sliding-window eviction count.

Two layers:

* a parametrized sweep running the full featured configuration
  (window + replication + JFRT) for **all four algorithms** in every
  execution mode;
* a Hypothesis sweep drawing random feature combinations, shard
  counts, epoch sizes and eviction schedules, checking the same
  equivalence — plus the invisibility property that the eviction
  *schedule* never changes traffic or answers (only the eviction
  count itself depends on ``evict_every``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.configs import Scale
from repro.bench.harness import run_standard, workload_for
from repro.bench.rows import notification_digest
from repro.sim.shard import fork_available
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.sim.shard import run_sharded

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

POINT = Scale(
    name="shard-feature-test",
    n_nodes=48,
    n_queries=20,
    n_tuples=48,
    domain_size=30,
    zipf_s=0.75,
)

FEATURED = {"window": 20.0, "replication_factor": 2, "jfrt_capacity": 4}

WORKLOAD = workload_for(POINT)

#: Serial references by (algorithm, frozen overrides, evict_every) —
#: Hypothesis revisits configurations, the reference never changes.
_reference_cache: dict = {}


def serial_reference(algorithm: str, overrides: dict, evict_every: int) -> dict:
    key = (algorithm, tuple(sorted(overrides.items())), evict_every)
    cached = _reference_cache.get(key)
    if cached is not None:
        return cached
    result = run_standard(
        algorithm,
        POINT,
        config_overrides={"index_choice": "random", **overrides},
        workload=WORKLOAD,
        seed=1,
        evict_every=evict_every,
    )
    row = {
        "install_hops": result.install_traffic.hops,
        "stream_hops": result.stream_traffic.hops,
        "stream_messages": dict(result.stream_traffic.messages_by_type),
        "notifications": result.notifications_delivered,
        "digest": notification_digest(result.engine),
        "evictions": result.evictions,
    }
    _reference_cache[key] = row
    return row


def sharded_row(
    algorithm: str,
    overrides: dict,
    *,
    shards: int,
    batch_size: int = 16,
    evict_every: int = 64,
):
    network = ChordNetwork.build(POINT.n_nodes, fast_routing=True)
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(algorithm=algorithm, index_choice="random", seed=1, **overrides),
    )
    result = run_sharded(
        engine,
        WORKLOAD,
        shards=shards,
        batch_size=batch_size,
        seed=1,
        evict_every=evict_every,
    )
    return result, {
        "install_hops": result.install_traffic.hops,
        "stream_hops": result.stream_traffic.hops,
        "stream_messages": dict(result.stream_traffic.messages_by_type),
        "notifications": result.notifications_delivered,
        "digest": result.notification_digest,
        "evictions": result.evictions,
    }


class TestFeaturedEquivalence:
    """Window + replication + JFRT together, all algorithms, all modes."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_staged_matches_serial(self, algorithm):
        expected = serial_reference(algorithm, FEATURED, 64)
        result, got = sharded_row(algorithm, FEATURED, shards=1)
        assert got == expected
        assert result.exchange_records == 0  # single segment, no crossing
        assert set(result.features) == {
            "barrier-aligned eviction",
            "owner-aware replica exchange",
            "owner-aware JFRT exchange",
        }
        # The window is short enough that eviction must actually fire.
        assert result.evictions > 0

    @pytest.mark.skipif(not fork_available(), reason="requires fork start method")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_forked_matches_serial(self, algorithm):
        expected = serial_reference(algorithm, FEATURED, 64)
        result, got = sharded_row(algorithm, FEATURED, shards=3)
        assert got == expected
        assert result.shards == 3


class TestEvictionSchedule:
    def test_eviction_is_invisible_to_answers(self):
        """Traffic and digests are independent of ``evict_every`` —
        eviction only ever removes entries no future event can match."""
        baseline = serial_reference("sai", FEATURED, 64)
        for evict_every in (3, 17, 1000):
            _, got = sharded_row("sai", FEATURED, shards=1, evict_every=evict_every)
            visible = {k: v for k, v in got.items() if k != "evictions"}
            expected = {k: v for k, v in baseline.items() if k != "evictions"}
            assert visible == expected

    def test_eviction_count_tracks_the_serial_schedule(self):
        """With matching ``evict_every`` the *count* is also exact."""
        for evict_every in (5, 64):
            expected = serial_reference("dai-t", FEATURED, evict_every)
            _, got = sharded_row(
                "dai-t", FEATURED, shards=1, evict_every=evict_every
            )
            assert got == expected


@st.composite
def feature_configs(draw):
    overrides = {}
    window = draw(st.sampled_from([None, 12.0, 30.0]))
    if window is not None:
        overrides["window"] = window
    replication = draw(st.sampled_from([1, 2, 3]))
    if replication != 1:
        overrides["replication_factor"] = replication
    jfrt = draw(st.sampled_from([0, 4]))
    if jfrt:
        overrides["jfrt_capacity"] = jfrt
    return overrides


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    overrides=feature_configs(),
    shards=st.sampled_from([1, 2, 3]),
    batch_size=st.sampled_from([5, 16, 64]),
    evict_every=st.sampled_from([7, 64]),
)
def test_random_feature_mix_matches_serial(
    algorithm, overrides, shards, batch_size, evict_every
):
    if shards > 1 and not fork_available():  # pragma: no cover - platform
        shards = 1
    expected = serial_reference(algorithm, overrides, evict_every)
    result, got = sharded_row(
        algorithm,
        overrides,
        shards=shards,
        batch_size=batch_size,
        evict_every=evict_every,
    )
    assert got == expected
    if shards == 1:
        assert result.exchange_records == 0
