"""Tests for traffic counters and load-distribution helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    NodeLoad,
    TrafficStats,
    gini,
    participation,
    percentile_series,
    sorted_loads,
    top_share,
)


class TestTrafficStats:
    def test_record(self):
        stats = TrafficStats()
        stats.record("join", 5)
        stats.record("join", 3)
        stats.record("query", 2)
        assert stats.hops == 10
        assert stats.messages == 3
        assert stats.hops_by_type["join"] == 8
        assert stats.messages_by_type["query"] == 1

    def test_record_batch(self):
        stats = TrafficStats()
        stats.record_batch("al-index", message_count=8, hops=20)
        assert stats.messages == 8
        assert stats.hops == 20

    def test_record_hops_only(self):
        stats = TrafficStats()
        stats.record_hops("lookup", 4)
        assert stats.hops == 4
        assert stats.messages == 0

    def test_snapshot_is_immutable_copy(self):
        stats = TrafficStats()
        stats.record("x", 1)
        snap = stats.snapshot()
        stats.record("x", 1)
        assert snap.hops == 1
        assert stats.hops == 2

    def test_since(self):
        stats = TrafficStats()
        stats.record("x", 3)
        snap = stats.snapshot()
        stats.record("x", 4)
        stats.record("y", 1)
        delta = stats.since(snap)
        assert delta.hops == 5
        assert delta.messages == 2
        assert delta.hops_by_type == {"x": 4, "y": 1}

    def test_snapshots_add_and_subtract(self):
        stats = TrafficStats()
        stats.record("x", 3)
        stats.record_drop("x")
        early = stats.snapshot()
        stats.record("x", 4)
        stats.record_batch("y", 2, 5)
        stats.record_retry("y")
        late = stats.snapshot()
        delta = late - early
        assert (delta.hops, delta.messages, delta.retries) == (9, 3, 1)
        assert delta.hops_by_type == {"x": 4, "y": 5}
        assert delta.messages_by_type == {"x": 1, "y": 2}
        assert delta.messages_dropped == 0
        assert early + delta == late
        assert list((early + delta).hops_by_type) == ["x", "y"]

    def test_reset(self):
        stats = TrafficStats()
        stats.record("x", 3)
        stats.reset()
        assert stats.hops == 0 and stats.messages == 0
        assert not stats.hops_by_type


class TestNodeLoad:
    def test_levels_sum_into_filtering(self):
        load = NodeLoad()
        load.add_attribute_level(5)
        load.add_value_level(3)
        assert load.filtering == 8
        assert load.attribute_level_filtering == 5
        assert load.value_level_filtering == 3


class TestDistributionHelpers:
    def test_sorted_loads_descending(self):
        assert list(sorted_loads([1, 5, 3])) == [5, 3, 1]

    def test_sorted_loads_empty(self):
        assert sorted_loads([]).size == 0

    def test_gini_balanced_is_zero(self):
        assert gini([4, 4, 4, 4]) == pytest.approx(0.0)

    def test_gini_concentrated_near_one(self):
        values = [0] * 99 + [100]
        assert gini(values) > 0.95

    def test_gini_empty_or_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_gini_orders_inequality(self):
        assert gini([1, 1, 1, 9]) > gini([2, 3, 3, 4])

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100))
    def test_property_gini_bounded(self, values):
        g = gini(values)
        assert 0.0 <= g < 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=5),
    )
    def test_property_gini_scale_invariant(self, values, factor):
        scaled = [v * factor for v in values]
        assert gini(values) == pytest.approx(gini(scaled), abs=1e-9)

    def test_top_share(self):
        values = [10] + [1] * 9
        assert top_share(values, 0.1) == pytest.approx(10 / 19)

    def test_top_share_all(self):
        assert top_share([5, 5], 1.0) == pytest.approx(1.0)

    def test_top_share_validates_fraction(self):
        with pytest.raises(ValueError):
            top_share([1], 0.0)

    def test_top_share_empty(self):
        assert top_share([], 0.5) == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=60))
    def test_property_top_share_monotone_in_fraction(self, values):
        small = top_share(values, 0.1)
        large = top_share(values, 0.9)
        assert small <= large + 1e-12

    def test_percentile_series(self):
        series = percentile_series(range(101), percentiles=(50, 100))
        assert series[50] == pytest.approx(50.0)
        assert series[100] == pytest.approx(100.0)

    def test_percentile_series_empty(self):
        assert percentile_series([], percentiles=(50,)) == {50: 0.0}

    def test_participation(self):
        assert participation([0, 0, 1, 2]) == pytest.approx(0.5)
        assert participation([]) == 0.0
        assert participation([1, 1]) == 1.0

    def test_sorted_loads_returns_numpy(self):
        assert isinstance(sorted_loads([1]), np.ndarray)
