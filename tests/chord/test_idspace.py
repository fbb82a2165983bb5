"""Tests for circular identifier-space arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.chord.idspace import IdentifierSpace

SPACE = IdentifierSpace(8)  # ring of 256 identifiers
ident = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestBasics:
    def test_size(self):
        assert SPACE.size == 256

    def test_validate_accepts_in_range(self):
        assert SPACE.validate(0) == 0
        assert SPACE.validate(255) == 255

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SPACE.validate(256)
        with pytest.raises(ValueError):
            SPACE.validate(-1)

    def test_shift_wraps(self):
        assert SPACE.shift(250, 10) == 4

    def test_distance_simple(self):
        assert SPACE.distance(10, 20) == 10

    def test_distance_wraps(self):
        assert SPACE.distance(250, 5) == 11

    def test_distance_self_is_zero(self):
        assert SPACE.distance(42, 42) == 0


class TestIntervals:
    def test_open_interval_simple(self):
        assert SPACE.in_open(15, 10, 20)
        assert not SPACE.in_open(10, 10, 20)
        assert not SPACE.in_open(20, 10, 20)

    def test_open_interval_wrapping(self):
        assert SPACE.in_open(255, 250, 5)
        assert SPACE.in_open(2, 250, 5)
        assert not SPACE.in_open(100, 250, 5)

    def test_open_degenerate_covers_all_but_point(self):
        assert SPACE.in_open(1, 7, 7)
        assert not SPACE.in_open(7, 7, 7)

    def test_half_open_includes_high(self):
        assert SPACE.in_half_open(20, 10, 20)
        assert not SPACE.in_half_open(10, 10, 20)

    def test_half_open_wrapping(self):
        assert SPACE.in_half_open(5, 250, 5)
        assert SPACE.in_half_open(0, 250, 5)
        assert not SPACE.in_half_open(250, 250, 5)

    def test_half_open_degenerate_is_full_ring(self):
        # A single node owns the whole ring.
        assert SPACE.in_half_open(123, 9, 9)
        assert SPACE.in_half_open(9, 9, 9)

    @given(ident, ident, ident)
    def test_property_half_open_partitions_ring(self, x, low, high):
        """(low, high] and (high, low] partition the ring (minus nothing)."""
        if low == high:
            return
        in_first = SPACE.in_half_open(x, low, high)
        in_second = SPACE.in_half_open(x, high, low)
        assert in_first != in_second

    @given(ident, ident, ident)
    def test_property_open_subset_of_half_open(self, x, low, high):
        if SPACE.in_open(x, low, high):
            assert SPACE.in_half_open(x, low, high)
