import pytest

from joinbench.stats import (
    highest_supported_percentile,
    iqr_share,
    median,
    percentile,
    trimmed_mean,
)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(values, 0.25) == pytest.approx(1.75)
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 0.50
    assert highest_supported_percentile(99) == 0.50
    assert highest_supported_percentile(100) == 0.90
    assert highest_supported_percentile(200) == 0.95
    assert highest_supported_percentile(999) == 0.95
    assert highest_supported_percentile(1000) == 0.99
    assert highest_supported_percentile(10_000) == 0.999


def test_iqr_share_is_quartile_distance_over_median():
    assert iqr_share([10.0]) == 0.0
    assert iqr_share([5.0, 5.0, 5.0, 5.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    # statistics.quantiles(n=4) on 1..5-shaped data: q1=8.5, q3=11.5
    assert iqr_share(values) == pytest.approx(3.0 / 10.0)
    assert median([]) == 0.0


def test_trimmed_mean_drops_both_tails():
    values = [100.0] + [2.0] * 8 + [0.0]
    assert trimmed_mean(values, 0.1) == 2.0
    assert trimmed_mean(values, 0.0) == pytest.approx(11.6)
    assert trimmed_mean([3.0, 5.0], 0.1) == 4.0
    assert trimmed_mean([], 0.1) == 0.0
