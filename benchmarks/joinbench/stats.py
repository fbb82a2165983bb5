"""Order statistics used by the benchmark's timed metrics."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Percentiles the benchmark is willing to report, lowest first.
CANDIDATE_PERCENTILES = (0.50, 0.90, 0.95, 0.99, 0.999)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def highest_supported_percentile(n_samples: int) -> Optional[float]:
    """The largest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples above it, or ``None`` when even
    the median has fewer (under 20 samples)."""
    supported = None
    for q in CANDIDATE_PERCENTILES:
        # 1e-9: 1.0 - 0.9 is a hair under 0.1 in binary floating point.
        if n_samples * (1.0 - q) >= MIN_SAMPLES_BEYOND - 1e-9:
            supported = q
    return supported


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: Sequence[float], share: float) -> float:
    """Mean of ``values`` without the lowest and the highest ``share``
    of them; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread the
    benchmark contract gates on.  0.0 for fewer than two samples or a
    zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
