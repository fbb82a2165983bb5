"""Simulation substrate (clock, stats, messages, sharded executor)."""

from .clock import LogicalClock
from .stats import (
    NodeLoad,
    TrafficStats,
    TrafficSnapshot,
    gini,
    participation,
    percentile_series,
    sorted_loads,
    top_share,
)

__all__ = [
    "LogicalClock",
    "NodeLoad",
    "TrafficSnapshot",
    "TrafficStats",
    "gini",
    "participation",
    "percentile_series",
    "sorted_loads",
    "top_share",
]
