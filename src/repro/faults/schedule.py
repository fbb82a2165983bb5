"""Compile a :class:`~repro.faults.plan.FaultPlan`'s churn to a schedule.

A plan times its churn in logical time units: crash a node every
``plan.crash_every`` (at most ``plan.crash_count``), restart it
``plan.restart_after`` later, refresh the soft-state leases every
``plan.lease_refresh_every``.  :func:`churn_schedule` turns each of
those instants into the publish index of the first tuple published at
or after it — the ``{publish index: actions}`` shape both drivers take
(:func:`repro.bench.harness.run_workload` and
:meth:`repro.net.cluster.LiveCluster.run`).  Victims come from the
injector's private RNG, so churn is reproducible and independent of the
workload stream.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import TYPE_CHECKING, Callable

from .plan import FaultPlan
from .recovery import ChaosHarness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workload.generator import Workload


def churn_schedule(
    plan: FaultPlan, harness: ChaosHarness, workload: "Workload"
) -> dict[int, list[Callable[[], object]]]:
    """``{publish index: actions}`` running ``plan``'s crashes, restarts
    and lease refreshes through ``harness`` over ``workload``'s stream.

    A victim is never a subscriber: query keys embed the subscriber's
    key and the subscriber holds the leases (the rule a chaos soak's
    protected pool follows), so each crash first protects every node
    that posed a query.
    """
    times = [event.time for event in workload if event.kind == "tuple"]
    schedule: dict[int, list[Callable[[], object]]] = defaultdict(list)
    if not times:
        return schedule
    engine = harness.engine

    def at(instant: float, action: Callable[[], object]) -> None:
        index = bisect.bisect_left(times, instant)
        if index < len(times):
            schedule[index].append(action)

    def ticks(period: float, limit: int = 0) -> list[float]:
        count = int(times[-1] // period) if period > 0 else 0
        if limit:
            count = min(count, limit)
        return [period * k for k in range(1, count + 1)]

    def crash() -> None:
        harness.protected.update(q.subscriber.ident for q in engine.queries.values())
        harness.crash()

    for instant in ticks(plan.crash_every, plan.crash_count):
        at(instant, crash)
        if plan.restart_after > 0:
            at(instant + plan.restart_after, harness.restart)
    for instant in ticks(plan.lease_refresh_every):
        at(instant, engine.refresh_leases)
    return schedule
