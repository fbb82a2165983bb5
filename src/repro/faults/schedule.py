"""Compile a :class:`~repro.faults.plan.FaultPlan`'s churn to a schedule.

A plan times its churn in logical time units: crash a node every
``plan.crash_every`` (at most ``plan.crash_count``), restart it
``plan.restart_after`` later, refresh the soft-state leases every
``plan.lease_refresh_every``, and — live only — partition the ring from
``plan.net.partition_at`` for ``plan.net.partition_for``.
:func:`churn_schedule` turns each of those instants into the publish
index of the first tuple published at or after it — the ``{publish
index: actions}`` shape :class:`repro.bench.harness.ReplayOrder` keys
on for both drivers that take it
(:func:`repro.bench.harness.run_workload` and
:meth:`repro.net.cluster.LiveCluster.run`).  It is the only code that
builds a fault schedule: the serial replay passes a
:class:`~repro.faults.recovery.ChaosHarness`, the live chaos soak its
:class:`~repro.net.chaos.ChaosController`, whose actions return
coroutines the live driver awaits.  Victims come from the harness's
private RNG, so churn is reproducible and independent of the workload
stream.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Union

from .plan import FaultPlan
from .recovery import ChaosHarness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.chaos import ChaosController
    from ..workload.generator import Workload


def churn_schedule(
    plan: FaultPlan,
    harness: Union[ChaosHarness, "ChaosController"],
    workload: "Workload",
) -> dict[int, list[Callable[[], object]]]:
    """``{publish index: actions}`` running ``plan``'s crashes, restarts,
    lease refreshes and partition window through ``harness`` over
    ``workload``'s stream.

    ``harness`` offers ``engine``, ``protected``, ``crash()`` and
    ``restart()`` (plus ``begin_partition()`` / ``heal_partition()``
    when the plan partitions); every action returns what the harness
    returns, so a live controller's coroutines reach the driver.  A
    victim is never a subscriber: query keys embed the subscriber's key
    and the subscriber holds the leases (the rule a chaos soak's
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

    def crash() -> object:
        harness.protected.update(q.subscriber.ident for q in engine.queries.values())
        return harness.crash()

    for instant in ticks(plan.crash_every, plan.crash_count):
        at(instant, crash)
        if plan.restart_after > 0:
            at(instant + plan.restart_after, harness.restart)
    for instant in ticks(plan.lease_refresh_every):
        at(instant, engine.refresh_leases)
    if plan.net.partition_for > 0:
        at(plan.net.partition_at, harness.begin_partition)
        at(plan.net.partition_at + plan.net.partition_for, harness.heal_partition)
    return schedule
