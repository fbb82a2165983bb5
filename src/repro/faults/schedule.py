"""Turn a :class:`~repro.faults.plan.FaultPlan` into simulator events.

The simulator side of fault injection: crash a node every
``plan.crash_every`` time units (restarting it ``plan.restart_after``
later when configured) and refresh the soft-state leases every
``plan.lease_refresh_every``.  Victim selection uses the injector's
private RNG so churn schedules are reproducible and independent of the
workload stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .injector import FaultInjector
from .recovery import ChaosHarness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousQueryEngine
    from ..sim.simulator import Simulator


def install_fault_plan(
    simulator: "Simulator",
    injector: FaultInjector,
    engine: Optional["ContinuousQueryEngine"] = None,
    protect: Iterable[int] = (),
    *,
    until: float | None = None,
) -> Optional[ChaosHarness]:
    """Wire ``injector`` into ``simulator``: delays, churn, lease refresh.

    Attaches the injector's deferred-delivery queue to the simulator (so
    injected delays become timed events), schedules the plan's periodic
    crash/restart churn, and — when an ``engine`` is given — schedules
    the periodic lease refresh.  Returns the :class:`ChaosHarness`
    driving the churn, or ``None`` for a churn-free plan without an
    engine.
    """
    plan = injector.plan
    injector.attach(simulator)
    if simulator.network.injector is None:
        simulator.network.injector = injector

    harness: Optional[ChaosHarness] = None
    if engine is not None:
        harness = ChaosHarness(engine, injector, protect=protect)

    if plan.schedules_churn and harness is not None:
        def crash_one() -> None:
            if plan.crash_count and injector.crashes >= plan.crash_count:
                return
            victim = harness.crash()
            if victim is not None and plan.restart_after > 0:
                simulator.after(
                    plan.restart_after,
                    lambda key=victim.key: harness.restart(key),
                    label="fault-restart",
                )

        simulator.every(plan.crash_every, crash_one, until=until, label="fault-crash")

    if plan.lease_refresh_every > 0 and engine is not None:
        simulator.every(
            plan.lease_refresh_every,
            lambda: engine.refresh_leases(),
            until=until,
            label="lease-refresh",
        )
    return harness
