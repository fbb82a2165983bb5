"""The discrete-event simulator driving a Chord network.

Combines the :class:`~repro.sim.clock.LogicalClock`, the
:class:`~repro.sim.events.EventQueue` and a
:class:`~repro.chord.network.ChordNetwork` into a runnable simulation.
The query-processing engine schedules workload events here; periodic
behaviours (stabilization rounds, window eviction) are supported through
:meth:`every`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .clock import LogicalClock
from .events import Action, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.network import ChordNetwork
    from ..core.engine import ContinuousQueryEngine
    from ..faults.injector import FaultInjector
    from ..faults.recovery import ChaosHarness


class Simulator:
    """Run scheduled actions against a network in timestamp order."""

    def __init__(self, network: "ChordNetwork", clock: LogicalClock | None = None):
        self.network = network
        self.clock = clock if clock is not None else LogicalClock()
        self.queue = EventQueue()
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, action: Action, label: str = "") -> None:
        """Schedule ``action`` at absolute time ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule at {time}: simulation time is already "
                f"{self.clock.now}"
            )
        self.queue.push(time, action, label)

    def after(self, delay: float, action: Action, label: str = "") -> None:
        """Schedule ``action`` ``delay`` time units from now."""
        self.at(self.clock.now + delay, action, label)

    def every(
        self,
        period: float,
        action: Action,
        *,
        start: float | None = None,
        until: float | None = None,
        label: str = "",
    ) -> None:
        """Schedule ``action`` periodically (e.g. stabilization rounds).

        The recurrence stops when ``until`` is reached or, if ``until``
        is ``None``, keeps rescheduling for as long as the simulation is
        run with an explicit horizon (:meth:`run_until`).
        """
        if period <= 0:
            raise ValueError("period must be positive")
        first = self.clock.now + period if start is None else start

        def fire() -> None:
            action()
            next_time = self.clock.now + period
            if until is None or next_time <= until:
                self.queue.push(next_time, fire, label)

        if until is None or first <= until:
            self.queue.push(first, fire, label)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_faults(
        self,
        injector: "FaultInjector",
        engine: "ContinuousQueryEngine | None" = None,
        protect=(),
        *,
        until: float | None = None,
    ) -> "ChaosHarness | None":
        """Consult ``injector`` for churn, delays and lease refreshes.

        Injected delivery delays become timed events of this simulator,
        and the plan's ``crash_every`` / ``restart_after`` /
        ``lease_refresh_every`` knobs are scheduled as periodic events
        (victims never come from ``protect``).  Returns the
        :class:`~repro.faults.recovery.ChaosHarness` driving the churn.
        """
        from ..faults.schedule import install_fault_plan

        return install_fault_plan(
            self, injector, engine=engine, protect=protect, until=until
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        self.clock.advance_to(event.time)
        event.action()
        self.events_executed += 1
        return True

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue (optionally at most ``max_events`` events)."""
        executed = 0
        while self.queue:
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        return executed

    def run_until(self, horizon: float) -> int:
        """Run events with timestamps ``<= horizon`` then park the clock
        at ``horizon``."""
        executed = 0
        while self.queue:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > horizon:
                break
            self.step()
            executed += 1
        self.clock.advance_to(horizon)
        return executed


def schedule_stabilization(simulator: Simulator, period: float, *, until: float | None = None) -> None:
    """Convenience: run one network-wide stabilization round per period."""
    simulator.every(
        period,
        lambda: simulator.network.run_stabilization(1),
        until=until,
        label="stabilization",
    )
