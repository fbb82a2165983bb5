"""Discrete-event queue.

Workload arrival (tuple insertions, query subscriptions), churn and
periodic stabilization are all scheduled as timestamped events.  Message
propagation *within* one event is executed synchronously while hops are
counted through real routing state — the standard design for an overlay
simulator whose reported metrics are hop counts and load counters rather
than wall-clock latencies (see DESIGN.md §5).

The heap is the simulator's one scheduler.  Replaying a workload needs
none (its events arrive sorted and are dispatched in a plain loop), but
faults do: an injected delay (``FaultInjector.defer`` →
``Simulator.after``) and every periodic crash, restart or lease refresh
(``install_fault_plan`` → ``Simulator.every``) lands at an arbitrary
future time, between events already queued — an insert a monotone batch
buffer cannot take.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

Action = Callable[[], None]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled action; ordering is (time, sequence-number).

    ``slots=True``: million-event runs allocate one of these per
    scheduled action, and slotted instances are both smaller and faster
    to compare on the heap.
    """

    time: float
    sequence: int
    action: Action = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """A priority queue of :class:`Event` with stable FIFO tie-breaking."""

    def __init__(self):
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, action: Action, label: str = "") -> Event:
        """Schedule ``action`` at ``time``; later pushes at the same
        time run in insertion order."""
        event = Event(time, next(self._counter), action, label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or ``None`` when empty."""
        return self._heap[0].time if self._heap else None
