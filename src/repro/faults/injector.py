"""The fault injector: one seeded oracle for every fault decision.

A :class:`FaultInjector` interprets a :class:`~repro.faults.plan.FaultPlan`
for one network.  The router asks it whether each delivery attempt is
dropped and how long it is delayed; the simulator (via
:mod:`repro.faults.schedule`) asks it which nodes crash and when.  All
randomness comes from the injector's private RNG, so fault decisions
never perturb the workload or engine RNG streams and every chaos run is
reproducible from ``(workload seed, plan seed)``.

Delayed deliveries are held in an internal FIFO queue.  When a
:class:`~repro.sim.simulator.Simulator` is attached the queue is not
used — deferred messages become timed events instead.  Without one, the
driving loop calls :meth:`flush_deferred` at its own cadence, which
models in-flight messages landing late (possibly after their target
crashed: flushing re-targets dead recipients through their successor
list, and counts the message as lost when no successor survives).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import random

from ..transport import PublishLedger
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from ..sim.messages import Message
    from ..sim.simulator import Simulator


@dataclass
class DeferredDelivery:
    """One in-flight message: what, to whom, and when it may land."""

    message: "Message"
    target: "ChordNode"
    due: float


class FaultInjector:
    """Seeded fault oracle consulted by the router and the simulator."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.rng = random.Random(self.plan.seed)
        self.simulator: Optional["Simulator"] = None
        self._deferred: deque[DeferredDelivery] = deque()
        self._quiescent = False
        #: Logical time accumulated in retry backoff (for reporting).
        self.backoff_total = 0.0
        #: Crash/restart events executed on behalf of this injector.
        self.crashes = 0
        self.restarts = 0
        #: Deferred messages that could never land (target and its
        #: whole successor list died before the flush).
        self.messages_lost = 0
        #: Publishes with deferred messages: the router's low watermark.
        self.ledger = PublishLedger()

    # ------------------------------------------------------------------
    # Router-facing decisions
    # ------------------------------------------------------------------
    @property
    def perturbs_delivery(self) -> bool:
        """False for an empty plan — the router then skips the fault
        path entirely, keeping traffic bit-identical to a clean run."""
        return self.plan.perturbs_delivery

    def should_drop(self) -> bool:
        """Decide whether one delivery attempt is lost in transit."""
        if self.plan.loss_probability <= 0.0:
            return False
        return self.rng.random() < self.plan.loss_probability

    def sample_delay(self) -> float:
        """Injected delivery delay for one message (0 = deliver now)."""
        delay = self.plan.delay
        if delay.is_noop or self._quiescent:
            return 0.0
        if self.rng.random() >= delay.probability:
            return 0.0
        return self.rng.uniform(delay.minimum, delay.maximum) or delay.maximum

    @contextmanager
    def quiesce(self):
        """Suppress injected *delays* (drops stay active) within the block.

        Used by recovery: the soft-state replay must re-execute the
        workload in publication order to deterministically re-create
        every lost pair — delays model transient congestion, and
        recovery explicitly runs after the storm has passed.  Drops are
        still injected (the router's retry loop absorbs them), so the
        recovery path itself stays exercised by the fault plan.
        """
        previous = self._quiescent
        self._quiescent = True
        try:
            yield self
        finally:
            self._quiescent = previous

    def note_backoff(self, attempt: int) -> float:
        """Record the logical backoff before retry ``attempt``."""
        pause = self.jittered(self.plan.backoff_base * (2 ** (attempt - 1)))
        self.backoff_total += pause
        return pause

    def jittered(self, pause: float) -> float:
        """Scale a backoff pause by the plan's jitter factor.

        Jitter-free plans take no RNG draw, so their backoff shape (and
        every downstream fault decision) is byte-identical to pre-jitter
        behaviour.  With jitter, synchronized retries — e.g. every peer
        retrying the instant a partition heals — spread out over
        ``[pause, pause * (1 + jitter)]`` while staying reproducible
        from the plan seed.
        """
        jitter = self.plan.backoff_jitter
        if jitter <= 0.0 or pause <= 0.0:
            return pause
        return pause * (1.0 + self.rng.random() * jitter)

    # ------------------------------------------------------------------
    # Wire-level (live TCP) decisions — see repro.net.chaos
    # ------------------------------------------------------------------
    _FRAME_FAULTS = ("reset", "truncate", "garble")

    def should_refuse_connection(self) -> bool:
        """Decide whether one TCP connection attempt is refused."""
        probability = self.plan.net.connect_refusal_probability
        if probability <= 0.0:
            return False
        return self.rng.random() < probability

    def sample_frame_fault(self) -> Optional[str]:
        """Fault kind for one frame-write attempt, or ``None``.

        Returns one of ``"reset"`` (connection torn down before the
        write), ``"truncate"`` (a partial frame hits the wire, then the
        connection is aborted) or ``"garble"`` (a complete frame with a
        corrupted payload hits the wire).  All three are decided before
        the clean bytes are sent, so the attempt can safely be retried.
        """
        probability = self.plan.net.frame_fault_probability
        if probability <= 0.0 or self.rng.random() >= probability:
            return None
        return self._FRAME_FAULTS[self.rng.randrange(len(self._FRAME_FAULTS))]

    # ------------------------------------------------------------------
    # Deferred (delayed) deliveries
    # ------------------------------------------------------------------
    def attach(self, simulator: "Simulator") -> None:
        """Deliver future deferrals as timed events of ``simulator``."""
        self.simulator = simulator

    def defer(self, message: "Message", target: "ChordNode", delay: float) -> None:
        """Hold ``message`` back by ``delay`` instead of delivering now."""
        if message.causal_time is not None:
            self.ledger[message.causal_time] += 1
        if self.simulator is not None:
            self.simulator.after(
                delay, lambda: self._land(message, target), label="delayed-delivery"
            )
            return
        now = 0.0
        self._deferred.append(DeferredDelivery(message, target, now + delay))

    @property
    def pending_deliveries(self) -> int:
        return len(self._deferred)

    def flush_deferred(self, limit: int | None = None) -> int:
        """Deliver queued messages FIFO; returns how many landed.

        Call this from the driving loop to let "slow" messages arrive.
        A target that crashed while the message was in flight receives
        it through its first live successor (the node that owns, or
        will own after stabilization, the crashed range).
        """
        landed = 0
        while self._deferred:
            if limit is not None and landed >= limit:
                break
            entry = self._deferred.popleft()
            self._land(entry.message, entry.target)
            landed += 1
        return landed

    def _land(self, message: "Message", target: "ChordNode") -> None:
        # A dead target's first live successor-list entry takes it.
        recipient = target if target.alive else target.successor
        if recipient.alive:
            recipient.deliver(message)
        else:
            self.messages_lost += 1
        # Settled after the handler: whatever it sent on is deferred first.
        time = message.causal_time
        if time is not None:
            self.ledger.settle(time)
