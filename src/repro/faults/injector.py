"""The fault injector: one seeded oracle for every fault decision.

A :class:`FaultInjector` interprets a :class:`~repro.faults.plan.FaultPlan`
for one network.  The router asks it whether each delivery attempt is
dropped and how long it is delayed; :class:`~repro.faults.recovery.
ChaosHarness` asks it which nodes crash.  All randomness comes from the
injector's private RNG, so fault decisions never perturb the workload or
engine RNG streams and every chaos run is reproducible from
``(workload seed, plan seed)``.

Delayed deliveries wait in one queue ordered by due time (``clock.now +
delay``; ties land in push order).  The engine over the injector's
network shares its logical clock with it.  The driving loop
(:func:`repro.bench.harness.run_workload`) calls :meth:`land_before`
before each event and :meth:`flush_deferred` to quiesce; both advance
the clock to each entry's due time and also land what those landings
defer, which models in-flight messages landing late (possibly after
their target crashed: landing re-targets a dead recipient through its
successor, and counts the message as lost when no successor survives).
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

import random

from ..sim.clock import LogicalClock
from ..transport import PublishLedger
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from ..sim.messages import Message


class FaultInjector:
    """Seeded fault oracle consulted by the router and the chaos harness."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.rng = random.Random(self.plan.seed)
        #: The clock deferrals fall due on: the engine's, once an engine
        #: runs over this injector's network.
        self.clock = LogicalClock()
        #: ``(due, push order, message, target)`` heap.
        self._deferred: list = []
        self._pushes = itertools.count()
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
    def defer(self, message: "Message", target: "ChordNode", delay: float) -> None:
        """Hold ``message`` back until ``clock.now + delay``."""
        if message.causal_time is not None:
            self.ledger[message.causal_time] += 1
        heapq.heappush(
            self._deferred,
            (self.clock.now + delay, next(self._pushes), message, target),
        )

    @property
    def pending_deliveries(self) -> int:
        return len(self._deferred)

    def land_before(self, time: float) -> int:
        """Land every deferral due strictly before ``time``, earliest
        first (ties in push order), advancing the clock to each due
        time; deferrals those landings make land too when due before
        ``time``.  Returns how many landed."""
        deferred = self._deferred
        landed = 0
        while deferred and deferred[0][0] < time:
            due, _, message, target = heapq.heappop(deferred)
            self.clock.advance_to(due)
            self._land(message, target)
            landed += 1
        return landed

    def flush_deferred(self) -> int:
        """Land everything, in :meth:`land_before`'s order, until
        nothing is deferred; returns how many landed.

        A target that crashed while the message was in flight receives
        it through its first live successor (the node that owns, or
        will own after stabilization, the crashed range).
        """
        return self.land_before(math.inf)

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
