"""Declarative fault schedules for chaos experiments.

The paper's evaluation assumes a cooperative ring; this module captures
the *adversarial* settings a real deployment faces — message loss,
delivery delay, abrupt node crashes and crash/restart churn — as one
declarative, seedable :class:`FaultPlan`.  A plan is pure data: the
:class:`~repro.faults.injector.FaultInjector` interprets it, the
:class:`~repro.chord.routing.Router` consults the injector on every
delivery, and :func:`repro.faults.schedule.churn_schedule` turns the
crash/restart/lease-refresh knobs (and, on a live cluster, the
partition window of :class:`NetFaultSpec`) into actions at publish
indexes of the stream the driver replays — the serial simulator's and
the live chaos soak's alike.

An all-defaults plan is a guaranteed no-op: the router takes exactly
the code path it takes without an injector, so hop and message counts
are bit-identical to a fault-free run.

Which executor carries which field is one table, :data:`FAULT_SUPPORT`;
every entry point — :func:`~repro.bench.harness.run_workload`,
:func:`~repro.sim.shard.run_sharded`,
:class:`~repro.net.cluster.LiveCluster`,
:func:`~repro.expdb.runner.run_experiment` and
:func:`~repro.faults.schedule.churn_schedule` — passes its plan through
:func:`check_support`, which refuses by name any set field the
executor's column lacks, so no part of a plan is dropped in silence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class DelaySpec:
    """Distribution of injected delivery delays (logical time units).

    With probability ``probability`` a routed delivery is deferred by a
    delay drawn uniformly from ``(minimum, maximum]``; deferred messages
    wait in the injector's queue until the replay reaches their due
    time (or quiesces).
    """

    probability: float = 0.0
    minimum: float = 0.0
    maximum: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("delay probability must be in [0, 1]")
        if self.minimum < 0 or self.maximum < self.minimum:
            raise ValueError("delay bounds must satisfy 0 <= minimum <= maximum")

    @property
    def is_noop(self) -> bool:
        return self.probability == 0.0


@dataclass(frozen=True)
class NetFaultSpec:
    """Wire-level fault knobs of the live (TCP) chaos layer.

    These only matter to :class:`repro.net.chaos.LiveChaos`; the
    simulators refuse them (:data:`FAULT_SUPPORT`).  All faults are
    injected on the *send* side, before any bytes of the affected
    attempt reach the wire, so a faulted attempt is never partially
    delivered — the retry loop can re-send it without risking
    duplicate delivery.

    Parameters
    ----------
    connect_refusal_probability:
        Chance that one connection attempt is refused (the live
        analogue of a SYN to a dead or firewalled port).
    frame_fault_probability:
        Chance that one frame of a write attempt draws a fault (a
        batched write fails if any of its frames does).  A faulted
        write is a connection reset, a truncated frame, or a garbled
        frame (chosen uniformly): resets and truncations exercise the
        reconnect path, garbles exercise the receiver's mid-stream
        :class:`~repro.errors.CodecError` teardown.
    partition_at:
        Open one partition episode at this time (time units, like
        ``FaultPlan.crash_every``): the ring splits in half, one way.
    partition_for:
        Heal it this many time units later (0 = no partition).
    """

    connect_refusal_probability: float = 0.0
    frame_fault_probability: float = 0.0
    partition_at: float = 0.0
    partition_for: float = 0.0

    def __post_init__(self):
        for name in ("connect_refusal_probability", "frame_fault_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.partition_at < 0 or self.partition_for < 0:
            raise ValueError("the partition window must be non-negative")

    @property
    def is_noop(self) -> bool:
        return (
            self.connect_refusal_probability == 0.0
            and self.frame_fault_probability == 0.0
            and self.partition_for == 0.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """Every fault knob of one chaos run, in one seedable record.

    Parameters
    ----------
    loss_probability:
        Chance that any single delivery attempt is dropped.  Dropped
        attempts are retried with backoff (see ``max_attempts``); a
        message is only *lost* when every attempt plus the
        successor-list fallback is exhausted.
    delay:
        Injected delivery-delay distribution (see :class:`DelaySpec`).
    crash_every:
        Crash one node every this many time units (0 disables).  Used
        by :func:`~repro.faults.schedule.churn_schedule`.
    crash_count:
        Stop crashing after this many victims (0 = unlimited).
    restart_after:
        Crashed nodes rejoin this many time units later under their old
        key (0 disables restarts).
    lease_refresh_every:
        Period of the soft-state lease refresh (query re-install +
        windowed tuple republication); 0 leaves refreshing to the
        caller.
    max_attempts:
        Delivery attempts per target before falling back to the
        successor list.
    backoff_base:
        Logical backoff after attempt ``k`` is ``backoff_base * 2**k``,
        recorded in ``FaultInjector.backoff_total`` for reporting only:
        the router retries at once, so backoff never delays a delivery.
    backoff_jitter:
        Randomize each backoff pause by a factor drawn uniformly from
        ``[1, 1 + backoff_jitter]``.  Desynchronizes retries after a
        partition heals (no thundering herd); 0 keeps the exact
        deterministic backoff shape of a jitter-free plan.  Jitter
        draws come from the injector's private RNG, so jittered runs
        stay reproducible from the plan seed.
    net:
        Wire-level fault knobs for the live TCP chaos layer (see
        :class:`NetFaultSpec`); refused by the simulators
        (:data:`FAULT_SUPPORT`).
    seed:
        Seed of the injector's private RNG; fault decisions never touch
        workload or engine RNG streams, so runs are reproducible.
    """

    loss_probability: float = 0.0
    delay: DelaySpec = field(default_factory=DelaySpec)
    crash_every: float = 0.0
    crash_count: int = 0
    restart_after: float = 0.0
    lease_refresh_every: float = 0.0
    max_attempts: int = 8
    backoff_base: float = 0.05
    backoff_jitter: float = 0.0
    net: NetFaultSpec = field(default_factory=NetFaultSpec)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.crash_every < 0 or self.restart_after < 0:
            raise ValueError("crash/restart periods must be non-negative")
        if self.crash_count < 0 or self.lease_refresh_every < 0:
            raise ValueError("crash_count and lease_refresh_every must be non-negative")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")

    # ------------------------------------------------------------------
    @property
    def perturbs_delivery(self) -> bool:
        """True when the router must consult the injector per delivery."""
        return self.loss_probability > 0.0 or not self.delay.is_noop

    @property
    def schedules_churn(self) -> bool:
        """True when the plan asks the driver to run a churn schedule:
        crashes, lease refreshes or a partition window
        (:func:`~repro.faults.schedule.churn_schedule`)."""
        periods = (self.crash_every, self.lease_refresh_every, self.net.partition_for)
        return any(period > 0.0 for period in periods)

    @property
    def perturbs_wire(self) -> bool:
        """True when the live chaos layer must fault connections/frames."""
        return not self.net.is_noop


_LADDER = ("max_attempts", "backoff_base", "backoff_jitter")
_CRASHES = ("crash_every", "crash_count", "restart_after")
_WIRE = ("net.connect_refusal_probability", "net.frame_fault_probability")
_PARTITION = ("net.partition_at", "net.partition_for")

#: Transport → ``{plan field: the mechanism that carries it}``, over the
#: leaf names :func:`check_support` gives a plan's fields (``delay`` is
#: one leaf, ``net.*`` four).  A field without an entry is refused.
#: ``shard`` carries none: its staged replay orders deliveries by causal
#: timestamp, which drops, delays and crashes between barriers break,
#: and nothing in it runs a churn schedule.  ``sim`` has no partition;
#: ``live`` has no per-delivery loss or delay (the wire injects
#: neither) and no lease refresh (no soak has run one).  Lifting any of
#: these is ROADMAP item 6(b).
FAULT_SUPPORT: dict[str, dict[str, str]] = {
    "sim": {
        "loss_probability": "FaultInjector drops, retried by the Router",
        "delay": "FaultInjector deferrals, landed by run_workload",
        **dict.fromkeys((*_CRASHES, "lease_refresh_every"), "churn_schedule over a ChaosHarness"),
        **dict.fromkeys(_LADDER, "the Router's retry ladder"),
        "seed": "the FaultInjector's RNG",
    },
    "shard": {},
    "live": {
        "seed": "the LiveChaos injector's RNG and the ChaosController's victims",
        **dict.fromkeys(_LADDER, "the NetPeer outboxes' retry ladder"),
        **dict.fromkeys((*_CRASHES, *_PARTITION), "churn_schedule over a ChaosController"),
        **dict.fromkeys(_WIRE, "LiveChaos, on every dial and write"),
    },
}


def check_support(plan: FaultPlan, transport: str) -> tuple[str, ...]:
    """The leaf fields ``plan`` sets away from their defaults — its own
    in declaration order, ``delay`` as one, then ``net.*`` one by one —
    once :data:`FAULT_SUPPORT` shows ``transport`` carries every one.

    Raises ``ValueError`` naming the transport and the first field it
    does not carry: no executor runs a plan it would drop part of.
    """
    default, leaves = asdict(FaultPlan()), asdict(plan)
    for record in (default, leaves):
        record.update((f"net.{name}", value) for name, value in record.pop("net").items())
    names = tuple(name for name, value in leaves.items() if value != default[name])
    for name in names:
        if name not in FAULT_SUPPORT[transport]:
            raise ValueError(f"the {transport} transport cannot carry fault plan field {name!r}")
    return names
