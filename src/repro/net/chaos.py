"""Chaos over TCP: seeded wire faults + crash/restart for live clusters.

The simulator's fault framework (PR-1, :mod:`repro.faults`) injects
*logical* faults — message drops, delays, node crashes — under the
routing layer.  This module is its live-transport counterpart: the same
seeded :class:`~repro.faults.plan.FaultPlan` drives faults at the **TCP
boundary** of a :class:`~repro.net.cluster.LiveCluster`:

* **connect refusals** — a dial attempt fails as if the listener were
  down (``plan.net.connect_refusal_probability``);
* **frame faults** (``plan.net.frame_fault_probability``, drawn per
  frame of a batched write) — before any clean byte of the attempt hits
  the wire the connection is *reset*, the batch's first frame is
  *truncated* mid-write, or it is *garbled* (full length, corrupted
  payload, so the receiver's decoder — not just the framing — must
  cope); the write path itself is the shipped one, batching and raw
  relay included;
* **partitions** — an (optionally asymmetric) set of blocked
  ``(src, dst)`` edges whose writes fail like timeouts;
* **live crash/restart** — a peer's server dies, its pooled
  connections are aborted, its queued frames are settled as lost, the
  ring repairs around it (:class:`~repro.faults.recovery.ChaosHarness`
  is the ring-side half), and later the node rejoins through the
  bootstrap handshake on a fresh port.

Every fault is decided *before* clean bytes are written, so a faulted
attempt was certainly not delivered and the retry path cannot create
duplicates; exactly-once delivery then rests on the same soft-state
recovery model the simulator proves out — leases, windowed
republication, and subscriber-side dedup.

The proof obligation is :func:`run_chaos_soak`: stream a workload
through the one live driver (:meth:`~repro.net.cluster.LiveCluster.run`)
under sustained faults, heal, recover, and end with a notification
digest **equal to the fault-free simulator's**
(:func:`~repro.net.cluster.simulate_reference`: same workload, same
seed, same origin pool and draws), zero duplicate notifications, and a
peak in-flight load within the configured credit budget.  Runnable via
``python -m repro.net.cluster --chaos default --compare-sim``.

Determinism note: the fault *plan* is seeded, and victim selection,
schedule placement and origin picks replay exactly; the per-write fault
draws happen in event-loop completion order, which the OS scheduler
perturbs.  The guarantee is therefore *convergence* (digest equality
after recovery), not a bit-identical fault trace — matching the PR-1
framework's contract.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.engine import ContinuousQueryEngine
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, NetFaultSpec
from ..faults.recovery import ChaosHarness
from ..workload.generator import Workload
from .codec import HEADER_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from .cluster import ClusterConfig, LiveCluster, LoadReport


class LiveChaos:
    """The wire-fault layer a cluster consults on every send.

    Owns the :class:`~repro.faults.injector.FaultInjector` whose seeded
    RNG decides refusals and frame faults, plus the current partition
    (a set of blocked directed edges).  Installed on a cluster with
    :meth:`~repro.net.cluster.LiveCluster.install_chaos` **before**
    ``start()``.
    """

    def __init__(self, plan: FaultPlan, injector: Optional[FaultInjector] = None):
        self.plan = plan
        self.injector = injector if injector is not None else FaultInjector(plan)
        self._blocked: set[tuple[int, int]] = set()
        self.counters: Counter = Counter()

    # -- hooks called from the outbound write path ---------------------
    def blocked(self, src_ident: int, dst_ident: int) -> bool:
        if (src_ident, dst_ident) in self._blocked:
            self.counters["blocked_sends"] += 1
            return True
        return False

    def should_refuse_connection(self) -> bool:
        self.counters["connect_attempts"] += 1
        if self.injector.should_refuse_connection():
            self.counters["connects_refused"] += 1
            return True
        return False

    _FAULT_COUNTERS = {
        "reset": "frames_reset",
        "truncate": "frames_truncated",
        "garble": "frames_garbled",
    }

    def sample_frame_fault(self, frames: int) -> Optional[str]:
        """The fault of one write attempt carrying ``frames`` frames.

        One draw per frame, so the per-frame fault rate stays
        ``frame_fault_probability`` however writes are batched; the
        first frame that draws a fault fails the whole attempt and its
        kind is returned (the frames after it are not attempted).
        """
        for _ in range(frames):
            self.counters["write_attempts"] += 1
            fault = self.injector.sample_frame_fault()
            if fault is not None:
                self.counters[self._FAULT_COUNTERS[fault]] += 1
                return fault
        return None

    def corrupt(self, data: bytes) -> bytes:
        """Garble a frame: intact header, poisoned payload.

        The length header is preserved so the receiver reads a
        complete frame and must fail in the *decoder* — the payload's
        first byte becomes ``0xFF``, which is no registered codec tag,
        so decoding deterministically raises ``CodecError``.
        """
        if len(data) <= HEADER_SIZE:  # pragma: no cover - frames never empty
            return data
        body = bytearray(data)
        body[HEADER_SIZE] = 0xFF
        return bytes(body)

    # -- partitions ----------------------------------------------------
    def partition(
        self,
        side_a: Sequence[int],
        side_b: Sequence[int],
        *,
        asymmetric: bool = False,
    ) -> None:
        """Block every edge from ``side_a`` to ``side_b`` (and back,
        unless ``asymmetric`` — then B can still reach A, the case only
        one-way heartbeats detect)."""
        edges = {(a, b) for a in side_a for b in side_b if a != b}
        if not asymmetric:
            edges |= {(b, a) for a in side_a for b in side_b if a != b}
        self._blocked |= edges
        self.counters["partitions"] += 1

    def heal(self) -> None:
        self._blocked.clear()

    @property
    def partitioned(self) -> bool:
        return bool(self._blocked)

    def snapshot(self) -> dict:
        data = dict(self.counters)
        data["partitioned"] = self.partitioned
        return data


# ----------------------------------------------------------------------
# Soak schedule and driver
# ----------------------------------------------------------------------

@dataclass
class SoakSettings:
    """Shape of one chaos soak (what happens beyond the fault plan)."""

    #: Live crash/restart cycles spread across the tuple stream.
    crashes: int = 2
    #: Publishes between a crash and its restart (0 = auto).
    restart_lag: int = 0
    #: Inject one partition episode.
    partition: bool = True
    #: One-way partition (B still reaches A) instead of a full split.
    asymmetric: bool = True
    #: Fraction of the tuple stream at which the partition opens/closes.
    partition_start: float = 0.45
    partition_length: float = 0.15
    #: Size of the protected subscriber pool every origin is drawn from.
    subscribers: int = 2
    #: Ceiling on post-workload recovery rounds.
    settle_rounds: int = 8

    def __post_init__(self):
        if self.crashes < 0:
            raise ValueError("crashes must be >= 0")
        if self.subscribers < 1:
            raise ValueError("subscribers must be >= 1")
        if not 0 < self.partition_start < 1 or not 0 < self.partition_length < 1:
            raise ValueError("partition window fractions must be in (0, 1)")


@dataclass
class ChaosSoakReport:
    """One soak: the run's :class:`~repro.net.cluster.LoadReport`, whose
    digest, count and peak in-flight are taken after recovery, plus what
    only a soak has."""

    run: "LoadReport"
    #: Size of the protected origin pool; the fault-free reference is
    #: ``simulate_reference(..., subscribers=subscribers)``.
    subscribers: int
    #: Duplicate identities in the *delivered* streams — the
    #: exactly-once gate; must be zero.
    duplicate_deliveries: int
    #: Re-created answers that arrived at the subscriber twice and were
    #: dropped by the identity check.  Over real sockets this is the
    #: dedup machinery *working*, not a violation: two evaluators can
    #: emit the same recovered answer while neither emission has landed
    #: yet, so the sender-side filter cannot be current the way it is
    #: in the synchronous simulator.
    redundant_arrivals: int
    suppressed_renotifications: int
    credit_budget: Optional[int]
    crashes: int
    restarts: int
    suspicions: int
    crash_frame_losses: int
    frames_written_off: int
    #: Failures the tolerant drains absorbed, by exception type.
    absorbed_faults: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        return self.credit_budget is None or self.run.peak_in_flight <= self.credit_budget

    @property
    def ok(self) -> bool:
        """Exactly once and within the credit budget (the oracle is the
        caller's check)."""
        return self.duplicate_deliveries == 0 and self.within_budget

    def as_dict(self) -> dict:
        """Every field but ``run`` (which has its own row)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "run"}

    def summary(self) -> str:
        chaos = self.chaos
        absorbed = ", ".join(
            f"{count} {kind}" for kind, count in sorted(self.absorbed_faults.items())
        )
        lines = [
            f"chaos soak {self.run.algorithm}: {self.run.n_tuples} tuples, "
            f"{self.crashes} crashes / {self.restarts} restarts, "
            f"{chaos.get('partitions', 0)} partition episode(s)",
            f"  wire: {chaos.get('connects_refused', 0)} refusals, "
            f"{chaos.get('frames_reset', 0)} resets, "
            f"{chaos.get('frames_truncated', 0)} truncations, "
            f"{chaos.get('frames_garbled', 0)} garbles, "
            f"{chaos.get('blocked_sends', 0)} partition-blocked sends",
            f"  recovery: {self.crash_frame_losses} crash losses, "
            f"{self.frames_written_off} written off, "
            f"absorbed faults: {absorbed or 'none'}, "
            f"{self.suspicions} suspicions, "
            f"{self.suppressed_renotifications} re-notifications suppressed",
            f"  result: {self.duplicate_deliveries} duplicates "
            f"({self.redundant_arrivals} redundant arrivals deduped), "
            f"peak in-flight {self.run.peak_in_flight}/{self.credit_budget}",
        ]
        if self.duplicate_deliveries:
            lines.append(f"FAIL: {self.duplicate_deliveries} duplicate deliveries")
        if not self.within_budget:
            lines.append(
                f"FAIL: peak in-flight {self.run.peak_in_flight} exceeded "
                f"budget {self.credit_budget}"
            )
        return "\n".join(lines)


def delivered_duplicates(engine: ContinuousQueryEngine) -> int:
    """Duplicate identities that made it into the delivered streams.

    The exactly-once property as the application observes it; the
    subscriber-side identity check makes this structurally zero — a
    nonzero count means the dedup machinery itself broke.
    """
    duplicates = 0
    for batch in engine.delivered.values():
        identities = [notification.identity for notification in batch]
        duplicates += len(identities) - len(set(identities))
    return duplicates


class ChaosController:
    """Sequences the two halves of live crash/restart and partitions.

    A crash is ring-side bookkeeping (``ChaosHarness.crash``: fail the
    node, stabilize, inherit key ranges) **and** socket-side demolition
    (freeze the peer, abort its connections, settle doomed frames).
    Getting the order right — mark dead, freeze, repair the ring, then
    settle — is this class's whole job, plus the deterministic victim
    stream (its own seeded RNG, because wire-fault draws happen in
    event-loop order and would perturb a shared stream).
    """

    def __init__(
        self,
        cluster: "LiveCluster",
        harness: ChaosHarness,
        chaos: LiveChaos,
    ):
        self.cluster = cluster
        self.harness = harness
        self.chaos = chaos
        self.victim_rng = random.Random(chaos.plan.seed ^ 0xC4A54)
        self.crashes = 0
        self.restarts = 0

    async def crash(self, node: Optional["ChordNode"] = None) -> Optional["ChordNode"]:
        """Kill one live node: server down, state gone, ring repaired."""
        if node is None:
            node = self.harness.choose_victim(self.victim_rng)
        if node is None:
            return None
        peer = self.cluster.peers.pop(node.ident, None)
        if peer is None:  # pragma: no cover - defensive
            return None
        self.cluster.dead.add(node.ident)
        peer.freeze()
        # Ring-side half while the socket side is frozen: membership,
        # finger repair, key-range inheritance.
        self.harness.crash(node)
        await peer.abort()
        self.crashes += 1
        return node

    async def restart(self) -> Optional["ChordNode"]:
        """Rejoin the oldest crashed node: ring first, then sockets,
        then a lease refresh so its inherited ranges repopulate."""
        if not self.harness.crashed_keys:
            return None
        node = self.harness.restart()
        if node is None:  # pragma: no cover - defensive
            return None
        await self.cluster.restart_peer(node)
        self.restarts += 1
        self.cluster.engine.refresh_leases()
        await self.cluster.drain(tolerate_failures=True)
        return node

    async def restart_all(self) -> list["ChordNode"]:
        restarted = []
        while self.harness.crashed_keys:
            node = await self.restart()
            if node is None:  # pragma: no cover - defensive
                break
            restarted.append(node)
        return restarted

    async def begin_partition(self, *, asymmetric: bool = True) -> None:
        """Split the current ring in half (identifier order)."""
        idents = [node.ident for node in self.cluster.network.nodes]
        half = max(1, len(idents) // 2)
        self.chaos.partition(idents[:half], idents[half:], asymmetric=asymmetric)

    async def heal_partition(self) -> None:
        self.chaos.heal()

    async def settle(self, *, max_rounds: int = 8) -> str:
        """Refresh-and-drain until the digest is stable and a whole
        round passed without absorbing any new fault.  Plan faults stay
        active throughout — the retry path absorbs them — exactly like
        ``ChaosHarness.settle`` keeps drops active in the simulator."""
        from ..bench.rows import notification_digest

        cluster = self.cluster
        engine = cluster.engine
        previous = None
        digest = notification_digest(engine)
        for _ in range(max(1, max_rounds)):
            faults_before = len(cluster.fault_log)
            cluster.network.run_stabilization(2, fix_all_fingers=True)
            engine.refresh_leases()
            await cluster.drain(tolerate_failures=True)
            digest = notification_digest(engine)
            clean = len(cluster.fault_log) == faults_before
            if digest == previous and clean and cluster.in_flight.count == 0:
                break
            previous = digest
        return digest


async def run_chaos_soak(
    workload: Workload,
    *,
    config: "ClusterConfig",
    plan: FaultPlan,
    settings: Optional[SoakSettings] = None,
) -> ChaosSoakReport:
    """Stream ``workload`` through :meth:`LiveCluster.run` under
    sustained chaos.

    Faults run for the whole workload; crashes, restarts and the
    partition episode fire at fixed publish indexes of the tuple stream.
    Every origin is drawn from the protected subscriber pool — the first
    ``settings.subscribers`` nodes in identifier order, never crashed:
    query keys embed the origin's node key, and a subscriber holds the
    query leases and the delivered-identity sets that make recovery
    exactly-once.  ``ChordNetwork.build`` is deterministic, so the
    reference draws the identical pool and stream.  After the run
    everything heals, every crashed node restarts, and recovery rounds
    run until the delivered-notification digest is stable.  The caller
    checks the report against ``simulate_reference(...,
    subscribers=report.subscribers)`` (the CLI and CI do).
    """
    from ..bench.rows import notification_digest
    from .cluster import LiveCluster

    settings = settings if settings is not None else SoakSettings()
    chaos = LiveChaos(plan)
    cluster = LiveCluster(config)
    cluster.install_chaos(chaos)
    await cluster.start()
    try:
        engine = cluster.engine
        pool = cluster.network.nodes[: settings.subscribers]
        harness = ChaosHarness(
            engine, chaos.injector, protect=[node.ident for node in pool]
        )
        controller = ChaosController(cluster, harness, chaos)

        total = workload.n_tuples
        schedule: dict[int, list] = defaultdict(list)
        if settings.partition and total >= 4:
            start = int(total * settings.partition_start)
            schedule[start].append(
                partial(controller.begin_partition, asymmetric=settings.asymmetric)
            )
            stop = start + max(1, int(total * settings.partition_length))
            schedule[min(total - 1, stop)].append(controller.heal_partition)
        unprotected = config.n_nodes - len(pool)
        crashes = min(settings.crashes, max(0, unprotected - 1))
        if crashes and total:
            lag = settings.restart_lag or max(3, total // 8)
            for index in range(crashes):
                at = min(total - 1, round(total * (index + 1) / (crashes + 1)))
                schedule[at].append(controller.crash)
                if at + lag < total:
                    schedule[at + lag].append(controller.restart)

        report = await cluster.run(workload, origins=pool, schedule=schedule)
        await controller.heal_partition()
        await controller.restart_all()
        digest = await controller.settle(max_rounds=settings.settle_rounds)

        return ChaosSoakReport(
            run=replace(
                report,
                digest=digest,
                notifications=sum(len(batch) for batch in engine.delivered.values()),
                peak_in_flight=cluster.in_flight.peak,
            ),
            subscribers=len(pool),
            duplicate_deliveries=delivered_duplicates(engine),
            redundant_arrivals=engine.duplicate_deliveries,
            suppressed_renotifications=engine.suppressed_renotifications,
            credit_budget=cluster.in_flight.budget,
            crashes=controller.crashes,
            restarts=controller.restarts,
            suspicions=sum(
                peer.detector.suspicions
                for peer in cluster.peers.values()
                if peer.detector is not None
            ),
            crash_frame_losses=cluster.crash_frame_losses,
            frames_written_off=cluster.frames_written_off,
            absorbed_faults=dict(
                Counter(type(fault).__name__ for fault in cluster.fault_log)
            ),
            chaos=chaos.snapshot(),
        )
    finally:
        await cluster.stop()


# ----------------------------------------------------------------------
# CLI plumbing (python -m repro.net.cluster --chaos SPEC)
# ----------------------------------------------------------------------

_SPEC_KEYS = {
    "frame", "connect", "seed", "attempts", "backoff", "jitter",
    "crashes", "partition", "subscribers", "lag", "settle",
}


def parse_chaos_spec(spec: str) -> tuple[FaultPlan, SoakSettings]:
    """``--chaos`` argument -> (fault plan, soak settings).

    ``"default"`` (or an empty string) is the acceptance preset: 5%
    connect refusals, 5% frame faults, jittered 4-attempt retries, two
    crash/restart cycles and one asymmetric partition episode.
    Key=value pairs override individual knobs, e.g.
    ``--chaos frame=0.1,crashes=3,seed=42``.
    """
    values: dict[str, str] = {}
    if spec and spec != "default":
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in _SPEC_KEYS:
                raise ValueError(
                    f"bad --chaos entry {part!r}; known keys: "
                    f"{', '.join(sorted(_SPEC_KEYS))}"
                )
            values[key] = raw.strip()

    def fget(key: str, default: float) -> float:
        return float(values.get(key, default))

    def iget(key: str, default: int) -> int:
        return int(values.get(key, default))

    plan = FaultPlan(
        seed=iget("seed", 17),
        max_attempts=iget("attempts", 4),
        backoff_base=fget("backoff", 0.02),
        backoff_jitter=fget("jitter", 0.5),
        net=NetFaultSpec(
            connect_refusal_probability=fget("connect", 0.05),
            frame_fault_probability=fget("frame", 0.05),
        ),
    )
    settings = SoakSettings(
        crashes=iget("crashes", 2),
        restart_lag=iget("lag", 0),
        partition=bool(iget("partition", 1)),
        subscribers=iget("subscribers", 2),
        settle_rounds=iget("settle", 8),
    )
    return plan, settings
