"""Chaos over TCP: seeded wire faults + crash/restart for live clusters.

The live counterpart of :mod:`repro.faults`, whose simulator faults sit
under the routing layer: the same seeded
:class:`~repro.faults.plan.FaultPlan` drives faults at the **TCP
boundary** of a :class:`~repro.net.cluster.LiveCluster`:

* **connect refusals** — a dial attempt fails as if the listener were
  down (``plan.net.connect_refusal_probability``);
* **frame faults** (``plan.net.frame_fault_probability``, drawn per
  frame of a batched write) — before any clean byte of the attempt hits
  the wire the connection is *reset*, the batch's first frame is
  *truncated* mid-write, or it is *garbled* (full length, corrupted
  payload, so the receiver's decoder must cope); the write path is the
  shipped one, batching and raw relay included;
* **partitions** — a one-way set of blocked ``(src, dst)`` edges whose
  writes fail like timeouts (``plan.net.partition_at`` /
  ``partition_for``);
* **live crash/restart** — a peer's server dies, its connections are
  aborted, its queued frames are settled as lost, the ring repairs
  around it (:class:`~repro.faults.recovery.ChaosHarness` is the
  ring-side half), and later the node rejoins on a fresh port
  (``plan.crash_every`` / ``crash_count`` / ``restart_after``).

Partitions, crashes and restarts are timed by the serial replay's one
schedule builder, :func:`~repro.faults.schedule.churn_schedule`, with a
:class:`ChaosController` as its harness.  Every fault is decided
*before* clean bytes are written, so a faulted attempt was certainly not
delivered and retries cannot duplicate; exactly-once delivery rests on
the simulator's soft-state recovery model — leases, republication and
subscriber-side dedup.

The proof obligation is :func:`soak`, which
:func:`~repro.net.cluster.run_live` runs for such a plan (``python -m
repro.net.cluster --chaos default --compare-sim``): stream a workload
through the one live driver under sustained faults, heal, recover, and
end with the fault-free simulator's notification digest
(:func:`~repro.net.cluster.simulate_reference`: same workload, seed,
origin pool and draws), zero duplicates, and peak in-flight within the
credit budget.  Victims, schedule and origins replay exactly, but the
per-write fault draws follow event-loop completion order, which the OS
scheduler perturbs: the guarantee is convergence, not a bit-identical
fault trace.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.engine import ContinuousQueryEngine
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, NetFaultSpec
from ..faults.recovery import ChaosHarness
from ..faults.schedule import churn_schedule
from ..workload.generator import Workload
from .codec import HEADER_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from ..bench.rows import RunReport
    from .cluster import LiveCluster


class LiveChaos:
    """The wire-fault layer a cluster consults on every send.

    Owns the :class:`~repro.faults.injector.FaultInjector` whose seeded
    RNG decides refusals and frame faults, plus the current partition
    (a set of blocked directed edges).  A
    :class:`~repro.net.cluster.LiveCluster` builds one when its fault
    plan faults the wire or churns the ring.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injector = FaultInjector(plan)
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
        self, side_a: Sequence[int], side_b: Sequence[int], *, asymmetric: bool = False
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


# ----------------------------------------------------------------------
# Soak controller and driver
# ----------------------------------------------------------------------

#: Size of the protected subscriber pool every soak origin is drawn
#: from; the fault-free reference is ``simulate_reference(...,
#: subscribers=SUBSCRIBERS)``.
SUBSCRIBERS = 2

#: Ceiling on post-workload recovery rounds.
SETTLE_ROUNDS = 8


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

    It offers what :func:`~repro.faults.schedule.churn_schedule` asks
    of a harness — ``engine``, ``protected``, ``crash``, ``restart``,
    ``begin_partition``, ``heal_partition`` — as coroutines, so one
    fault plan compiles to one schedule on either driver.
    """

    def __init__(self, cluster: "LiveCluster", harness: ChaosHarness, chaos: LiveChaos):
        self.cluster = cluster
        self.harness = harness
        self.chaos = chaos
        self.victim_rng = random.Random(chaos.plan.seed ^ 0xC4A54)
        #: At most all but one of the unprotected nodes ever crash.
        self.max_crashes = len(cluster.network) - len(harness.protected) - 1
        self.crashes = 0
        self.restarts = 0

    @property
    def engine(self) -> ContinuousQueryEngine:
        return self.cluster.engine

    @property
    def protected(self) -> set[int]:
        return self.harness.protected

    async def crash(self) -> Optional["ChordNode"]:
        """Kill one live node: server down, state gone, ring repaired.

        A soak crashes at most :attr:`max_crashes` nodes, so the victim
        is never the last live unprotected node and a 4-node soak (two
        subscribers) runs one crash/restart cycle.
        """
        if self.crashes >= self.max_crashes:
            return None
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
        node = self.harness.restart()
        if node is None:
            return None
        await self.cluster.restart_peer(node)
        self.restarts += 1
        self.cluster.engine.refresh_leases()
        await self.cluster.drain(tolerate_failures=True)
        return node

    async def restart_all(self) -> None:
        while self.harness.crashed_keys:
            await self.restart()

    async def begin_partition(self) -> None:
        """Split the current ring in half (identifier order), one way:
        the second half still reaches the first, which holds every
        protected node (a lost notification is never re-created)."""
        idents = [node.ident for node in self.cluster.network.nodes]
        near = set(idents[: max(1, len(idents) // 2)]) | self.protected
        far = [ident for ident in idents if ident not in near]
        self.chaos.partition(sorted(near), far, asymmetric=True)

    async def heal_partition(self) -> None:
        """Unblock every link; every live peer re-announces its address
        (what the partition kept from a restart's fan-out)."""
        self.chaos.heal()
        for peer in self.cluster.peers.values():
            peer.announce()

    async def settle(self) -> str:
        """Refresh-and-drain until the digest is stable and a whole
        round passed without absorbing any new fault.  Plan faults stay
        active throughout — the retry path absorbs them — exactly like
        ``ChaosHarness.settle`` keeps drops active in the simulator."""
        from ..bench.rows import notification_digest

        cluster = self.cluster
        engine = cluster.engine
        previous = None
        digest = notification_digest(engine)
        for _ in range(SETTLE_ROUNDS):
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


async def soak(cluster: "LiveCluster", workload: Workload) -> "RunReport":
    """Stream ``workload`` through a started cluster's
    :meth:`~repro.net.cluster.LiveCluster.run` under its chaos layer;
    the run's report, read after recovery.

    Wire faults run for the whole workload; the plan's crashes,
    restarts and partition window fire at publish indexes of the tuple
    stream (:func:`~repro.faults.schedule.churn_schedule` with this
    soak's :class:`ChaosController`); a plan whose ``crash_count``
    crashes or partition the stream ends before is refused with
    ``ValueError``.  Every origin is drawn from the
    protected subscriber pool — the first :data:`SUBSCRIBERS` nodes in
    identifier order, never crashed: query keys embed the origin's node
    key, and a subscriber holds the query leases and the
    delivered-identity sets that make recovery exactly-once.
    ``ChordNetwork.build`` is deterministic, so the reference draws the
    identical pool and stream.  After the run everything heals, every
    crashed node restarts, and recovery rounds run until the
    delivered-notification digest is stable.  Answers, counters and
    peak in-flight are read then; what only a soak measures is
    ``report.live["chaos"]`` (:func:`soak_ok` gates it).  The caller
    checks the report against ``simulate_reference(...,
    subscribers=SUBSCRIBERS)`` (the CLI and CI do).
    """
    chaos = cluster.chaos
    plan = chaos.plan
    engine = cluster.engine
    pool = cluster.network.nodes[:SUBSCRIBERS]
    harness = ChaosHarness(engine, chaos.injector, protect=[node.ident for node in pool])
    controller = ChaosController(cluster, harness, chaos)
    schedule = churn_schedule(plan, controller, workload)
    kinds = Counter(act.__name__ for acts in schedule.values() for act in acts)
    if kinds["crash"] < plan.crash_count or kinds["begin_partition"] < bool(
        plan.net.partition_for
    ):
        raise ValueError(
            f"the plan's churn falls past a {workload.n_tuples}-tuple stream"
        )
    report = await cluster.run(workload, origins=pool, schedule=schedule)
    await controller.heal_partition()
    await controller.restart_all()
    await controller.settle()

    measured = {
        "crashes": controller.crashes,
        "restarts": controller.restarts,
        "suspicions": sum(
            peer.detector.suspicions
            for peer in cluster.peers.values()
            if peer.detector is not None
        ),
        "crash_frame_losses": cluster.crash_frame_losses,
        "frames_written_off": cluster.frames_written_off,
        # Failures the tolerant drains absorbed, by exception type.
        "absorbed_faults": dict(
            Counter(type(fault).__name__ for fault in cluster.fault_log)
        ),
        "wire": dict(chaos.counters),
        "delivered_duplicates": delivered_duplicates(engine),
        "credit_budget": cluster.in_flight.budget,
    }
    return replace(
        report,
        suppressed_renotifications=engine.suppressed_renotifications,
        duplicate_deliveries=engine.duplicate_deliveries,
        live={**report.live, "peak_in_flight": cluster.in_flight.peak, "chaos": measured},
    )


def _within_budget(report: "RunReport") -> bool:
    budget = report.live["chaos"]["credit_budget"]
    return budget is None or report.live["peak_in_flight"] <= budget


def soak_ok(report: "RunReport") -> bool:
    """Exactly once and within the credit budget (the oracle is the
    caller's check).

    Exactly once means no duplicate identity in the *delivered* streams
    (``delivered_duplicates``), not ``report.duplicate_deliveries``:
    those are re-created answers that arrived at the subscriber twice
    and were dropped by the identity check.  Over real sockets that is
    the dedup machinery *working*: two evaluators can emit the same
    recovered answer while neither emission has landed yet, so the
    sender-side filter cannot be current the way it is in the
    synchronous simulator.
    """
    return report.live["chaos"]["delivered_duplicates"] == 0 and _within_budget(report)


def soak_summary(report: "RunReport") -> str:
    """What a soak did to the run and how it ended, a few lines."""
    live = report.live
    soak, wire = live["chaos"], live["chaos"]["wire"]
    duplicates = soak["delivered_duplicates"]
    absorbed = ", ".join(
        f"{count} {kind}" for kind, count in sorted(soak["absorbed_faults"].items())
    )
    lines = [
        f"chaos soak {report.engine.config.algorithm}: {report.events} events, "
        f"{soak['crashes']} crashes / {soak['restarts']} restarts, "
        f"{wire.get('partitions', 0)} partition episode(s)",
        f"  wire: {wire.get('connects_refused', 0)} refusals, "
        f"{wire.get('frames_reset', 0)} resets, "
        f"{wire.get('frames_truncated', 0)} truncations, "
        f"{wire.get('frames_garbled', 0)} garbles, "
        f"{wire.get('blocked_sends', 0)} partition-blocked sends",
        f"  recovery: {soak['crash_frame_losses']} crash losses, "
        f"{soak['frames_written_off']} written off, "
        f"absorbed faults: {absorbed or 'none'}, "
        f"{soak['suspicions']} suspicions, "
        f"{report.suppressed_renotifications} re-notifications suppressed",
        f"  result: {duplicates} duplicates "
        f"({report.duplicate_deliveries} redundant arrivals deduped), "
        f"peak in-flight {live['peak_in_flight']}/{soak['credit_budget']}",
    ]
    if duplicates:
        lines.append(f"FAIL: {duplicates} duplicate deliveries")
    if not _within_budget(report):
        lines.append(
            f"FAIL: peak in-flight {live['peak_in_flight']} exceeded "
            f"budget {soak['credit_budget']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI plumbing (python -m repro.net.cluster --chaos SPEC)
# ----------------------------------------------------------------------

#: ``--chaos default``, the acceptance preset: 5% connect refusals, 5%
#: frame faults, jittered 4-attempt retries, two crash/restart cycles
#: and one asymmetric partition episode (tuple k publishes at time k):
#: crashes at 17 and 34, restarts at 23 and 40, the partition 22-29
#: over the first restart's drain.
DEFAULT_PLAN = FaultPlan(
    seed=17,
    max_attempts=4,
    backoff_base=0.02,
    backoff_jitter=0.5,
    crash_every=17.0,
    crash_count=2,
    restart_after=6.0,
    net=NetFaultSpec(
        connect_refusal_probability=0.05,
        frame_fault_probability=0.05,
        partition_at=22.0,
        partition_for=7.0,
    ),
)

#: The ``--chaos`` keys: the plan fields a soak reads, by name.
_NET_KEYS = tuple(f.name for f in fields(NetFaultSpec))
_SPEC_KEYS = (
    "seed", "max_attempts", "backoff_base", "backoff_jitter",
    "crash_every", "crash_count", "restart_after", *_NET_KEYS,
)


def parse_chaos_spec(spec: str) -> FaultPlan:
    """``--chaos`` argument -> the soak's fault plan.

    ``"default"`` (or an empty string) is :data:`DEFAULT_PLAN`;
    comma-separated ``field=value`` pairs override its fields, e.g.
    ``--chaos frame_fault_probability=0.1,crash_count=3,seed=42``.
    """
    plan_values, net_values = {}, {}
    for part in spec.split(",") if spec != "default" else ():
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
        values, record = (
            (net_values, DEFAULT_PLAN.net) if key in _NET_KEYS else (plan_values, DEFAULT_PLAN)
        )
        values[key] = type(getattr(record, key))(raw.strip())
    return replace(DEFAULT_PLAN, **plan_values, net=replace(DEFAULT_PLAN.net, **net_values))
