"""Heartbeat-based failure detection for live peers.

Every peer with health enabled runs one :class:`FailureDetector`: a
periodic task that (a) sends a weightless :class:`~repro.net.frames.
Heartbeat` frame to every peer in its address book and (b) checks how
long ago it last *heard* from each of them.  "Heard" means any of: a
heartbeat frame arrived from that peer, a frame write to that peer
succeeded, or a reconnection probe reached its server.  A peer that has
been silent longer than :data:`SUSPICION_TIMEOUT` — or whose writes failed
:data:`FAILURE_THRESHOLD` times in a row — becomes **suspect**:

* routing stops using it as a forwarding hop (the next-hop rule falls
  back to the successor, exactly like the simulator's
  :class:`~repro.chord.routing.Router` treats a dead finger);
* a probe task starts re-dialing its server with jittered exponential
  backoff (:meth:`~repro.net.cluster.LiveCluster.jittered`) until a
  connect succeeds, at which point the peer is restored and pooled
  connections re-establish lazily on the next write.

Because heartbeats are one-way, an *asymmetric* partition is detected
on exactly the side that matters: if A can no longer reach B, B stops
hearing A's heartbeats and suspects A, while A learns the same from its
own failing writes toward B.

Detection is advisory, never authoritative: a suspect peer's frames are
still retried (a false suspicion costs only a detour through the
successor), and the definitive state — membership, key ownership —
stays with the ring and its stabilization protocol.

A cluster runs detectors when its fault plan faults the wire or churns
the ring (:class:`~repro.net.cluster.LiveCluster`).  The timings below
are tuned for localhost clusters (tens of milliseconds); a WAN
deployment would scale them up together.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional

from .codec import encode_frame
from .frames import Heartbeat
from .link import open_link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .peer import NetPeer

#: Period of the heartbeat/suspicion-check loop.
HEARTBEAT_INTERVAL = 0.05
#: Silence longer than this marks a peer suspect.
SUSPICION_TIMEOUT = 0.3
#: Consecutive write failures that mark a peer suspect immediately.
FAILURE_THRESHOLD = 2
#: First reconnection-probe pause; doubles per failed probe.
PROBE_BACKOFF_BASE = 0.05
#: Ceiling on the probe pause.
PROBE_BACKOFF_MAX = 1.0
#: Per-probe connect timeout.
PROBE_TIMEOUT = 1.0


class FailureDetector:
    """One peer's view of which neighbours are alive.

    Owned by a :class:`~repro.net.peer.NetPeer`; all state transitions
    happen on the event loop, so no locking is needed.
    """

    def __init__(self, peer: "NetPeer"):
        self.peer = peer
        self._loop = asyncio.get_running_loop()
        now = self._loop.time()
        #: ident -> monotonic timestamp of the last sign of life.
        self.last_heard: dict[int, float] = {
            ident: now for ident in peer.book if ident != peer.node.ident
        }
        self._failures: dict[int, int] = {}
        self._suspects: set[int] = set()
        self._probes: dict[int, asyncio.Task] = {}
        self._task: Optional[asyncio.Task] = None
        #: Counters surfaced in reports/tests.
        self.suspicions = 0
        self.recoveries = 0
        self.heartbeats_sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = self._loop.create_task(self._run())

    async def stop(self) -> None:
        tasks = list(self._probes.values())
        if self._task is not None:
            tasks.append(self._task)
            self._task = None
        self._probes.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def note_alive(self, ident: int) -> None:
        """Any proof of life: heartbeat received, write or probe landed."""
        if ident == self.peer.node.ident:
            return
        self.last_heard[ident] = self._loop.time()
        self._failures[ident] = 0
        if ident in self._suspects:
            self._restore(ident)

    def note_failure(self, ident: int) -> None:
        """One failed write/connect toward ``ident``."""
        count = self._failures.get(ident, 0) + 1
        self._failures[ident] = count
        if count >= FAILURE_THRESHOLD:
            self._suspect(ident)

    def is_suspect(self, ident: int) -> bool:
        return ident in self._suspects

    @property
    def suspects(self) -> frozenset[int]:
        return frozenset(self._suspects)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _suspect(self, ident: int) -> None:
        if ident in self._suspects or ident == self.peer.node.ident:
            return
        self._suspects.add(ident)
        self.suspicions += 1
        # Tear the pooled connection down now; it is re-established
        # (against the *current* address-book entry) by the next write
        # after the probe restores the peer.
        self.peer.reset_connection(ident)
        if ident not in self._probes:
            self._probes[ident] = self._loop.create_task(self._probe(ident))

    def _restore(self, ident: int) -> None:
        self._suspects.discard(ident)
        self.recoveries += 1
        probe = self._probes.pop(ident, None)
        if probe is not None and probe is not asyncio.current_task():
            probe.cancel()

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            now = self._loop.time()
            for ident in list(self.peer.book):
                if ident == self.peer.node.ident or ident in self._suspects:
                    continue
                if self.peer.cluster.is_dead(ident):
                    # An announced crash: no point heartbeating; writes
                    # already fail fast and the restart path revives it.
                    continue
                last = self.last_heard.setdefault(ident, now)
                if now - last > SUSPICION_TIMEOUT:
                    self._suspect(ident)
                    continue
                self.peer.post_heartbeat(ident)
                self.heartbeats_sent += 1

    async def _probe(self, ident: int) -> None:
        """Re-dial a suspect until its server answers, then restore it."""
        attempt = 1
        beacon = encode_frame(Heartbeat(sender=self.peer.node.ident))
        while ident in self._suspects:
            pause = min(PROBE_BACKOFF_BASE * (2 ** (attempt - 1)), PROBE_BACKOFF_MAX)
            await asyncio.sleep(self.peer.cluster.jittered(pause))
            info = self.peer.book.get(ident)
            if info is None or self.peer.cluster.is_dead(ident):
                attempt += 1
                continue
            chaos = self.peer.cluster.chaos
            if chaos is not None and chaos.blocked(self.peer.node.ident, ident):
                # Probes honour an injected partition: they model real
                # dials, which a blocked link would also swallow.
                attempt += 1
                continue
            writer = None
            try:
                _, writer = await open_link(info, PROBE_TIMEOUT)
                writer.write(beacon)
                await asyncio.wait_for(writer.drain(), PROBE_TIMEOUT)
            except (OSError, asyncio.TimeoutError):
                attempt += 1
                continue
            finally:
                if writer is not None:
                    writer.close()
            self.note_alive(ident)
            return
