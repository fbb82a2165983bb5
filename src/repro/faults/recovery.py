"""Crash/recovery choreography for chaos experiments.

:class:`ChaosHarness` bundles the steps every chaos run repeats —
crash a node, let stabilization repair the ring, refresh the soft-state
leases so the re-mapped responsible nodes re-acquire the queries and
value-level entries the crash destroyed, and flush delayed messages —
behind a tiny API used by the chaos tests and examples.

The recovery model (see DESIGN.md, "Failure model & recovery"):

* **Queries are leases.**  The subscriber keeps every query it posed
  (it already must, to recognise notifications) and periodically
  re-installs it.  Installation is idempotent: rewriters deduplicate by
  ``(query key, index side, routing identifier)``, so refreshing a
  healthy ring only confirms state that is already there.
* **Tuples are republished within the window.**  Value-level state is
  derived from published tuples, so republishing the (windowed) tuple
  log re-creates exactly the lost VLTT/VLQT/projection entries.
  Republication messages carry a ``refresh`` flag so rewriters bypass
  the DAI-T never-resend memory and skip arrival-rate accounting, and
  evaluators drop tuples they already store.
* **Notifications deduplicate at the subscriber.**  Re-created answers
  whose ``(query, join value, row)`` identity was already delivered are
  suppressed against the engine's delivered-identity sets, so recovery
  never produces duplicate notifications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .injector import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from ..core.engine import ContinuousQueryEngine


class ChaosHarness:
    """Drive crashes and recovery over one engine + injector pair."""

    def __init__(
        self,
        engine: "ContinuousQueryEngine",
        injector: FaultInjector | None = None,
        protect: Iterable[int] = (),
    ):
        self.engine = engine
        self.network = engine.network
        self.injector = injector if injector is not None else FaultInjector()
        if self.network.injector is None:
            self.network.injector = self.injector
        #: Identifiers never chosen as crash victims (e.g. subscribers).
        self.protected: set[int] = set(protect)
        #: Keys of crashed nodes, oldest first (restart order).
        self.crashed_keys: list[str] = []

    # ------------------------------------------------------------------
    def protect(self, node: "ChordNode") -> None:
        """Exempt ``node`` from random crash selection."""
        self.protected.add(node.ident)

    def choose_victim(self, rng=None) -> Optional["ChordNode"]:
        """A random live, unprotected crash candidate (or ``None``).

        Uses the injector's RNG unless ``rng`` is given — the live
        chaos controller passes its own seeded stream so victim
        selection stays deterministic even though wire-level fault
        draws happen in event-loop order.
        """
        victims = [
            n for n in self.network.nodes if n.ident not in self.protected
        ]
        if len(self.network) <= 1 or not victims:
            return None
        chooser = rng if rng is not None else self.injector.rng
        return victims[chooser.randrange(len(victims))]

    def crash(self, node: Optional["ChordNode"] = None) -> Optional["ChordNode"]:
        """Crash ``node`` (or a random unprotected victim); repair ring.

        Returns the victim, or ``None`` when no node may be crashed
        (everything is protected or the ring would become empty).

        This is the *ring-side* half of a crash (membership, finger
        repair, key-range inheritance); over the live transport,
        :class:`repro.net.chaos.ChaosController` pairs it with the
        socket-side half — aborting the victim's
        :class:`~repro.net.peer.NetPeer` and settling the in-flight
        deliveries its crash destroys.
        """
        if node is None:
            node = self.choose_victim()
            if node is None:
                return None
        self.network.fail(node)
        self.injector.crashes += 1
        self.crashed_keys.append(node.key)
        self.network.run_stabilization(2, fix_all_fingers=True)
        return node

    def restart(self, key: str | None = None) -> Optional["ChordNode"]:
        """Rejoin the oldest crashed node (or ``key``) under its old key."""
        if key is None:
            if not self.crashed_keys:
                return None
            key = self.crashed_keys.pop(0)
        elif key in self.crashed_keys:
            self.crashed_keys.remove(key)
        node = self.network.join(key)
        self.engine.adopt(node)
        self.injector.restarts += 1
        self.network.run_stabilization(1, fix_all_fingers=True)
        return node

    def restart_all(self) -> list["ChordNode"]:
        """Rejoin every crashed node, oldest first; returns the rejoiners."""
        restarted = []
        while self.crashed_keys:
            node = self.restart()
            if node is None:  # pragma: no cover - defensive
                break
            restarted.append(node)
        return restarted

    # ------------------------------------------------------------------
    def settle(self, *, stabilization_rounds: int = 2) -> dict[str, int]:
        """Repair, recover and drain until the system is quiescent.

        Flushes in-flight delayed messages, runs stabilization, then
        refreshes every lease (query re-install + windowed
        republication) with delays quiesced — the replay must land in
        publication order to deterministically re-create every lost
        pair; drops remain active and are absorbed by the router's
        retries.  After ``settle()`` the delivered answer sets equal
        the ground truth a centralized oracle computes over the same
        workload.
        """
        self.injector.flush_deferred()
        self.network.run_stabilization(stabilization_rounds, fix_all_fingers=True)
        with self.injector.quiesce():
            refreshed = self.engine.refresh_leases()
            self.injector.flush_deferred()
        return refreshed
