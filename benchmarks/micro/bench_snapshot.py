"""Hot path 6: ring-snapshot lookups vs per-hop object walks.

The large-scale path (DESIGN.md §14) replaces ``find_successor``'s
node-by-node finger walk with closed-form bisect resolution over a
:class:`~repro.chord.snapshot.RingSnapshot`.  Both variants run over the
identical ring and lookup set, so the speedup is directly visible; the
hop counts are asserted equal (the Hypothesis differential test covers
the full equivalence).  The object-walk side is a ``Router`` with no
ring over the ring created whole (``network.nodes``), so it walks real
pointers: the network's own router is on the snapshot while the ring is
exact.

Two more rows time the snapshot router where joinbench's ``sim_route``
runs it — a 20k-node ring whose members are created on first touch: one ``find_successor`` (a
single routed leg) and one 8-target recursive ``multisend`` sweep, so
the cost per leg of the sweep can be read against the cost of a lone
lookup.  The last pair counts one ``sim_route`` epoch of sweep legs
(about 5,600, as at a staged barrier) both ways: the scalar
``route_hops`` per leg, and the batched ``route_hops_many`` the staged
executor bills them with; the hop totals are asserted equal.
"""

from __future__ import annotations

import random
import time

from repro.chord.network import ChordNetwork
from repro.chord.routing import Router
from repro.sim.messages import Message

from _common import best_of, report

SWEEP_TARGETS = 8

#: Legs one staged ``sim_route`` epoch routes (512 events; the largest
#: barrier flush of its four algorithms at seed 1).
EPOCH_LEGS = 5_600


def run(n_nodes: int = 4096, lookups: int = 5_000) -> list[dict]:
    rng = random.Random(13)
    network = ChordNetwork.build(n_nodes)
    network.nodes  # every member created: the object walk reads real pointers
    snapshot = network.snapshot
    targets = [rng.randrange(network.space.size) for _ in range(lookups)]
    sources = [network.random_node(rng) for _ in range(lookups)]
    router = Router(network.space)
    rows = []

    start = time.perf_counter()
    snapshot_hops = 0
    for source, target in zip(sources, targets):
        _, cost = snapshot.find_successor(source.ident, target)
        snapshot_hops += cost
    elapsed = time.perf_counter() - start
    rows.append(
        report(
            "snapshot.bisect_lookup",
            elapsed / lookups * 1e9,
            n_nodes=n_nodes,
            mean_hops=round(snapshot_hops / lookups, 2),
        )
    )

    start = time.perf_counter()
    walk_hops = 0
    for source, target in zip(sources, targets):
        _, cost = router.find_successor(source, target)
        walk_hops += cost
    elapsed = time.perf_counter() - start
    if walk_hops != snapshot_hops:
        raise AssertionError(
            f"snapshot/object hop divergence: {snapshot_hops} != {walk_hops}"
        )
    rows.append(
        report(
            "snapshot.object_walk_reference",
            elapsed / lookups * 1e9,
            n_nodes=n_nodes,
            mean_hops=round(walk_hops / lookups, 2),
        )
    )
    rows.extend(run_large_ring())
    return rows


def run_large_ring(n_nodes: int = 20_000, walks: int = 5_000) -> list[dict]:
    """One lookup and one 8-target sweep on the ``sim_route`` ring."""
    rng = random.Random(13)
    network = ChordNetwork.build(n_nodes)
    snapshot = network.snapshot
    size = network.space.size
    sources = [network.random_node(rng) for _ in range(walks)]
    targets = [rng.randrange(size) for _ in range(walks)]

    start = time.perf_counter()
    hops = 0
    for source, target in zip(sources, targets):
        hops += snapshot.find_successor(source.ident, target)[1]
    elapsed = time.perf_counter() - start
    rows = [
        report(
            "snapshot.lookup_20k",
            elapsed / walks * 1e9,
            n_nodes=n_nodes,
            mean_hops=round(hops / walks, 2),
        )
    ]

    network.adopt_hook = lambda node: node.register_handler(
        "message", lambda node, message: None
    )
    sweeps = walks // SWEEP_TARGETS
    batches = [
        [rng.randrange(size) for _ in range(SWEEP_TARGETS)] for _ in range(sweeps)
    ]
    probe = Message()
    router = network.router
    before = network.stats.hops
    start = time.perf_counter()
    for source, batch in zip(sources, batches):
        router.multisend(source, probe, batch)
    elapsed = time.perf_counter() - start
    rows.append(
        report(
            f"snapshot.sweep{SWEEP_TARGETS}_20k",
            elapsed / sweeps * 1e9,
            n_nodes=n_nodes,
            ns_per_leg=round(elapsed / (sweeps * SWEEP_TARGETS) * 1e9, 1),
            mean_hops=round((network.stats.hops - before) / sweeps, 2),
        )
    )
    rows.extend(run_epoch_legs(snapshot, rng))
    return rows


def run_epoch_legs(snapshot, rng: random.Random) -> list[dict]:
    """One epoch of sweep legs, scalar ``route_hops`` vs the kernel."""
    starts, owners = [], []
    while len(owners) < EPOCH_LEGS:
        rank = rng.randrange(snapshot.n)
        origin = snapshot.idents[rank]
        batch = [rng.randrange(snapshot.size) for _ in range(SWEEP_TARGETS)]
        for target in sorted(batch, key=lambda ident: (ident - origin) % snapshot.size):
            starts.append(rank)
            rank = snapshot.owner_pos(target)
            owners.append(rank)
    snapshot.route_hops_many(starts[:1], owners[:1])  # builds the int64 idents

    def scalar():
        return sum(map(snapshot.route_hops, starts, owners))

    def batched():
        return int(snapshot.route_hops_many(starts, owners).sum())

    if scalar() != batched():
        raise AssertionError("kernel/scalar hop divergence over one epoch")
    hops = scalar()
    legs = len(owners)
    return [
        report(
            f"snapshot.epoch_legs_{name}",
            best_of(fn, loops=1, repeats=5) / legs,
            legs=legs,
            mean_hops=round(hops / legs, 2),
        )
        for name, fn in (("scalar", scalar), ("kernel", batched))
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
