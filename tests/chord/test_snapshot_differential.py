"""Property-based differential check: RingSnapshot ≡ the object ring.

The large-scale fast path (DESIGN.md §14) rests on one claim: bisect
arithmetic over the sorted identifier array reproduces the object
ring's routing *exactly* — same successor, same forwarding choice at
every node, same hop counts.  Hypothesis drives random memberships,
and wrap-around targets through both implementations side by side; any
divergence is a routing bug, not a tolerance issue.  The object side is
a ``Router`` with no ring, which keeps the object walk on any ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings, strategies as st

from repro.chord.network import ChordNetwork
from repro.chord.node import ChordNode
from repro.chord.routing import Router
from repro.chord.snapshot import RingSnapshot
from repro.errors import RoutingError
from repro.sim.messages import Message

#: Cached exact rings per size: examples only ever *read* them, and
#: building the ring (not checking it) dominates each example.
_RINGS: dict[int, ChordNetwork] = {}


def ring_of(n_nodes: int) -> ChordNetwork:
    network = _RINGS.get(n_nodes)
    if network is None:
        network = ChordNetwork.build(n_nodes)
        _RINGS[n_nodes] = network
    return network


def snapshot_of(network: ChordNetwork) -> RingSnapshot:
    snapshot = network.snapshot
    assert snapshot is not None
    return snapshot


def object_walk(network: ChordNetwork) -> Router:
    """The reference side: ringless, billing to the network's stats."""
    return Router(network.space, network.stats)


@st.composite
def ring_and_targets(draw):
    """A ring size plus targets biased toward ownership boundaries."""
    n_nodes = draw(st.integers(min_value=1, max_value=24))
    network = ring_of(n_nodes)
    idents = snapshot_of(network).idents
    size = network.space.size
    boundary = st.builds(
        lambda ident, offset: (ident + offset) % size,
        st.sampled_from(idents),
        st.integers(min_value=-2, max_value=2),
    )
    anywhere = st.integers(min_value=0, max_value=size - 1)
    targets = draw(
        st.lists(st.one_of(boundary, anywhere), min_size=1, max_size=8)
    )
    source = idents[draw(st.integers(min_value=0, max_value=n_nodes - 1))]
    return n_nodes, source, targets


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_successor_matches_global_oracle(case):
    n_nodes, _, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    for target in targets:
        expected = network._oracle_successor(target).ident
        assert snapshot.successor_ident(target) == expected
        assert snapshot.owner_pos(target) == snapshot.position(expected)


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_closest_preceding_finger_matches_object_scan(case):
    n_nodes, source, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    node = network._nodes[source]
    pos = snapshot.position(source)
    for target in targets:
        expected = node.closest_preceding_finger(target).ident
        got = snapshot.idents[snapshot.closest_preceding_finger_pos(pos, target)]
        assert got == expected, (
            f"cpf({source}, {target}) diverged: snapshot {got}, object {expected}"
        )


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_find_successor_and_walk_match_hop_for_hop(case):
    n_nodes, source, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    router = object_walk(network)
    node = network._nodes[source]
    for target in targets:
        expected_node, expected_hops = router.find_successor(node, target)
        got_pos, got_hops = snapshot.find_successor(source, target)
        assert snapshot.idents[got_pos] == expected_node.ident
        assert got_hops == expected_hops
        walk_node, walk_hops = router._walk(node, target)
        got_pos, got_hops = snapshot.walk(source, target)
        assert snapshot.idents[got_pos] == walk_node.ident
        assert got_hops == walk_hops


# ----------------------------------------------------------------------
# Rank-space routing: hand-placed rings and the multisend sweep
# ----------------------------------------------------------------------
def ring_with(idents, m: int = 8, successor_list_size: int = 4) -> ChordNetwork:
    """An exact ring with exactly these identifiers."""
    network = ChordNetwork(m=m, successor_list_size=successor_list_size)
    for ident in idents:
        network._nodes[ident] = ChordNode(
            f"n{ident}", ident, network.space, successor_list_size=successor_list_size
        )
    network._sorted_idents = sorted(idents)
    network._membership_generation += 1
    network.rebuild_ring_state()
    return network


def assert_routes_match(network: ChordNetwork, source: int, target: int) -> int:
    """Snapshot ≡ object walk from ``source`` toward ``target``: next
    hop, owner and hop count of both loops.  Returns the hop count."""
    snapshot = snapshot_of(network)
    node = network._nodes[source]
    pos = snapshot.position(source)
    assert (
        snapshot.idents[snapshot.closest_preceding_finger_pos(pos, target)]
        == node.closest_preceding_finger(target).ident
    )
    router = object_walk(network)
    expected_node, expected_hops = router.find_successor(node, target)
    walk_node, walk_hops = router._walk(node, target)
    assert walk_node is expected_node and walk_hops == expected_hops
    owner, hops = snapshot.find_successor(source, target)
    assert (snapshot.idents[owner], hops) == (expected_node.ident, expected_hops)
    assert snapshot.walk(source, target) == (owner, hops)
    return hops


@pytest.mark.parametrize("idents", [[9], [9, 40], [3, 9, 40], [0, 9, 40, 255]])
def test_every_source_and_target_on_tiny_rings(idents):
    """n = 1, 2, 3 and a ring holding both ends of the identifier
    space: every (source, target) pair, so each wrap-around shape —
    target owned by rank 0 from either side of zero, source at rank
    ``n - 1``, target equal to a member, equal to the source — occurs."""
    network = ring_with(idents)
    for source in idents:
        for target in range(network.space.size):
            assert_routes_match(network, source, target)


def test_wrap_around_cases_by_name():
    idents = [5, 17, 30, 44, 58]
    network = ring_with(idents)
    snapshot = snapshot_of(network)
    # Owned by rank 0 from both sides of zero.
    assert snapshot.owner_pos(61) == snapshot.owner_pos(2) == 0
    assert assert_routes_match(network, 17, 61) == assert_routes_match(network, 17, 2)
    # Source at rank n - 1: its successor is rank 0.
    assert assert_routes_match(network, 58, 3) == 1
    assert assert_routes_match(network, 58, 10) == 2
    # Target equal to a member / to the source / just past the source.
    assert assert_routes_match(network, 5, 44) >= 1
    assert assert_routes_match(network, 30, 30) == 0
    assert assert_routes_match(network, 30, 31) == 1


def test_successor_list_reach_beats_the_finger():
    """From 0 toward 14 the best finger is 10 (start 8) but the
    successor list reaches 13, the last member before the target."""
    network = ring_with([0, 10, 11, 12, 13, 40])
    snapshot = snapshot_of(network)
    assert snapshot.idents[snapshot.closest_preceding_finger_pos(0, 14)] == 13
    assert assert_routes_match(network, 0, 14) == 2
    # A shorter list loses its reach: r = 2 ends at 11.
    network = ring_with([0, 10, 11, 12, 13, 40], successor_list_size=2)
    snapshot = snapshot_of(network)
    assert snapshot.idents[snapshot.closest_preceding_finger_pos(0, 14)] == 11
    assert_routes_match(network, 0, 14)


def test_finger_and_successor_list_tie_is_one_node():
    """From 0 toward 6: finger start 4 and list entry 4 are both node
    4 — the object scan keeps the finger, rank space cannot tell."""
    network = ring_with([0, 1, 2, 3, 4, 5, 40])
    snapshot = snapshot_of(network)
    assert snapshot.idents[snapshot.closest_preceding_finger_pos(0, 6)] == 4
    assert assert_routes_match(network, 0, 6) == 3  # 0 -> 4 -> 5 -> 40


def test_inconsistent_snapshot_hits_the_hop_bound():
    """A membership array that was never sorted: bisect answers are
    garbage, the walk never lands on the owner's predecessor, and the
    ``4 m + 8`` bound stops it instead of looping or answering."""
    snapshot = RingSnapshot(list(range(200, 0, -1)), m=8, successor_list_size=1)
    assert snapshot.max_hops == 40
    with pytest.raises(RoutingError, match="exceeded 40 hops"):
        snapshot.find_successor(100, 50)
    with pytest.raises(RoutingError, match="ring snapshot is inconsistent"):
        snapshot.walk(150, 149)


@dataclass(frozen=True, slots=True)
class _Red(Message):
    type: ClassVar[str] = "red"
    tag: int


@dataclass(frozen=True, slots=True)
class _Blue(Message):
    type: ClassVar[str] = "blue"
    tag: int


#: Dense rings (256 identifiers, the smallest space the hash allows) so
#: several targets share an owner and most sweeps wrap past zero.
_DENSE: dict[int, ChordNetwork] = {}


def dense_ring(n_nodes: int) -> ChordNetwork:
    network = _DENSE.get(n_nodes)
    if network is None:
        network = ChordNetwork.build(n_nodes, m=8)
        _DENSE[n_nodes] = network
    return network


@settings(max_examples=300, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=20),
    source_rank=st.integers(min_value=0, max_value=19),
    targets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1,
        max_size=10,
    ),
    repeat=st.integers(min_value=0, max_value=3),
)
def test_fast_sweep_matches_object_sweep(n_nodes, source_rank, targets, repeat):
    """``_multisend_recursive_fast`` ≡ ``_multisend_recursive``:
    recipients per input position, global delivery order (duplicate
    identifiers included) and ``TrafficStats`` per message type."""
    network = dense_ring(n_nodes)
    source = network.nodes[source_rank % n_nodes]
    targets = targets + targets[:repeat]  # guaranteed duplicate identifiers
    idents = [ident for ident, _ in targets]
    messages = [
        (_Red if red else _Blue)(tag) for tag, (_, red) in enumerate(targets)
    ]
    deliveries: list[tuple[int, int]] = []
    for node in network:
        for kind in ("red", "blue"):
            node.register_handler(
                kind, lambda n, message: deliveries.append((n.ident, message.tag))
            )
    assert network.snapshot is not None
    outcomes = []
    for router in (network.router, object_walk(network)):
        before = network.stats.snapshot()
        del deliveries[:]
        recipients = router.multisend(source, messages, idents)
        delta = network.stats.since(before)
        outcomes.append(
            (
                [node.ident for node in recipients],
                list(deliveries),
                delta.hops,
                delta.messages,
                delta.hops_by_type,
                delta.messages_by_type,
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [network.responsible_node(i).ident for i in idents]
