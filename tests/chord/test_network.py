"""Tests for ring construction, lookup correctness and churn."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chord import ChordNetwork
from repro.chord.hashing import hash_key, hash_key_cache_clear, hash_key_cache_info
from repro.chord.node import POINTERS, ChordNode
from repro.chord.routing import Router
from repro.errors import NetworkError
from repro.faults import FaultInjector, FaultPlan


class TestBuild:
    def test_builds_requested_size(self):
        assert len(ChordNetwork.build(17)) == 17

    def test_single_node_ring(self):
        network = ChordNetwork.build(1)
        node = network.nodes[0]
        assert node.successor is node
        assert node.owns(0) and node.owns(network.space.size - 1)

    def test_rejects_empty(self):
        with pytest.raises(NetworkError):
            ChordNetwork.build(0)

    def test_ring_is_consistent(self, small_network):
        assert small_network.ring_is_consistent()

    def test_nodes_sorted_by_identifier(self, small_network):
        idents = [node.ident for node in small_network.nodes]
        assert idents == sorted(idents)

    def test_successors_follow_ring_order(self, tiny_network):
        nodes = tiny_network.nodes
        for position, node in enumerate(nodes):
            assert node.successor is nodes[(position + 1) % len(nodes)]
            assert node.predecessor is nodes[(position - 1) % len(nodes)]

    def test_fingers_point_to_oracle_successors(self, tiny_network):
        for node in tiny_network.nodes:
            for j in range(tiny_network.space.m):
                expected = tiny_network.responsible_node(node.finger_start(j))
                assert node.fingers[j] is expected

    def test_identifier_collisions_resolved_by_salting(self):
        # Tiny identifier space forces collisions.
        network = ChordNetwork.build(200, m=8)
        assert len(network) == 200
        assert len({node.ident for node in network}) == 200


class TestResponsibility:
    def test_responsible_node_matches_half_open_interval(self, tiny_network):
        nodes = tiny_network.nodes
        for position, node in enumerate(nodes):
            predecessor = nodes[(position - 1) % len(nodes)]
            inside = (predecessor.ident + 1) % tiny_network.space.size
            assert tiny_network.responsible_node(inside) is node
            assert tiny_network.responsible_node(node.ident) is node

    def test_wraparound_key_owned_by_first_node(self, tiny_network):
        last = tiny_network.nodes[-1]
        first = tiny_network.nodes[0]
        key = (last.ident + 1) % tiny_network.space.size
        assert tiny_network.responsible_node(key) is first


class TestLookup:
    def test_routed_lookup_agrees_with_oracle(self, small_network, rng):
        for _ in range(300):
            ident = rng.randrange(small_network.space.size)
            start = small_network.random_node(rng)
            found, hops = small_network.router.find_successor(start, ident)
            assert found is small_network.responsible_node(ident)
            assert hops <= small_network.space.m

    def test_lookup_from_responsible_node_is_free(self, small_network):
        node = small_network.nodes[3]
        found, hops = small_network.router.find_successor(node, node.ident)
        assert found is node
        assert hops == 0

    def test_logarithmic_hops(self):
        """Mean lookup cost should be O(log N), far under N."""
        network = ChordNetwork.build(256)
        rng = random.Random(5)
        total = 0
        trials = 200
        for _ in range(trials):
            ident = rng.randrange(network.space.size)
            _, hops = network.router.find_successor(network.random_node(rng), ident)
            total += hops
        assert total / trials < 2 * 8  # 2 * log2(256)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 63))
    def test_property_lookup_correct(self, ident, start_index):
        network = _shared_network()
        start = network.nodes[start_index]
        found, _ = network.router.find_successor(start, ident % network.space.size)
        assert found is network.responsible_node(ident % network.space.size)


_NETWORK_CACHE = {}


def _shared_network():
    if "net" not in _NETWORK_CACHE:
        _NETWORK_CACHE["net"] = ChordNetwork.build(64)
    return _NETWORK_CACHE["net"]


class TestJoin:
    def test_join_grows_network(self, small_network):
        before = len(small_network)
        small_network.join("newcomer")
        assert len(small_network) == before + 1

    def test_join_converges_after_stabilization(self, small_network, rng):
        for index in range(5):
            small_network.join(f"late-{index}")
        small_network.run_stabilization(3, fix_all_fingers=True)
        assert small_network.ring_is_consistent()
        for _ in range(100):
            ident = rng.randrange(small_network.space.size)
            found, _ = small_network.router.find_successor(
                small_network.random_node(rng), ident
            )
            assert found is small_network.responsible_node(ident)

    def test_join_into_empty_network(self):
        network = ChordNetwork(m=16)
        node = network.join("first")
        assert node.successor is node
        assert node.owns(12345)

    def test_join_duplicate_key_salts(self, small_network):
        a = small_network.join("dup")
        b = small_network.join("dup")
        assert a.ident != b.ident


def whole(network: ChordNetwork) -> ChordNetwork:
    """``network`` with every member created: a reference whose object
    walk reads real pointers."""
    network.nodes
    return network


def unset(node: ChordNode, name: str) -> bool:
    """True while ``node`` has never set pointer ``name`` (a plain
    ``getattr`` would set it)."""
    try:
        getattr(ChordNode, name).__get__(node, ChordNode)
    except AttributeError:
        return True
    return False


def assert_exact(network: ChordNetwork, node: ChordNode) -> None:
    """Every pointer of ``node`` is the one global knowledge sets."""
    idents = sorted(network._sorted_idents)
    position = idents.index(node.ident)
    count = len(idents)
    assert node.predecessor.ident == idents[position - 1]
    assert [entry.ident for entry in node.successor_list] == [
        idents[(position + offset) % count]
        for offset in range(1, min(count, node.successor_list_size + 1))
    ]
    assert [finger.ident for finger in node.fingers] == [
        network.responsible_node(node.finger_start(j)).ident
        for j in range(network.space.m)
    ]


#: Everything that creates every member: ``(name, action(network))``.
TRIGGERS = {
    "join": lambda network: network.join("late"),
    "leave": lambda network: network.leave(network.node_at(network._sorted_idents[3])),
    "fail": lambda network: network.fail(network.node_at(network._sorted_idents[3])),
    "injector": lambda network: setattr(network, "injector", FaultInjector(LOSSY)),
    "stabilization": lambda network: network.run_stabilization(1),
    "rebuild": lambda network: network.rebuild_ring_state(),
    "nodes": lambda network: network.nodes,
    "iteration": lambda network: list(network),
}

LOSSY = FaultPlan(loss_probability=0.1, seed=3)


class TestCreateOnFirstTouch:
    """An exact ring is its identifier array: a member is created when
    something asks for it, and answers what a full build's would."""

    def test_build_creates_no_node_and_routes_by_the_snapshot(self):
        network = ChordNetwork.build(24)
        assert not network._nodes and len(network) == 24
        # The snapshot serves a ring none of whose members exists yet.
        assert network.snapshot is not None
        assert ChordNetwork.build(24, fast_routing=True).snapshot.idents == (
            network.snapshot.idents
        )

    def test_touches_create_one_member_each_without_pointers(self, rng):
        network = ChordNetwork.build(40)
        touched = {
            network.random_node(rng).ident,
            network.node_at(network._sorted_idents[7]).ident,
            network.responsible_node(12345).ident,
        }
        source = network.node_at(network._sorted_idents[0])
        target, _ = network.router.find_successor(source, 2**31)
        touched |= {source.ident, target.ident}
        assert set(network._nodes) == touched
        for node in network._nodes.values():
            assert all(unset(node, name) for name in POINTERS)

    def test_a_created_member_owns_exactly_its_range(self, rng):
        """No pointer must not mean "alone on the ring": that member
        would own every identifier and a sweep through it bill 0 hops."""
        network = ChordNetwork.build(40)
        reference = whole(ChordNetwork.build(40))
        for node in [network.random_node(rng) for _ in range(4)]:
            for ident in [node.ident, node.ident + 1, *rng.sample(range(2**32), 50)]:
                owner = reference.responsible_node(ident)
                assert node.owns(ident % 2**32) == (owner.ident == node.ident)
        assert len(network._nodes) <= 8  # 4 members and their predecessors
        for node in list(network._nodes.values()):
            assert_exact(network, node)

    def test_object_walk_over_created_members_is_the_full_builds(self, rng):
        """A ringless router over members created on first touch walks
        the pointers a ring forced whole holds, hop for hop."""
        lazy = ChordNetwork.build(40)
        reference = whole(ChordNetwork.build(40))
        walker = Router(lazy.space)
        for _ in range(60):
            ident = rng.randrange(lazy.space.size)
            start = lazy.random_node(rng)
            found, hops = walker.find_successor(start, ident)
            expected, expected_hops = walker.find_successor(
                reference.node_at(start.ident), ident
            )
            assert found is lazy.responsible_node(ident)
            assert (found.ident, hops) == (expected.ident, expected_hops)

    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    def test_trigger_creates_every_member_with_exact_pointers(self, trigger, rng):
        network = ChordNetwork.build(40)
        handed = [network.random_node(rng) for _ in range(5)]
        handed.append(network.responsible_node(handed[0].ident + 1))
        old = network._sorted_idents[:]
        TRIGGERS[trigger](network)
        assert len(network._nodes) == len(network)
        for node in handed:
            if node.alive:
                assert network.node_at(node.ident) is node
        if trigger in ("join", "leave", "fail"):
            # Set exactly for the membership before the change, which
            # moves only the ring pointers next to it.
            reference = whole(ChordNetwork.build(40))
            for ident in old:
                if ident in network._nodes:
                    assert [f.ident for f in network.node_at(ident).fingers] == [
                        f.ident for f in reference.node_at(ident).fingers
                    ]
        else:
            assert network.ring_is_consistent()
            for node in network.nodes:
                assert_exact(network, node)

    def test_join_on_lazy_ring_materializes_exact_fingers(self, rng):
        network = ChordNetwork.build(24)
        exact = whole(ChordNetwork.build(24))
        newcomer = network.join("late")
        assert len(newcomer.fingers) == network.space.m
        # Created before the newcomer registered: every old node holds
        # the exact fingers of the old membership.
        for node in exact:
            assert [f.ident for f in network.node_at(node.ident).fingers] == [
                f.ident for f in node.fingers
            ]
        network.run_stabilization(3, fix_all_fingers=True)
        assert network.ring_is_consistent()
        for _ in range(50):
            ident = rng.randrange(network.space.size)
            found, _ = network.router.find_successor(network.random_node(rng), ident)
            assert found is network.responsible_node(ident)

    def test_maintenance_round_on_lazy_ring_materializes_first(self):
        network = ChordNetwork.build(16)
        network.run_stabilization(1)
        for node in network:
            assert [f.ident for f in node.fingers] == [
                network.responsible_node(node.finger_start(j)).ident
                for j in range(network.space.m)
            ]

    def test_member_keys_are_hashed_once_outside_the_memo(self):
        hash_key_cache_clear()
        network = ChordNetwork.build(2_000)
        assert hash_key_cache_info().currsize == 0
        modulus = network.space.size
        for node in network.nodes:
            assert node.ident == hash_key(node.key) % modulus
        hash_key_cache_clear()
        network.join("late")
        assert hash_key_cache_info().currsize == 0


class TestLeave:
    def test_leave_shrinks_network(self, small_network):
        victim = small_network.nodes[5]
        small_network.leave(victim)
        assert len(small_network) == 63
        assert not victim.alive

    def test_leave_fixes_neighbours(self, tiny_network):
        nodes = tiny_network.nodes
        victim = nodes[3]
        tiny_network.leave(victim)
        assert nodes[2].successor is nodes[4]
        assert nodes[4].predecessor is nodes[2]

    def test_leave_unknown_node_raises(self, small_network):
        stranger = ChordNetwork.build(2).nodes[0]
        with pytest.raises(NetworkError):
            small_network.leave(stranger)

    def test_leave_last_node(self):
        network = ChordNetwork(m=16)
        node = network.join("only")
        network.leave(node)
        assert len(network) == 0

    def test_routing_correct_after_leaves(self, small_network, rng):
        for _ in range(8):
            small_network.leave(small_network.random_node(rng))
        small_network.run_stabilization(3, fix_all_fingers=True)
        for _ in range(100):
            ident = rng.randrange(small_network.space.size)
            found, _ = small_network.router.find_successor(
                small_network.random_node(rng), ident
            )
            assert found is small_network.responsible_node(ident)


class TestFailures:
    def test_failures_survived_via_successor_lists(self, small_network, rng):
        victims = {small_network.random_node(rng) for _ in range(6)}
        for victim in victims:
            small_network.fail(victim)
        small_network.run_stabilization(5, fix_all_fingers=True)
        assert small_network.ring_is_consistent()
        for _ in range(100):
            ident = rng.randrange(small_network.space.size)
            found, _ = small_network.router.find_successor(
                small_network.random_node(rng), ident
            )
            assert found is small_network.responsible_node(ident)

    def test_fail_marks_dead(self, small_network):
        victim = small_network.nodes[0]
        small_network.fail(victim)
        assert not victim.alive

    def test_mixed_churn(self, small_network, rng):
        """Interleaved joins/leaves/failures converge."""
        for round_index in range(4):
            small_network.join(f"j{round_index}")
            small_network.leave(small_network.random_node(rng))
            small_network.fail(small_network.random_node(rng))
            small_network.run_stabilization(3, fix_all_fingers=True)
        assert small_network.ring_is_consistent()


class TestTransferHook:
    def test_called_on_join_with_owner(self, tiny_network):
        calls = []
        tiny_network.transfer_hook = lambda src, dst: calls.append((src, dst))
        newcomer = tiny_network.join("x")
        assert len(calls) == 1
        source, target = calls[0]
        assert target is newcomer
        assert target.owns(target.ident)

    def test_called_on_leave_with_successor_owning_range(self, tiny_network):
        calls = []
        tiny_network.transfer_hook = lambda src, dst: calls.append((src, dst))
        victim = tiny_network.nodes[2]
        victim_ident = victim.ident
        tiny_network.leave(victim)
        (source, target), = calls
        assert source is victim
        assert target.owns(victim_ident)
