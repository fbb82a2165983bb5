"""Tests for ring construction, lookup correctness and churn."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chord import ChordNetwork
from repro.chord.node import NO_FINGERS
from repro.chord.routing import Router
from repro.errors import NetworkError


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


class TestDeferredFingers:
    """``build(fast_routing=True)`` defers the finger tables — and their
    allocation: every node shares one empty placeholder until a
    membership change or a maintenance round needs real tables."""

    def test_lazy_ring_allocates_no_finger_tables(self):
        network = ChordNetwork.build(24, fast_routing=True)
        assert all(node.fingers is NO_FINGERS for node in network)
        eager = ChordNetwork.build(24)
        assert all(len(node.fingers) == eager.space.m for node in eager)

    def test_object_walk_on_lazy_ring_is_the_successor_list_walk(self, rng):
        """Hop for hop what a ring of all-``None`` finger tables does."""
        lazy = ChordNetwork.build(40, fast_routing=True)
        blank = ChordNetwork.build(40)
        for node in blank:
            node.fingers = [None] * blank.space.m
        # Ringless routers: the object walk, fingers still deferred.
        walker = Router(lazy.space)
        for _ in range(60):
            ident = rng.randrange(lazy.space.size)
            start = lazy.random_node(rng)
            found, hops = walker.find_successor(start, ident)
            expected, expected_hops = walker.find_successor(
                blank.node_at(start.ident), ident
            )
            assert found is lazy.responsible_node(ident)
            assert (found.ident, hops) == (expected.ident, expected_hops)
        assert all(node.fingers is NO_FINGERS for node in lazy)

    def test_join_on_lazy_ring_materializes_exact_fingers(self, rng):
        network = ChordNetwork.build(24, fast_routing=True)
        exact = ChordNetwork.build(24)  # same keys, fingers built eagerly
        newcomer = network.join("late")
        assert len(newcomer.fingers) == network.space.m
        # Materialized before the newcomer registered: every old node
        # holds the exact fingers of the old membership.
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
        network = ChordNetwork.build(16, fast_routing=True)
        network.run_stabilization(1)
        for node in network:
            assert [f.ident for f in node.fingers] == [
                network.responsible_node(node.finger_start(j)).ident
                for j in range(network.space.m)
            ]


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
