"""Tests for send/multisend routing (paper Section 2.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chord import ChordNetwork
from repro.errors import RoutingError
from repro.sim.messages import Message
from repro.chord.routing import Router, multisend_cost


class Recorder:
    """Collects deliveries per node for assertions."""

    def __init__(self, network):
        self.received = []
        for node in network:
            node.register_handler(
                "message", lambda n, m: self.received.append((n.ident, m))
            )


class TestSend:
    def test_delivers_to_successor(self, small_network, rng):
        recorder = Recorder(small_network)
        for _ in range(50):
            ident = rng.randrange(small_network.space.size)
            source = small_network.random_node(rng)
            target = small_network.router.send(source, Message(), ident)
            assert target is small_network.responsible_node(ident)
        assert len(recorder.received) == 50

    def test_records_traffic(self, small_network, rng):
        Recorder(small_network)
        before = small_network.stats.messages
        small_network.router.send(small_network.random_node(rng), Message(), 12345)
        assert small_network.stats.messages == before + 1
        assert small_network.stats.messages_by_type["message"] >= 1

    def test_send_direct_costs_one_hop(self, small_network):
        Recorder(small_network)
        a, b = small_network.nodes[0], small_network.nodes[1]
        before = small_network.stats.hops
        small_network.router.send_direct(a, Message(), b)
        assert small_network.stats.hops == before + 1

    def test_send_direct_to_self_is_free(self, small_network):
        Recorder(small_network)
        node = small_network.nodes[0]
        before = small_network.stats.hops
        small_network.router.send_direct(node, Message(), node)
        assert small_network.stats.hops == before

    def test_lookup_accounts_hops_to_named_bucket(self, small_network, rng):
        small_network.router.lookup(
            small_network.random_node(rng), 999, account="rate-probe"
        )
        assert "rate-probe" in small_network.stats.hops_by_type


class TestMultisend:
    @pytest.mark.parametrize("recursive", [True, False])
    def test_reaches_all_recipients(self, small_network, rng, recursive):
        recorder = Recorder(small_network)
        source = small_network.random_node(rng)
        idents = [rng.randrange(small_network.space.size) for _ in range(20)]
        targets = small_network.router.multisend(
            source, Message(), idents, recursive=recursive
        )
        assert len(recorder.received) == 20
        for ident, target in zip(idents, targets):
            assert target is small_network.responsible_node(ident)

    def test_recursive_and_iterative_reach_same_nodes(self, small_network, rng):
        source = small_network.random_node(rng)
        idents = [rng.randrange(small_network.space.size) for _ in range(32)]
        Recorder(small_network)
        recursive = small_network.router.multisend(
            source, Message(), idents, recursive=True
        )
        iterative = small_network.router.multisend(
            source, Message(), idents, recursive=False
        )
        assert [n.ident for n in recursive] == [n.ident for n in iterative]

    def test_recursive_cheaper_than_iterative(self, small_network, rng):
        source = small_network.random_node(rng)
        idents = [rng.randrange(small_network.space.size) for _ in range(64)]
        iterative = multisend_cost(
            small_network.router, source, idents, recursive=False
        )
        recursive = multisend_cost(
            small_network.router, source, idents, recursive=True
        )
        assert recursive < iterative

    def test_distinct_messages_per_identifier(self, small_network, rng):
        """The multisend(M, L) form pairs message j with identifier j."""

        class Tagged(Message):
            def __init__(self, tag):
                object.__setattr__(self, "tag", tag)

        received = {}
        for node in small_network:
            node.register_handler(
                "message", lambda n, m: received.setdefault(m.tag, n.ident)
            )
        source = small_network.random_node(rng)
        idents = [rng.randrange(small_network.space.size) for _ in range(10)]
        messages = [Tagged(i) for i in range(10)]
        small_network.router.multisend(source, messages, idents, recursive=True)
        for tag, ident in enumerate(idents):
            assert received[tag] == small_network.responsible_node(ident).ident

    def test_mismatched_lengths_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.router.multisend(
                small_network.nodes[0], [Message()], [1, 2]
            )

    def test_empty_list_is_noop(self, small_network):
        assert small_network.router.multisend(small_network.nodes[0], Message(), []) == []

    def test_duplicate_identifiers_each_delivered(self, small_network, rng):
        recorder = Recorder(small_network)
        source = small_network.random_node(rng)
        ident = rng.randrange(small_network.space.size)
        small_network.router.multisend(source, Message(), [ident, ident, ident])
        assert len(recorder.received) == 3

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=24))
    def test_property_recursive_matches_oracle(self, idents):
        network = _shared()
        Recorder(network)
        source = network.nodes[7]
        wrapped = [i % network.space.size for i in idents]
        targets = network.router.multisend(source, Message(), wrapped, recursive=True)
        for ident, target in zip(wrapped, targets):
            assert target is network.responsible_node(ident)


_CACHE = {}


def _shared():
    if "net" not in _CACHE:
        _CACHE["net"] = ChordNetwork.build(48)
    return _CACHE["net"]


class TestRoutingRobustness:
    def test_gives_up_when_hop_limit_exceeded(self):
        """Finger-less successor walking past the hop budget must fail
        loudly instead of walking the whole ring."""
        network = ChordNetwork.build(200, m=8)  # max_hops = 4*8 + 8 = 40
        for node in network:
            node.fingers = [None] * network.space.m
        nodes = network.nodes
        start = nodes[0]
        # The node just behind the start is a near-full ring walk away;
        # even skipping 4 nodes per hop via successor lists that is
        # ~50 hops, beyond the 40-hop budget.
        far = nodes[-2].ident
        # A ringless router is the object walk: blanking the tables by
        # hand does not tell the network its ring stopped being exact.
        walker = Router(network.space)
        with pytest.raises(RoutingError):
            walker.find_successor(start, far)

    def test_routes_around_dead_finger(self, small_network, rng):
        """A stale (dead) finger entry must not break routing."""
        victim = small_network.nodes[10]
        small_network.fail(victim)
        # Deliberately do NOT fix fingers: other nodes still point at it.
        for _ in range(100):
            ident = rng.randrange(small_network.space.size)
            found, _ = small_network.router.find_successor(
                small_network.random_node(rng), ident
            )
            assert found.alive
