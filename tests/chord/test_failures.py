"""Overlay failure edge cases beyond simple scattered crashes.

Complements ``test_network.py``'s ``TestFailures`` with the scenarios a
fault-injection run can actually produce: the ring shrinking to
nothing, a crash burst wider than a successor list, and a voluntary
departure immediately followed by the failure of the node that absorbed
its keys.
"""

import pytest

from repro import ChordNetwork
from repro.errors import NetworkError


class TestLastNodeFailure:
    def test_fail_last_remaining_node_empties_network(self):
        network = ChordNetwork.build(1)
        only = network.nodes[0]
        network.fail(only)
        assert not only.alive
        assert len(network) == 0

    def test_empty_network_rejects_lookups(self):
        network = ChordNetwork.build(1)
        network.fail(network.nodes[0])
        with pytest.raises(NetworkError):
            network.responsible_node(0)

    def test_join_after_total_loss_restarts_the_ring(self):
        network = ChordNetwork.build(1)
        network.fail(network.nodes[0])
        reborn = network.join("phoenix")
        assert len(network) == 1
        assert reborn.successor is reborn
        assert reborn.owns(0) and reborn.owns(network.space.size - 1)

    def test_shrink_to_one_by_failures(self):
        network = ChordNetwork.build(5)
        survivor = network.nodes[0]
        for node in network.nodes[1:]:
            network.fail(node)
        network.run_stabilization(3, fix_all_fingers=True)
        assert len(network) == 1
        assert survivor.owns(survivor.ident)


class TestSuccessorListWipeout:
    """A crash burst killing a node's *entire* successor list."""

    def test_ring_recovers_via_finger_fallback(self):
        network = ChordNetwork.build(64)
        node = network.nodes[10]
        victims = list(node.successor_list)
        assert len(victims) == node.successor_list_size
        for victim in victims:
            network.fail(victim)
        assert node.successor is node  # the list is momentarily useless
        network.run_stabilization(6, fix_all_fingers=True)
        assert network.ring_is_consistent()

    def test_lookups_correct_after_recovery(self, rng):
        network = ChordNetwork.build(64)
        node = network.nodes[10]
        for victim in list(node.successor_list):
            network.fail(victim)
        network.run_stabilization(6, fix_all_fingers=True)
        for _ in range(50):
            ident = rng.randrange(network.space.size)
            found, _ = network.router.find_successor(node, ident)
            assert found is network.responsible_node(ident)

    def test_two_node_ring_survives_one_failure(self):
        network = ChordNetwork.build(2)
        survivor, victim = network.nodes
        network.fail(victim)
        network.run_stabilization(3, fix_all_fingers=True)
        assert survivor.successor is survivor
        assert survivor.owns(victim.ident)


class TestLeaveThenFailSuccessor:
    """``leave()`` hands keys to the successor — which then crashes."""

    def test_ring_stays_consistent(self):
        network = ChordNetwork.build(32)
        leaver = network.nodes[5]
        heir = leaver.successor
        network.leave(leaver)
        network.fail(heir)
        network.run_stabilization(5, fix_all_fingers=True)
        assert network.ring_is_consistent()

    def test_transferred_keys_are_lost_with_the_heir(self):
        """Keys moved by the voluntary leave die with the failed heir —
        the best-effort semantics the soft-state recovery layer exists
        to paper over."""
        network = ChordNetwork.build(32)
        moved: list[tuple[int, int]] = []
        network.transfer_hook = lambda src, dst: moved.append((src.ident, dst.ident))
        leaver = network.nodes[5]
        heir = leaver.successor
        network.leave(leaver)
        assert moved == [(leaver.ident, heir.ident)]
        network.fail(heir)
        network.run_stabilization(5, fix_all_fingers=True)
        new_owner = network.responsible_node(leaver.ident)
        assert new_owner is not heir and new_owner.alive

    def test_lookup_of_departed_range_lands_on_live_node(self, rng):
        network = ChordNetwork.build(32)
        leaver = network.nodes[5]
        departed_ident = leaver.ident
        heir = leaver.successor
        network.leave(leaver)
        network.fail(heir)
        network.run_stabilization(5, fix_all_fingers=True)
        found, _ = network.router.find_successor(
            network.random_node(rng), departed_ident
        )
        assert found.alive
        assert found is network.responsible_node(departed_ident)


class TestRoutingBesideAnUnrepairedCrash:
    """Between ``fail`` and the next maintenance round the victim's heir
    still points at it as predecessor, so nobody claims its range."""

    def test_recursive_sweep_delivers_where_send_does(self):
        from repro.sim.messages import Message

        network = ChordNetwork.build(8)
        for node in network:
            node.register_handler("message", lambda node, message: None)
        nodes = network.nodes
        victim, heir = nodes[3], nodes[4]
        network.fail(victim)
        assert not heir.owns(victim.ident)
        orphaned = [victim.ident, victim.ident - 1, nodes[6].ident]
        # Nobody owns the head of the sweep: it must still end, at the heir.
        swept = network.router.multisend(nodes[0], Message(), orphaned)
        sent = [network.router.send(nodes[0], Message(), i) for i in orphaned]
        assert swept == sent == [heir, heir, nodes[6]]
