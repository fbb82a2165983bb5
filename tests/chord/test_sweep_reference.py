"""The one recursive sweep ≡ the object-walk sweep it replaced, on churned rings.

``Router._multisend_recursive`` is one loop of ordinary
``find_successor`` legs.  Its predecessor walked the ring with a private
``_walk`` and a cursor over the clockwise-sorted identifiers; that body
lives on as :class:`~tests.chord.reference_sweep.ReferenceSweepRouter`.
Hypothesis drives both over rings after ``join`` / ``leave`` / ``fail``
and 0..k ``run_stabilization`` rounds — with duplicate identifiers, and
with a crash stabilization has not repaired yet — and demands the same
recipients per input position (or the same error), the same global
delivery order and the same ``TrafficStats`` per message type.  An
exact ring (no churn) runs the shipped sweep on the snapshot, so that
view is pinned against the reference too.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import ChordNetwork
from repro.chord.idspace import IdentifierSpace
from repro.errors import DeliveryError, RoutingError

from .reference_sweep import ReferenceSweepRouter, sort_clockwise
from .test_snapshot_differential import _Blue, _Red


def sweep(router, source, idents, messages, deliveries) -> tuple:
    before = router.stats.snapshot()
    del deliveries[:]
    try:
        outcome = [node.ident for node in router.multisend(source, messages, idents)]
    except (RoutingError, DeliveryError) as error:
        outcome = type(error).__name__
    delta = router.stats.since(before)
    return (
        outcome,
        list(deliveries),
        delta.hops,
        delta.messages,
        delta.hops_by_type,
        delta.messages_by_type,
    )


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=16),
    churn=st.lists(
        st.tuples(st.sampled_from(["join", "leave", "fail"]), st.integers(0, 63)),
        max_size=4,
    ),
    rounds=st.integers(min_value=0, max_value=3),
    crash=st.booleans(),
    targets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1,
        max_size=10,
    ),
    repeat=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_sweep_matches_the_object_sweep(
    n_nodes, churn, rounds, crash, targets, repeat, seed
):
    rng = random.Random(seed)
    deliveries: list[tuple[int, int]] = []

    def listen(node) -> None:
        for kind in ("red", "blue"):
            node.register_handler(
                kind, lambda n, message: deliveries.append((n.ident, message.tag))
            )

    network = ChordNetwork.build(n_nodes, m=8)
    for node in network:
        listen(node)
    for kind, pick in churn:
        if kind == "join":
            listen(network.join(f"late-{pick}"))
        elif len(network) > 1:
            victim = network.nodes[pick % len(network)]
            (network.leave if kind == "leave" else network.fail)(victim)
    network.run_stabilization(rounds)
    if crash and len(network) > 1:
        network.fail(network.random_node(rng))  # not repaired before the sweep

    targets = targets + targets[:repeat]  # guaranteed duplicate identifiers
    idents = [ident for ident, _ in targets]
    messages = [(_Red if red else _Blue)(tag) for tag, (_, red) in enumerate(targets)]
    source = network.random_node(rng)
    shipped = sweep(network.router, source, idents, messages, deliveries)
    reference = sweep(
        ReferenceSweepRouter(network.space, network.stats),
        source,
        idents,
        messages,
        deliveries,
    )
    assert shipped == reference
    if not churn and not crash:
        assert network.snapshot is not None
        assert shipped[0] == [network.responsible_node(i).ident for i in idents]


SPACE = IdentifierSpace(8)  # ring of 256 identifiers
ident = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestSortClockwise:
    """The reference sweep's first step: recipients clockwise from the sender."""

    def test_orders_from_start(self):
        assert sort_clockwise(SPACE, 100, [50, 150, 200]) == [150, 200, 50]

    def test_start_itself_first(self):
        assert sort_clockwise(SPACE, 100, [100, 99]) == [100, 99]

    def test_empty(self):
        assert sort_clockwise(SPACE, 0, []) == []

    @given(ident, st.lists(ident, max_size=12))
    def test_property_distances_monotone(self, start, idents):
        ordered = sort_clockwise(SPACE, start, idents)
        distances = [SPACE.distance(start, i) for i in ordered]
        assert distances == sorted(distances)
        assert sorted(ordered) == sorted(idents)
