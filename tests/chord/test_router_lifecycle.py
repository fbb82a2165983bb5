"""Which router serves a ring, when it changes, and that it may.

``ChordNetwork`` hands its routers a :class:`RingSnapshot` while every
pointer is exact and no injector can perturb a delivery, and ``None``
(the object walk) otherwise.  The property test drives one ring through
exact → ``join`` / ``leave`` / ``fail`` → ``run_stabilization`` →
``rebuild_ring_state`` → exact again and checks, at every phase, which
router serves, that it agrees with a ringless object-walk ``Router`` on
everything Section 2.3 offers, and that a snapshot is only ever handed
out over pointers that equal the oracle's.
"""

from __future__ import annotations

import logging
import random

from hypothesis import given, settings, strategies as st

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
from repro.chord.node import NO_FINGERS
from repro.chord.routing import Router
from repro.errors import DeliveryError, RoutingError
from repro.faults import ChaosHarness, FaultInjector, FaultPlan
from repro.perf import PERF

from ..core.test_chaos import run_chaos_workload
from .test_snapshot_differential import _Blue, _Red


def assert_pointers_equal_oracle(network: ChordNetwork) -> None:
    """What ``_ring_exact`` claims, checked: the snapshot lists exactly
    the live members, and every successor list, predecessor and
    (materialized) finger is the one global knowledge would set."""
    idents = sorted(node.ident for node in network)
    assert network.snapshot.idents == idents
    count = len(idents)
    for position, ident in enumerate(idents):
        node = network.node_at(ident)
        assert node.alive
        reach = min(count - 1, node.successor_list_size)
        assert [entry.ident for entry in node.successor_list] == [
            idents[(position + offset) % count] for offset in range(1, reach + 1)
        ]
        assert node.predecessor.ident == idents[position - 1]
        if node.fingers is not NO_FINGERS:
            assert [finger.ident for finger in node.fingers] == [
                network.responsible_node(node.finger_start(j)).ident
                for j in range(network.space.m)
            ]


def route_everything(router: Router, source, targets, deliveries) -> tuple:
    """``lookup``, ``send`` and both ``multisend`` forms from ``source``:
    recipients (or the error a broken ring raises), the global delivery
    order and the ``TrafficStats`` delta per message type."""
    idents = [ident for ident, _ in targets]
    messages = [(_Red if red else _Blue)(tag) for tag, (_, red) in enumerate(targets)]
    before = router.stats.snapshot()
    del deliveries[:]
    outcome: list = []
    try:
        outcome.append(router.lookup(source, idents[0]).ident)
        outcome.append(router.send(source, messages[0], idents[0]).ident)
        for recursive in (True, False):
            recipients = router.multisend(source, messages, idents, recursive=recursive)
            outcome.append([node.ident for node in recipients])
    except (RoutingError, DeliveryError) as error:
        outcome.append(type(error).__name__)
    delta = router.stats.since(before)
    return (
        outcome,
        list(deliveries),
        delta.hops,
        delta.messages,
        delta.hops_by_type,
        delta.messages_by_type,
    )


def check_phase(
    network: ChordNetwork, *, exact: bool, rng, targets, deliveries, walk_on=None
) -> list:
    """(a) the router the phase calls for serves, (b) it agrees with the
    ringless object walk (over ``walk_on``, a twin of the ring, while the
    ring's own finger tables are deferred), (c) a snapshot only over
    oracle-exact pointers."""
    assert (network.snapshot is not None) == exact
    if exact:
        assert_pointers_equal_oracle(network)
    walk_on = walk_on if walk_on is not None else network
    source = network.random_node(rng)
    served = route_everything(network.router, source, targets, deliveries)
    walked = route_everything(
        Router(walk_on.space), walk_on.node_at(source.ident), targets, deliveries
    )
    assert served == walked
    return served[0]


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=16),
    defer_fingers=st.booleans(),
    churn=st.lists(
        st.tuples(st.sampled_from(["join", "leave", "fail"]), st.integers(0, 63)),
        min_size=1,
        max_size=4,
    ),
    rounds=st.integers(min_value=0, max_value=2),
    targets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_router_follows_ring_exactness(
    n_nodes, defer_fingers, churn, rounds, targets, seed
):
    rng = random.Random(seed)
    deliveries: list[tuple[int, int]] = []

    def listen(node) -> None:
        for kind in ("red", "blue"):
            node.register_handler(
                kind, lambda n, message: deliveries.append((n.ident, message.tag))
            )

    network = ChordNetwork.build(n_nodes, m=8, fast_routing=defer_fingers)
    # The snapshot routes by the fingers an exact ring holds, deferred or
    # not; the object walk needs them built, so it walks an eager twin.
    twin = ChordNetwork.build(n_nodes, m=8)
    for node in (*network, *twin):
        listen(node)
    phase = dict(rng=rng, targets=targets, deliveries=deliveries)

    check_phase(network, exact=True, walk_on=twin, **phase)
    assert all(node.fingers is NO_FINGERS for node in network) == defer_fingers

    changed = False
    for kind, pick in churn:
        if kind == "join":
            listen(network.join(f"late-{pick}"))
        elif len(network) > 1:
            victim = network.nodes[pick % len(network)]
            (network.leave if kind == "leave" else network.fail)(victim)
        else:
            continue
        changed = True
        check_phase(network, exact=False, **phase)
    network.run_stabilization(rounds, fix_all_fingers=True)
    check_phase(network, exact=not changed, **phase)

    network.rebuild_ring_state()
    recipients = check_phase(network, exact=True, **phase)
    owners = [network.responsible_node(ident).ident for ident, _ in targets]
    assert recipients == [owners[0], owners[0], owners, owners]


# ----------------------------------------------------------------------
# The other input of the decision: the fault injector
# ----------------------------------------------------------------------
LOSSY = FaultPlan(loss_probability=0.1, seed=3)


def test_perturbing_injector_switches_to_the_object_walk():
    network = ChordNetwork.build(12)
    assert network.snapshot is not None
    network.injector = FaultInjector(FaultPlan())  # an empty plan perturbs nothing
    assert network.snapshot is not None
    network.injector = FaultInjector(LOSSY)
    assert network.snapshot is None
    network.rebuild_ring_state()  # exact, still perturbed
    assert network.snapshot is None
    network.injector = None
    assert network.snapshot is not None
    assert_pointers_equal_oracle(network)
    assert ChordNetwork.build(12, injector=FaultInjector(LOSSY)).snapshot is None


def test_chaos_harness_installs_its_injector_through_the_network():
    network = ChordNetwork.build(12)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm="sai"))
    ChaosHarness(engine, FaultInjector(LOSSY))
    assert network.injector.perturbs_delivery and network.snapshot is None


def test_crash_mid_run_is_oracle_exact_with_the_first_phase_on_the_snapshot(caplog):
    caplog.set_level(logging.INFO, logger="repro.chord")
    engine, oracle, harness, queries = run_chaos_workload(
        "dai-t", seed=9, plan=FaultPlan(), n_events=80, crash_every=40
    )
    assert harness.injector.crashes == 2 and engine.network.snapshot is None
    # Snapshot from the build to the first crash, the object walk since.
    changes = [r.getMessage() for r in caplog.records if r.name == "repro.chord"]
    assert [change.split(":")[0] for change in changes] == [
        "router -> snapshot (rebuild)",
        "router -> object walk (fail)",
    ]
    for query in queries:
        assert engine.delivered_rows(query.key) == oracle.rows_for(query.key) != set()
    assert engine.duplicate_deliveries == 0


# ----------------------------------------------------------------------
# Every change of router is one log record and, on a fallback, one count
# ----------------------------------------------------------------------
def test_router_changes_are_logged_with_their_cause(caplog):
    caplog.set_level(logging.INFO, logger="repro.chord")
    PERF.reset()
    PERF.enable()
    try:
        network = ChordNetwork.build(10)
        newcomer = network.join("late")
        network.join("later")  # already on the object walk: no record
        network.rebuild_ring_state()
        network.leave(newcomer)
        network.rebuild_ring_state()
        network.fail(network.nodes[0])
        network.rebuild_ring_state()
        network.injector = FaultInjector(LOSSY)
        network.injector = FaultInjector(LOSSY)  # no change: no record
        network.injector = None
        for node in network:
            network.router.find_successor(node, 12345)  # nothing per message
        counters = PERF.snapshot()["counters"]
    finally:
        PERF.disable()
        PERF.reset()
    records = [r for r in caplog.records if r.name == "repro.chord"]
    assert all(r.levelno == logging.INFO for r in records)
    assert [r.getMessage() for r in records] == [
        "router -> snapshot (rebuild): 10 nodes, membership generation 1",
        "router -> object walk (join): 11 nodes, membership generation 2",
        "router -> snapshot (rebuild): 12 nodes, membership generation 3",
        "router -> object walk (leave): 11 nodes, membership generation 4",
        "router -> snapshot (rebuild): 11 nodes, membership generation 4",
        "router -> object walk (fail): 10 nodes, membership generation 5",
        "router -> snapshot (rebuild): 10 nodes, membership generation 5",
        "router -> object walk (perturbing injector): 10 nodes, membership generation 5",
        "router -> snapshot (no perturbing injector): 10 nodes, membership generation 5",
    ]
    assert counters["router.fallbacks"] == 4
    assert counters["snapshot.rebuilds"] == 5


def test_library_logger_is_silent_by_default():
    handlers = logging.getLogger("repro.chord").handlers
    assert [type(handler) for handler in handlers] == [logging.NullHandler]
