"""Group-record path vs the per-member reference, on random workloads.

Every workload runs twice on identical rings: through the shipped
algorithms (one ``RewrittenGroup`` per group and trigger) and through
``reference_rewriter`` (one flat ``RewrittenQuery`` per member, the
path this repository ran before).  The two must agree on everything an
observer can see: each ``join()`` batch per evaluator — in order, with
every member's key and fields and the projection that rides along —
the DAI-T never-resend memory, per-node load counters, storage, overlay
traffic and the delivered notifications in delivery order.

The strategies aim at what a group record could get wrong: groups with
several select lists — some reading exactly the same trigger attributes
(one bound value, one key suffix for both), some reading none — bound
values that are equal but print differently in a key (``1``, ``1.0``,
``True``; ``0.0``, ``-0.0``), insertion times staggered around the trigger's
``pubT`` (lease refresh, run after a node failure, replays old tuples
past younger queries and bypasses the DAI-T memory), replicas of one
query meeting at one rewriter, linear (T1) sides, index- and dis-side
filters, keyed DAI-V, and membership changing between triggers
(unsubscribe, node join and leave).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.sql.query import RewrittenGroup

from .reference_rewriter import (
    expand,
    flat_fields,
    member_keys,
    reference_engine,
    sent_keys,
)

SCHEMA = Schema.from_dict({"R": ["A", "B", "C"], "S": ["D", "E", "F"]})
N_NODES = 6  # few nodes: replica identifiers often share a rewriter

#: Indexed on R, lists 0 and 4 bind the same attribute and list 2 none;
#: on S, lists 1 and 5 bind the same attribute and list 6 none.
SELECTS = [
    "R.A, S.D",
    "R.C, S.D",
    "S.D, S.F",
    "R.A, R.C, S.F",
    "R.A, S.F",
    "S.D, R.A",
    "R.A, R.C",
]
CONDITIONS = [
    "R.B = S.E",
    "2 * R.B + 1 = S.E",
    "R.B = S.E AND R.C = 1",
    "R.B = S.E AND S.F = 1",
]

value = st.integers(min_value=0, max_value=1)
#: Select-only attribute values: equal in Python, different in a key.
printed = st.sampled_from([0, 1, 1.0, True, 0.0, -0.0])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(SELECTS), st.sampled_from(CONDITIONS)),
        st.tuples(st.just("R"), printed, value, printed),
        st.tuples(st.just("S"), printed, st.integers(0, 3), printed),
        # The same values again: same rewritten keys (DAI-T's memory,
        # key-refresh at the evaluator), later ``pubT``.
        st.tuples(st.just("again")),
        st.tuples(st.just("wait"), st.integers(1, 6)),
        st.tuples(st.just("hold")),  # the next step happens at the same instant
        st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("join")),
        st.tuples(st.just("leave"), st.integers(0, N_NODES - 1)),
    ),
    min_size=1,
    max_size=40,
)


def record_batches(engine, log):
    """Log every dispatched ``join()`` batch as flat per-member rows."""
    algorithm = engine.algorithm
    dispatch = algorithm._dispatch_join_batches

    def logged(engine, node, batches):
        for ident, (shipped, projections) in batches.items():
            rows = []
            for i, item in enumerate(shipped):
                projection = projections[i] if projections else None
                flats = (
                    [expand(item, member) for member in item.shape.members]
                    if isinstance(item, RewrittenGroup)
                    else [item]
                )
                if isinstance(item, RewrittenGroup):
                    assert [f.key for f in flats] == list(member_keys(item))
                rows.extend((flat_fields(flat), projection) for flat in flats)
            log.append((node.ident, ident, rows))
        dispatch(engine, node, batches)

    algorithm._dispatch_join_batches = logged


def replay(make_engine, workload, config):
    network = ChordNetwork.build(N_NODES)
    engine = make_engine(network, EngineConfig(index_choice="random", seed=3, **config))
    batches = []
    record_batches(engine, batches)
    R, S = SCHEMA.relation("R"), SCHEMA.relation("S")
    queries = []
    last_tuple = None
    hold = False
    for index, step in enumerate(workload):
        if step[0] == "hold":
            hold = True
            continue
        if not hold:
            engine.clock.advance(1.0)
        hold = False
        origin = network.nodes[index % len(network)]
        if step[0] == "again":
            if last_tuple is None:
                continue
            step = last_tuple
        kind = step[0]
        if kind in ("R", "S"):
            last_tuple = step
        if kind == "query":
            sql = f"SELECT {step[1]} FROM R, S WHERE {step[2]}"
            queries.append(engine.subscribe(origin, sql, SCHEMA))
        elif kind == "R":
            engine.publish(origin, R, {"A": step[1], "B": step[2], "C": step[3]})
        elif kind == "S":
            engine.publish(origin, S, {"D": step[1], "E": step[2], "F": step[3]})
        elif kind == "unsubscribe":
            live = [q for q in queries if q.key in engine.queries]
            if live:
                engine.unsubscribe(origin, live[step[1] % len(live)])
        elif kind == "wait":
            engine.clock.advance(float(step[1]))
        elif kind == "refresh":
            # The replay is crash recovery: it runs after a loss only.
            if len(network) > 3:
                network.fail(network.nodes[index % len(network)])
                network.run_stabilization(2, fix_all_fingers=True)
            engine.refresh_leases()
        elif kind == "join":
            network.join(f"late-{index}")
        elif kind == "leave" and len(network) > 3:
            network.leave(network.nodes[step[1] % len(network)])
    sent_memory = {
        (node.ident, group.signature): sent_keys(group)
        for node in network
        for groups in engine.state(node).alqt._buckets.values()
        for group in groups.values()
    }
    observed = {
        "batches": batches,
        "sent_memory": sent_memory,
        "delivered": engine.delivered,
        "load": engine.load_snapshot(),
        "traffic": engine.traffic.snapshot(),
    }
    return observed, engine


COMMON = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize(
    "config",
    [
        {"algorithm": "sai"},
        {"algorithm": "sai", "window": 4.0, "replication_factor": 2},
        {"algorithm": "dai-q", "replication_factor": 3},
        {"algorithm": "dai-q", "window": 6.0},
        {"algorithm": "dai-t"},
        {"algorithm": "dai-t", "window": 4.0, "replication_factor": 2},
        {"algorithm": "dai-v", "replication_factor": 2},
        {"algorithm": "dai-v", "daiv_keyed": True},
        {"algorithm": "dai-v", "window": 5.0, "jfrt_capacity": 4},
    ],
    ids=lambda config: "-".join(str(v) for v in config.values()),
)
@COMMON
@given(workload=steps)
def test_group_path_equals_per_member_reference(config, workload):
    shipped, _ = replay(ContinuousQueryEngine, workload, config)
    reference, _ = replay(reference_engine, workload, config)
    for observed in shipped:
        assert shipped[observed] == reference[observed], observed


Q = ("query", SELECTS[0], CONDITIONS[0])
R000 = ("R", 0, 0, 0)


def shipped_members(run):
    """Per dispatched batch, the rewritten keys it carried."""
    return [[fields[0] for fields, _ in rows] for _, _, rows in run["batches"]]


class TestTargetedScenarios:
    """The branches random workloads reach rarely, reached on purpose."""

    def both(self, workload, **config):
        shipped, self.engine = replay(ContinuousQueryEngine, workload, config)
        reference, _ = replay(reference_engine, workload, config)
        assert shipped == reference
        return shipped

    def test_dai_t_resends_only_the_member_that_joined_since(self):
        run = self.both([Q, R000, Q, ("again",), ("again",)], algorithm="dai-t")
        first, second = shipped_members(run)  # the third trigger ships nothing
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_dai_t_refresh_bypasses_the_memory_for_the_whole_group(self):
        run = self.both([Q, Q, R000, ("refresh",)], algorithm="dai-t")
        first, replayed = shipped_members(run)
        assert len(first) == 2 and replayed == first

    def test_replayed_tuple_skips_members_subscribed_after_it(self):
        run = self.both([Q, R000, Q, ("refresh",)], algorithm="dai-q")
        first, replayed = shipped_members(run)
        assert replayed == first and len(first) == 1

    def test_tuple_published_at_the_subscription_instant_triggers(self):
        # pubT == insT of the first query, replayed past a younger one.
        run = self.both([Q, ("hold",), R000, Q, ("refresh",)], algorithm="dai-q")
        first, replayed = shipped_members(run)
        assert replayed == first and len(first) == 1

    def test_sai_reevaluates_an_entry_that_slid_out_of_the_window(self):
        workload = [Q, Q, R000, ("wait", 6), ("S", 1, 0, 0), R000]
        run = self.both(workload, algorithm="sai", window=4.0)
        assert sorted(len(rows) for rows in run["delivered"].values()) == [1, 1]

    def test_keyed_dai_v_ships_one_member_per_evaluator(self):
        run = self.both([Q, Q, Q, R000], algorithm="dai-v", daiv_keyed=True)
        assert [len(keys) for keys in shipped_members(run)] == [1, 1, 1]
        assert len({ident for _, ident, _ in run["batches"]}) == 3

    @pytest.mark.parametrize("late_queries, keyed", [(1, False), (10, True)])
    def test_dai_v_projection_predating_a_member_lacks_its_attributes(
        self, late_queries, keyed
    ):
        # The S tuple is projected on what the first query needs, {D, E};
        # the later queries select S.F too.  The R tuple's record then
        # meets that projection with the late members aboard: they must
        # be skipped on time before an answer row is built for them.
        # Keyed, evaluators are per query: of ten late queries one lands
        # on the node that holds the projection (asserted below).
        late = ("query", SELECTS[2], CONDITIONS[0])
        workload = [Q, ("S", 1, 0, 1), *[late] * late_queries, R000]
        run = self.both(workload, algorithm="dai-v", daiv_keyed=keyed)
        assert sorted(len(rows) for rows in run["delivered"].values()) == (
            [0] * late_queries + [1]
        )
        # The scenario is reached: a batch carrying more than the first
        # query's member lands where the S projection is stored.
        network = self.engine.network
        (_, s_ident, s_rows), *r_batches = run["batches"]
        first_query = s_rows[0][0][1]  # ``original_key``
        assert any(
            network.responsible_node(ident) is network.responsible_node(s_ident)
            and any(fields[1] != first_query for fields, _ in rows)
            for _, ident, rows in r_batches
        )

    def test_replicas_of_one_query_at_one_rewriter_are_one_member(self):
        run = self.both([Q, R000, R000], algorithm="dai-q", replication_factor=6)
        groups = [
            group
            for node in self.engine.network
            for buckets in self.engine.state(node).alqt._buckets.values()
            for group in buckets.values()
        ]
        # Six replica identifiers over six nodes: some rewriter holds
        # several copies, and TF (``len(group)``) counts every one.
        assert max(len(group) for group in groups) > 1
        assert all(len(group.rewrite_plan(group.index_label).shape.members) == 1 for group in groups)
        assert all(len(keys) == 1 for keys in shipped_members(run))

    def test_lists_reading_one_attribute_share_its_suffix(self):
        # ``R.A, S.D`` and ``R.A, S.F``: one bound value, one suffix.
        same_binding = ("query", "R.A, S.F", CONDITIONS[0])
        run = self.both([Q, same_binding, R000, ("again",)], algorithm="dai-t")
        (first,) = shipped_members(run)  # the repeat ships nothing
        assert len({key.split("+", 1)[1] for key in first}) == 1 and len(first) == 2

    @pytest.mark.parametrize("algorithm", ["sai", "dai-t"])
    def test_equal_values_that_print_differently_keep_their_own_keys(self, algorithm):
        # ``1 == 1.0 == True`` and ``0.0 == -0.0``, but a key prints them.
        lists = [("query", select, CONDITIONS[0]) for select in ("R.A, S.D", "R.C, S.D")]
        triggers = [("R", 1, 0, True), ("R", 1.0, 0, 1), ("R", 0.0, 0, -0.0)]
        run = self.both([*lists, *triggers], algorithm=algorithm)
        suffixes = [sorted(key.split("+", 1)[1] for key in keys) for keys in shipped_members(run)]
        assert suffixes == [["1+0", "True+0"], ["1+0", "1.0+0"], ["-0.0+0", "0.0+0"]]

    def test_dai_t_after_a_plan_change_ships_only_the_new_members(self):
        # The group gains a list with Q's binding and one with another
        # (whose suffix string happens to equal Q's), then loses Q.
        workload = [
            Q, R000,
            ("query", "R.A, S.F", CONDITIONS[0]),
            ("query", "R.C, S.D", CONDITIONS[0]),
            ("again",), ("again",), ("unsubscribe", 0), ("again",),
        ]
        run = self.both(workload, algorithm="dai-t")
        assert [len(keys) for keys in shipped_members(run)] == [1, 2]
