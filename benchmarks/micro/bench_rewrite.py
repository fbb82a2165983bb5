"""Hot path 5: query rewriting and its allocation churn.

``rewrite()`` runs once per (query group, trigger tuple) pair and
returns one ``RewrittenGroup`` however many queries share the join
condition, so its cost *per member* must fall with the group size:
``sql.rewrite.group1`` is the floor a lone query pays (the routing-bound
workloads), ``.group8``/``.group64`` the amortized cost with two select
lists in the group.  ``sql.rewrite.fanout`` is one rewrite of the group
shape joinbench ``sim_fanout`` meets (64 members over 16 select lists
that bind 4 trigger attributes: one key suffix per binding, not per
list), ``engine.subscribe.fresh`` the install half — one subscribe of a
never-touched generated query on a 128-node ring, routing included.
The last figure isolates simulator message construction, the
per-hop allocation the ``__slots__`` pass trimmed.
"""

from __future__ import annotations

import random

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
from repro.core.tables import AttributeLevelQueryTable, StoredQuery
from repro.sim.messages import ALIndexMessage
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple
from repro.workload.generator import WorkloadGenerator, WorkloadParams, synthetic_schema

from _common import best_of, report

R = Relation("R", ("A", "B", "C"))
#: ``R`` with two more attributes, for select lists that bind four.
WIDE_R = Relation("R", ("A", "B", "C", "D", "E"))
SUB = Subscriber("bench", 1, "10.0.0.1")
TWO_LISTS = ["R.A, S.D", "R.C, S.D"]
#: 16 select lists binding 4 trigger attributes, 4 lists per binding.
SIXTEEN_LISTS = [f"R.{r}, S.{s}" for r in "ACDE" for s in "DFGH"]


def _group(size: int, selects=TWO_LISTS):
    """A rewriter's group of ``size`` queries cycling through ``selects``."""
    table = AttributeLevelQueryTable()
    for i in range(size):
        select = selects[i % len(selects)]
        query = parse_query(f"SELECT {select} FROM R, S WHERE R.B = S.E")
        table.add(StoredQuery(query.with_subscription(f"bench#{i}", 0.0, SUB), LEFT, 0))
    (group,) = table.groups_for("R", "B")
    return group


def subscribe_fresh(loops: int, repeats: int = 3) -> float:
    """ns per ``engine.subscribe`` of a query nothing has classified yet:
    every call gets its own freshly generated query."""
    params = WorkloadParams(n_queries=loops * repeats, seed=7)
    generator = WorkloadGenerator(synthetic_schema(2, 4), params)
    queries = iter([generator.random_query() for _ in range(loops * repeats)])
    engine = ContinuousQueryEngine(
        ChordNetwork.build(128), EngineConfig("sai", index_choice="random", seed=7)
    )
    nodes = engine.network.nodes
    origins = iter([nodes[i % len(nodes)] for i in range(loops * repeats)])

    def one_subscribe():
        engine.subscribe(next(origins), next(queries))

    return best_of(one_subscribe, loops=loops, repeats=repeats)


def run(loops: int = 30_000) -> list[dict]:
    rng = random.Random(19)
    def triggers(relation):
        width = len(relation.attributes)
        return [
            DataTuple(relation, tuple(rng.randrange(900) for _ in range(width)), float(i))
            for i in range(512)
        ]

    tuples, wide = triggers(R), triggers(WIDE_R)
    n_tuples = len(tuples)
    state = {"i": 0}

    def rewrite_group(size: int, selects=TWO_LISTS, triggers=tuples) -> float:
        """ns per rewrite of one group of ``size`` members."""
        group = _group(size, selects)

        def one_rewrite():
            i = state["i"]
            state["i"] = (i + 1) % n_tuples
            rewrite(group, LEFT, triggers[i])

        return best_of(one_rewrite, loops=loops)

    def one_message():
        ALIndexMessage(tuple=tuples[0], index_attribute="B")

    return [
        *[
            report(
                f"sql.rewrite.group{size}", rewrite_group(size) / size, unit="ns/member"
            )
            for size in (1, 8, 64)
        ],
        report("sql.rewrite.fanout", rewrite_group(64, SIXTEEN_LISTS, wide),
               unit="ns/rewrite"),
        report("engine.subscribe.fresh", subscribe_fresh(loops // 15),
               unit="ns/subscribe"),
        report("sim.message_alloc", best_of(one_message, loops=loops)),
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
