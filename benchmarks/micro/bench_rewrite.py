"""Hot path 5: query rewriting and its allocation churn.

``rewrite()`` runs once per (query group, trigger tuple) pair and
returns one ``RewrittenGroup`` however many queries share the join
condition, so its cost *per member* must fall with the group size:
``sql.rewrite.group1`` is the floor a lone query pays (the routing-bound
workloads), ``.group8``/``.group64`` the amortized cost with two select
lists in the group.  The other figures isolate simulator event/message
construction, the per-hop allocation the ``__slots__`` pass trimmed.
"""

from __future__ import annotations

import random

from repro.core.tables import AttributeLevelQueryTable, StoredQuery
from repro.sim.events import Event
from repro.sim.messages import ALIndexMessage
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

from _common import best_of, report

R = Relation("R", ("A", "B", "C"))
SUB = Subscriber("bench", 1, "10.0.0.1")


def _group(size: int):
    """A rewriter's group of ``size`` queries over two select lists."""
    table = AttributeLevelQueryTable()
    for i in range(size):
        select = "R.A, S.D" if i % 2 == 0 else "R.C, S.D"
        query = parse_query(f"SELECT {select} FROM R, S WHERE R.B = S.E")
        table.add(StoredQuery(query.with_subscription(f"bench#{i}", 0.0, SUB), LEFT, 0))
    (group,) = table.groups_for("R", "B")
    return group


def run(loops: int = 30_000) -> list[dict]:
    rng = random.Random(19)
    tuples = [
        DataTuple(R, (rng.randrange(900), rng.randrange(900), rng.randrange(900)), float(i))
        for i in range(512)
    ]
    n_tuples = len(tuples)
    state = {"i": 0}

    def rewrite_group(size: int) -> float:
        group = _group(size)

        def one_rewrite():
            i = state["i"]
            state["i"] = (i + 1) % n_tuples
            rewrite(group, LEFT, tuples[i])

        return best_of(one_rewrite, loops=loops) / size

    def nothing():
        pass

    def one_event():
        Event(5.0, 1, nothing, "tuple")

    def one_message():
        ALIndexMessage(tuple=tuples[0], index_attribute="B")

    return [
        *[
            report(f"sql.rewrite.group{size}", rewrite_group(size), unit="ns/member")
            for size in (1, 8, 64)
        ],
        report("sim.event_alloc", best_of(one_event, loops=loops)),
        report("sim.message_alloc", best_of(one_message, loops=loops)),
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
