"""Hot path 2: value-level table maintenance (add + window eviction).

The VLQT absorbs one ``add`` per delivered group record and one
``evict_older_than`` sweep every eviction round.  The lazy min-heap
keeps eviction proportional to the number of expirations;
``tables.vlqt_add_evict`` drives a sliding window over a continuous add
stream, the same access pattern the windowed experiments (E8/E9)
produce — with one-member records, one signature and one suffix per
value over 2000 query keys, so every bucket holds many cohorts under
one ``(signature, suffix)``: the adversarial shape for cohort storage,
where an ``add`` must not slow with the cohorts already there.

``tables.vlqt_add.group1/8/64`` is the cost of ``add`` *per member* for
records of real ``rewrite()`` output over two select lists: stored for
the first time, refreshed by the next trigger with the same keys, and
arriving with half of a stored cohort plus as many members that joined
since (the per-member path, splitting the cohort).  It must fall with
the group size, as ``sql.rewrite.group1/8/64`` does.
"""

from __future__ import annotations

import random
import time

from repro.core.tables import ValueLevelQueryTable
from repro.sql.query import (
    LEFT,
    GroupMember,
    GroupShape,
    RewrittenGroup,
    Subscriber,
    bind,
    rewrite,
)
from repro.sql.tuples import DataTuple

from _common import report
from bench_rewrite import R, _group

SUB = Subscriber("bench", 1, "10.0.0.1")


def _rewritten(i: int, value: int, trigger_time: float) -> RewrittenGroup:
    shape = GroupShape(
        "sig", "R", None, "A", (), (GroupMember(f"q{i}", SUB, 0.0, 0),), ((),)
    )
    return bind(shape, value, value, trigger_time, ())


def _group_add(size: int, n_records: int = 256, repeats: int = 3) -> dict:
    """ns per member of ``add`` for records of a ``size``-query group."""
    group = _group(size)
    grown = _group(2 * size)  # the same group after ``size`` more joined
    overlap = range(size // 2, size + (size + 1) // 2)

    def records(source, pub_time: float) -> list[RewrittenGroup]:
        return [
            rewrite(source, LEFT, DataTuple(R, (i, i, i), pub_time))
            for i in range(n_records)
        ]

    def best(make_table, batch) -> float:
        elapsed = float("inf")
        for _ in range(repeats):
            table = make_table()
            start = time.perf_counter()
            for record in batch:
                table.add(record, 0, 500.0)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed / (len(batch) * len(batch[0].members)) * 1e9

    first = records(group, 1.0)

    def filled() -> ValueLevelQueryTable:
        table = ValueLevelQueryTable()
        for record in first:
            table.add(record, 0)
        return table

    return report(
        f"tables.vlqt_add.group{size}",
        best(ValueLevelQueryTable, first),
        unit="ns/member",
        refresh=round(best(filled, records(group, 2.0)), 1),
        partial=round(
            best(filled, [r.restrict(overlap) for r in records(grown, 2.0)]), 1
        ),
    )


def run(n_events: int = 30_000, window: float = 500.0) -> list[dict]:
    rng = random.Random(11)
    table = ValueLevelQueryTable()
    start = time.perf_counter()
    evicted = 0
    for event in range(n_events):
        now = float(event)
        table.add(_rewritten(rng.randrange(2_000), rng.randrange(64), now), 0)
        if event % 64 == 0:
            evicted += table.evict_older_than(now - window)
    elapsed = time.perf_counter() - start
    return [
        report(
            "tables.vlqt_add_evict",
            elapsed / n_events * 1e9,
            evicted=evicted,
            resident=len(table),
        ),
        *[_group_add(size) for size in (1, 8, 64)],
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
