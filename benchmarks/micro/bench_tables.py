"""Hot path 2: value-level table maintenance (add + window eviction).

The VLQT absorbs one ``add`` per delivered group record (here: groups
of one) and one ``evict_older_than`` sweep every eviction round.  The lazy min-heap
keeps eviction proportional to the number of expirations; this bench
drives a sliding window over a continuous add stream, the same access
pattern the windowed experiments (E8/E9) produce.
"""

from __future__ import annotations

import random
import time

from repro.core.tables import ValueLevelQueryTable
from repro.sql.query import GroupMember, RewrittenGroup, Subscriber

from _common import report

SUB = Subscriber("bench", 1, "10.0.0.1")


def _rewritten(i: int, value: int, trigger_time: float) -> RewrittenGroup:
    return RewrittenGroup(
        group_signature="sig",
        relation="R",
        expr=None,
        required_value=value,
        dis_attribute="A",
        dis_value=value,
        filters=(),
        trigger_pub_time=trigger_time,
        selects=((),),
        suffixes=(f"+{value}",),
        members=(GroupMember(f"q{i}", SUB, 0.0, 0),),
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
        )
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
