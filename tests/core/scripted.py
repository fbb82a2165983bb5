"""Hand-written workloads for ``run_workload`` and the oracle of a run.

``scripted`` turns SQL texts and tuple values into the
:class:`~repro.workload.generator.Workload` the one serial driver
replays; ``oracle_of`` rebuilds the centralized oracle from what an
engine subscribed and published, so a test can replay first and check
afterwards.
"""

from repro.core.oracle import CentralizedOracle
from repro.sql import parse_query
from repro.workload.generator import Workload, WorkloadEvent, WorkloadParams


def scripted(schema, queries, tuples, *, start=1.0, interval=1.0):
    """``queries`` (SQL) at time 0, then ``tuples`` — ``(relation name,
    values)`` pairs — from ``start``, ``interval`` apart."""
    events = [WorkloadEvent(0.0, "query", parse_query(sql, schema)) for sql in queries]
    events += [
        WorkloadEvent(start + index * interval, "tuple", (schema.relation(name), values))
        for index, (name, values) in enumerate(tuples)
    ]
    params = WorkloadParams(n_queries=len(queries), n_tuples=len(tuples))
    return Workload(schema, events, params)


def oracle_of(engine, window=None):
    """The centralized oracle over ``engine``'s queries and publications."""
    oracle = CentralizedOracle(window=window)
    for query in engine.queries.values():
        oracle.subscribe(query)
    for tup in engine._publications:
        oracle.insert(tup)
    return oracle
