"""Chapter 5 as declarations: a figure is a grid plus a query (DESIGN.md §4).

Every replay figure of the thesis' evaluation (E2–E17) is a
:class:`Figure`: which experiment rows it needs — one or more
:class:`~repro.expdb.grid.GridSpec` built from a
:class:`~repro.bench.configs.Scale` — and how its table is read back
from the finished rows: group by the columns that identify a table
row, average each measured column over the seeds.  :func:`measure`
fills the grids into an experiment database, drains what is still open
through the ordinary worker and extracts; the database is the cache
(no row runs twice, figures that share a sweep share its rows) and the
parallelism (any number of ``python -m repro.expdb worker`` processes
may drain the same file).  ``python -m repro.expdb figure E6 E7`` prints.

E1 and T1 are not workload replays — E1 times ``multisend`` on a bare
ring, T1 traces one canonical three-event example — so they stay plain
functions of the scale, under the same registry and printer.

Absolute numbers differ from the paper (different hardware, scaled
workloads); the *shapes* — who wins, by roughly what factor, where
crossovers fall — are asserted by ``benchmarks/test_e*.py``.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, replace
from operator import itemgetter as column
from typing import Callable, Mapping, Optional, Sequence

from ..chord.network import ChordNetwork
from ..chord.routing import multisend_cost
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..expdb.db import ExperimentDB, decode_params, row_label
from ..expdb.grid import ALGORITHMS, GridSpec
from ..expdb.worker import WorkerConfig, run_worker
from ..sim.stats import gini, participation
from ..sql.schema import Schema
from .configs import Scale
from .report import ascii_curve, render_markdown, render_table
from .rows import aggregate, mean_over

#: Seeds a figure averages over unless told otherwise.
SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Figure:
    """One table/figure of the paper: what to run and how to read it."""

    id: str  # e.g. "E2"
    figure: str  # e.g. "Figure 5.2 — traffic cost and JFRT effect"
    title: str
    columns: tuple
    notes: str
    #: ``extract(rows)``: the table from the finished rows of the grids
    #: (see :func:`measure` for what a row carries).  Without grids,
    #: ``extract(scale)`` measures directly.
    extract: Callable[..., list]
    #: ``grids(scale)``: the experiments needed, each a ``GridSpec`` or
    #: ``(labels, GridSpec)`` — labels are constant columns added to the
    #: rows of that grid (a sweep's ``factor``).  Seeds are set by the
    #: caller.
    grids: Optional[Callable[[Scale], Sequence]] = None
    #: ``curves(rows)``: named per-node load curves plotted under the table.
    curves: Optional[Callable[[list], Mapping[str, list]]] = None

    def points(self, scale: Scale, seeds: Sequence[int]) -> list[tuple[dict, dict]]:
        """Every experiment the figure needs, in grid order, as
        ``(labels, parameters)``."""
        return [
            (labels, params)
            for item in self.grids(scale)
            for labels, spec in [item if isinstance(item, tuple) else ({}, item)]
            for params in replace(spec, seeds=tuple(seeds)).expand()
        ]

    def to_text(self, rows: list, curves: Optional[Mapping[str, list]] = None) -> str:
        charts = "".join(
            "\n" + ascii_curve(values, label=name)
            for name, values in (curves or {}).items()
        )
        return (
            f"{self.id}: {self.title}\n({self.figure})\n"
            f"{render_table(list(self.columns), rows)}{charts}\nNotes: {self.notes}"
        )

    def to_markdown(self, rows: list) -> str:
        table = render_markdown(list(self.columns), rows)
        header = f"### {self.id} — {self.title}\n\n*{self.figure}*"
        return f"{header}\n\n{table}\n\n{self.notes}\n"


def measure(
    figure: Figure,
    db_path: str,
    scale: Scale,
    seeds: Sequence[int] = SEEDS,
    on_event: Optional[Callable[[str], None]] = None,
) -> tuple[list, Mapping[str, list], int]:
    """One figure's ``(table rows, curves, experiments executed)``.

    Fills the figure's grids over ``seeds`` into the database at
    ``db_path``, drains every open row through
    :func:`~repro.expdb.worker.run_worker` and hands the figure its
    finished rows, in grid order: the export columns, the decoded
    parameters (``window`` ``None`` when unbounded, ``overrides`` a
    dict), the grid's labels and ``metrics`` (the stored metrics row).
    A second call over the same database executes nothing.
    """
    if figure.grids is None:
        return figure.extract(scale), {}, 0
    points = figure.points(scale, seeds)
    with ExperimentDB(db_path) as db:
        db.fill(params for _, params in points)
    stats = run_worker(WorkerConfig(db_path=db_path, drain=True), on_event=on_event)
    with ExperimentDB(db_path) as db:
        stored = [(labels, db.find(params)) for labels, params in points]
    unfinished = [row for _, row in stored if row["status"] != "done"]
    if unfinished:
        first = unfinished[0]
        raise RuntimeError(
            f"{figure.id}: {len(unfinished)} of {len(stored)} experiments are not "
            f"done — {row_label(first['id'], first)} is {first['status']!r} "
            f"(see 'report --status error', or let the other workers finish)"
        )
    rows = [
        {
            **row,
            **decode_params(row),
            **labels,
            "metrics": json.loads(row["metrics_json"]),
        }
        for labels, row in stored
    ]
    curves = figure.curves(rows) if figure.curves else {}
    return figure.extract(rows), curves, stats.executed


# ----------------------------------------------------------------------
# Reading one finished row
# ----------------------------------------------------------------------

def metric(path: str, default=None) -> Callable[[Mapping], object]:
    """The value at a dotted path of the stored metrics row (``default``
    stands in for a missing last key: a message type never sent)."""
    *parents, leaf = path.split(".")

    def value(row: Mapping):
        node = row["metrics"]
        for name in parents:
            node = node[name]
        return node[leaf] if default is None else node.get(leaf, default)

    return value


def per_node(vector: str) -> Callable[[Mapping], list]:
    """A stored load vector over the whole population, zeros restored."""

    def value(row: Mapping) -> list:
        load = row["metrics"]["load"]
        return load[vector] + [0] * (load["nodes"] - len(load[vector]))

    return value


def spread(summary: Callable, vector: str = "filtering") -> Callable[[Mapping], float]:
    """A :mod:`repro.sim.stats` summary of one per-node load vector."""
    nodes = per_node(vector)
    return lambda row: summary(nodes(row))


def hottest(vector: str) -> Callable[[Mapping], int]:
    """The most loaded node's entry of a (descending) load vector."""
    return lambda row: next(iter(row["metrics"]["load"][vector]), 0)


def hops_per_tuple(row: Mapping) -> float:
    """Stream-phase overlay hops per tuple inserted: warm-up tuples are
    in the denominator, their hops are not (they are install traffic)."""
    workload = (row["overrides"] or {}).get("workload") or {}
    inserted = row["n_tuples"] + workload.get("warmup_tuples", 0)
    return row["metrics"]["stream_traffic"]["hops"] / inserted


def mean_filtering(row: Mapping) -> float:
    load = row["metrics"]["load"]
    return load["TF"] / load["nodes"]


def hottest_share(row: Mapping) -> float:
    load = row["metrics"]["load"]
    return load["filtering"][0] / load["TF"] if load["TF"] else 0.0


def fifth_hops(which: str) -> Callable[[Mapping], float]:
    """Mean hops per insertion in the first/last fifth of the stream."""

    def value(row: Mapping) -> float:
        fifth = row["metrics"]["load"]["fifth"]
        return fifth[which] / fifth["events"]

    return value


# ----------------------------------------------------------------------
# Declaring one replay figure
# ----------------------------------------------------------------------

def grid(scale: Scale, **axes) -> GridSpec:
    """The replay grid of one profile: all four algorithms at the
    profile's point on the serial simulator, unless ``axes`` say more."""
    point = {
        "n_nodes": (scale.n_nodes,),
        "n_queries": (scale.n_queries,),
        "n_tuples": (scale.n_tuples,),
        "domain_sizes": (scale.domain_size,),
        "zipf_s": (scale.zipf_s,),
    }
    return GridSpec(**{**point, **axes})


def scaling(base: Scale, axis: str, factors: Sequence[float], **axes) -> list:
    """One grid per factor along a ``Scale.scaled`` axis, labelled with it."""
    return [
        ({"factor": factor}, grid(base.scaled(**{axis: factor}), **axes))
        for factor in factors
    ]


def fraction_of_queries(scale: Scale, fractions: Sequence[float]) -> tuple:
    return tuple(max(1, int(scale.n_queries * fraction)) for fraction in fractions)


def imbalanced(scale: Scale, bos_ratio: float) -> dict:
    """Workload overrides of an imbalanced stream: ``bos_ratio`` tuples
    of R0 per tuple of R1, and a fifth of the stream (at least 50
    tuples) arriving before the queries, so the rate-probing index
    choices see arrival statistics at subscription time."""
    return {"bos_ratio": bos_ratio, "warmup_tuples": max(50, scale.n_tuples // 5)}


def replay(
    id: str,
    figure: str,
    title: str,
    notes: str,
    grids: Callable[[Scale], Sequence],
    keys: Mapping[str, Callable],
    means: Mapping[str, Callable],
    then: Optional[Callable[[list], list]] = None,
    derived: tuple = (),
    curves: Optional[Callable] = None,
) -> Figure:
    """A figure whose table has one row per distinct ``keys`` (column →
    function of a finished row) and whose ``means`` (likewise) are
    averaged over the seeds; ``then`` post-processes the table and adds
    the ``derived`` columns."""

    def extract(rows: list) -> list:
        keyed = [
            {**row, **{name: key(row) for name, key in keys.items()}} for row in rows
        ]
        columns = {name: mean_over(value) for name, value in means.items()}
        table = aggregate(keyed, tuple(keys), columns)
        return then(table) if then else table

    return Figure(
        id, figure, title, (*keys, *means, *derived), notes, extract, grids, curves
    )


def named(*names: str) -> dict:
    """Key columns read straight off the row (parameters or labels)."""
    return {name: column(name) for name in names}


FILTERING_SHAPE = {
    "mean_filtering": mean_filtering,
    "max_filtering": hottest("filtering"),
    "filtering_gini": spread(gini),
}

REPLICATION_KEYS = {**named("algorithm"), "replication": column("replication_factor")}

WINDOW_KEYS = {
    **named("algorithm", "n_queries"),
    "window": lambda row: row["window"] or "unbounded",
}


def replication_grids(scale: Scale) -> list:
    return [grid(scale, algorithms=("sai",), replication_factors=(1, 2, 4, 8))]


def window_grids(scale: Scale) -> list:
    sweep = scale.scaled(queries=0.6, tuples=0.7)
    span = float(sweep.n_tuples)  # tuple_interval = 1.0
    return [
        grid(
            sweep,
            algorithms=("sai", "dai-t"),
            n_queries=fraction_of_queries(sweep, (0.33, 1.0)),
            windows=(span * 0.05, span * 0.25, None),
        )
    ]


def network_growth(algorithms: tuple) -> Callable[[Scale], list]:
    return lambda scale: scaling(
        scale.scaled(queries=0.5, tuples=0.5, nodes=0.25),
        "nodes",
        (1.0, 2.0, 4.0, 8.0),
        algorithms=algorithms,
    )


def daiv_axes(scale: Scale) -> list:
    base = scale.scaled(queries=0.5, tuples=0.5, nodes=0.5)
    return [
        ({"axis": axis, **labels}, spec)
        for axis in ("nodes", "queries", "tuples")
        for labels, spec in scaling(base, axis, (1.0, 4.0), algorithms=("dai-v",))
    ]


def bos_grids(scale: Scale) -> list:
    sweep = scale.scaled(queries=0.5, tuples=0.7)
    grids = []
    for bos_ratio in (1.0, 4.0, 16.0):
        workload = imbalanced(sweep, bos_ratio)
        informed = {"engine": {"index_choice": "min-rate"}, "workload": workload}
        neutral = {"workload": workload}
        grids.append(grid(sweep, algorithms=("sai",), overrides=(informed,)))
        grids.append(grid(sweep, algorithms=ALGORITHMS[1:], overrides=(neutral,)))
    return grids


def blowup(table: list) -> list:
    """Each variant's traffic relative to the first (grouped) one."""
    baseline = table[0]["hops_per_tuple"]
    for row in table:
        row["blowup"] = row["hops_per_tuple"] / baseline if baseline else 1.0
    return table


def mean_curves(rows: list) -> dict:
    """Per algorithm, the per-node filtering load, most loaded first,
    averaged rank by rank over the seeds."""
    nodes = per_node("filtering")

    def rank_means(members: list) -> list:
        return [statistics.mean(rank) for rank in zip(*map(nodes, members))]

    curves = aggregate(rows, ("algorithm",), {"curve": rank_means})
    return {f"filtering load, {row['algorithm']}": row["curve"] for row in curves}


# ----------------------------------------------------------------------
# E1 and T1 — measured directly
# ----------------------------------------------------------------------

def multisend_hops(scale: Scale, trials: int = 5) -> list[dict]:
    """Hops of ``multisend`` to k recipients, both designs (Figure 5.1)."""
    network = ChordNetwork.build(scale.n_nodes)
    rng = random.Random(42)
    rows = []
    k = 1
    while k <= 256:
        iterative, recursive = [], []
        for _ in range(trials):
            source = network.random_node(rng)
            idents = [rng.randrange(network.space.size) for _ in range(k)]
            for design, costs in ((False, iterative), (True, recursive)):
                costs.append(
                    multisend_cost(network.router, source, idents, recursive=design)
                )
        mean_iterative = statistics.mean(iterative)
        mean_recursive = statistics.mean(recursive)
        rows.append(
            {
                "k": k,
                "iterative_hops": mean_iterative,
                "recursive_hops": mean_recursive,
                "savings": mean_iterative / mean_recursive if mean_recursive else 1.0,
            }
        )
        k *= 4
    return rows


#: Table 4.1's qualitative columns (from Chapter 4's algorithm
#: descriptions), one row per algorithm.
_QUALITATIVE_COLUMNS = (
    "rewriters_per_query",
    "evaluator_stores_tuples",
    "evaluator_stores_queries",
    "notification_on",
    "reindex_per_trigger",
    "supports_t2",
)
_QUALITATIVE = {
    "sai": (1, "yes", "yes", "query or tuple arrival", "every trigger", "no"),
    "dai-q": (2, "yes", "no", "rewritten-query arrival", "every trigger", "no"),
    "dai-t": (2, "no", "yes", "tuple arrival", "once per rewritten key", "no"),
    "dai-v": (2, "projections", "no", "rewritten-query arrival", "every trigger", "yes"),
}


def trace_canonical_example(algorithm: str, n_nodes: int = 64) -> dict:
    """Run the Chapter 4 example and measure the step behaviour.

    Query ``SELECT R.A, S.D FROM R, S WHERE R.C = S.C``; insert
    ``R(1, 7)``-style tuples and a matching ``S`` tuple; also repeat the
    same R tuple to expose DAI-T's reindex-once behaviour.
    """
    schema = Schema.from_dict({"R": ["A", "C"], "S": ["D", "C"]})
    network = ChordNetwork.build(n_nodes)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, index_choice="left")
    )
    subscriber = network.nodes[0]
    query = engine.subscribe(
        subscriber, "SELECT R.A, S.D FROM R, S WHERE R.C = S.C", schema
    )
    query_messages = engine.traffic.messages_by_type.get("query", 0)

    r_relation, s_relation = schema.relation("R"), schema.relation("S")
    engine.clock.advance(1)
    engine.publish(network.nodes[1], r_relation, {"A": 1, "C": 7})
    joins_after_first = engine.traffic.messages_by_type.get("join", 0)
    engine.clock.advance(1)
    engine.publish(network.nodes[2], r_relation, {"A": 1, "C": 7})  # duplicate
    joins_after_duplicate = engine.traffic.messages_by_type.get("join", 0)
    engine.clock.advance(1)
    engine.publish(network.nodes[3], s_relation, {"D": 2, "C": 7})

    stored_tuples = sum(
        len(engine.state(node).vltt) + len(engine.state(node).projections)
        for node in network
    )
    stored_queries = sum(len(engine.state(node).vlqt) for node in network)
    return {
        "algorithm": algorithm,
        "rewriter_copies": query_messages,
        "join_msgs_first_trigger": joins_after_first,
        "join_msgs_duplicate_trigger": joins_after_duplicate - joins_after_first,
        "value_level_tuples": stored_tuples,
        "value_level_queries": stored_queries,
        "rows_delivered": len(engine.delivered_rows(query.key)),
    }


def algorithm_comparison(_scale: Optional[Scale] = None) -> list[dict]:
    """Table 4.1: the declared properties of each algorithm next to a
    live trace of the canonical example (the scale plays no part)."""
    return [
        {
            **dict(zip(_QUALITATIVE_COLUMNS, qualitative)),
            **trace_canonical_example(algorithm),
        }
        for algorithm, qualitative in _QUALITATIVE.items()
    ]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

_FIGURES = (
    Figure(
        "T1",
        "Table 4.1 — a comparison of all algorithms",
        "algorithm comparison (qualitative + measured on the canonical example)",
        (
            "algorithm",
            "rewriters_per_query",
            "rewriter_copies",
            "notification_on",
            "evaluator_stores_tuples",
            "evaluator_stores_queries",
            "reindex_per_trigger",
            "join_msgs_duplicate_trigger",
            "supports_t2",
            "rows_delivered",
        ),
        "rewriter_copies and join message counts are measured live; "
        "every algorithm delivers exactly the one expected answer row.",
        algorithm_comparison,
    ),
    Figure(
        "E1",
        "Figure 5.1 — recursive vs. iterative design for multisend",
        "multisend hop cost, recursive vs. iterative",
        ("k", "iterative_hops", "recursive_hops", "savings"),
        "on a ring of the profile's size; both designs are O(k log N) but "
        "the recursive sweep shares routing work across recipients.",
        multisend_hops,
    ),
    replay(
        "E2",
        "Figure 5.2 — traffic cost and JFRT effect",
        "per-insertion traffic, with and without the JFRT",
        "early/late = mean hops in the first/last fifth of the stream; "
        "with the JFRT on, late insertions reindex rewritten queries in "
        "one hop once the cache is warm.",
        lambda scale: [grid(scale, jfrt_capacities=(0, 4096))],
        {
            **named("algorithm"),
            "jfrt": lambda row: "on" if row["jfrt_capacity"] else "off",
        },
        {
            "hops_per_tuple": hops_per_tuple,
            "early_hops": fifth_hops("first_hops"),
            "late_hops": fifth_hops("last_hops"),
            "total_hops": metric("stream_traffic.hops"),
        },
    ),
    replay(
        "E3",
        "Figure 5.3 — effect of the number of indexed queries on traffic",
        "per-insertion traffic vs. installed queries",
        "query grouping (one join message per evaluator) keeps traffic "
        "sublinear in |Q|; DAI-T flattens further because rewritten "
        "queries are reindexed only once.",
        lambda scale: [
            grid(scale, n_queries=(n_queries,))
            for n_queries in fraction_of_queries(scale, (0.1, 0.33, 1.0))
        ],
        named("n_queries", "algorithm"),
        {
            "hops_per_tuple": hops_per_tuple,
            "join_messages": metric("stream_traffic.messages_by_type.join", 0),
            "notifications": column("notifications_delivered"),
        },
    ),
    replay(
        "E4",
        "Figure 5.4 — comparison of index-attribute selection strategies in SAI",
        "SAI index-attribute choice strategies",
        "streams are imbalanced (bos ratio 8:1) and rewriters warm up on a "
        "fifth of the stream before queries arrive; min-rate indexes each "
        "query under the slow relation and generates the least rewriting "
        "traffic.",
        lambda scale: [
            grid(
                scale,
                algorithms=("sai",),
                overrides=tuple(
                    {
                        "engine": {"index_choice": strategy},
                        "workload": imbalanced(scale, 8.0),
                    }
                    for strategy in ("random", "min-rate", "max-rate", "uniformity")
                ),
            )
        ],
        {"strategy": lambda row: row["overrides"]["engine"]["index_choice"]},
        {
            "hops_per_tuple": hops_per_tuple,
            "stream_hops": metric("stream_traffic.hops"),
            "probe_hops": metric("install_traffic.hops_by_type.rate-probe", 0),
            "filtering_gini": spread(gini),
        },
    ),
    replay(
        "E5",
        "Figure 5.5 — effect of the bos ratio [reconstructed]",
        "balance-of-streams ratio sweep",
        "bos ratio = arrival-rate ratio between the two joined relations "
        "(reconstruction, DESIGN.md §4); SAI uses min-rate and benefits "
        "most from imbalance.",
        bos_grids,
        {
            "bos_ratio": lambda row: row["overrides"]["workload"]["bos_ratio"],
            **named("algorithm"),
        },
        {"hops_per_tuple": hops_per_tuple, "filtering_gini": spread(gini)},
    ),
    replay(
        "E6",
        "Figure 5.6 — effect of the replication scheme on filtering load distribution",
        "rewriter replication: filtering load",
        "each tuple's al-index goes to one replica, so the hottest "
        "rewriter's filtering load drops roughly by the factor while "
        "total filtering work stays put.",
        replication_grids,
        REPLICATION_KEYS,
        {
            "max_rewriter_filtering": metric("load.al_filtering_max"),
            "al_filtering_total": metric("load.al_filtering"),
            "rows_delivered": column("notifications_delivered"),
        },
    ),
    replay(
        "E7",
        "Figure 5.7 — effect of the replication scheme on storage load distribution",
        "rewriter replication: storage load",
        "queries are stored at every replica, so attribute-level storage "
        "grows by the replication factor — the price of the filtering "
        "balance of E6.",
        replication_grids,
        REPLICATION_KEYS,
        {
            "max_rewriter_storage": metric("load.al_storage_max"),
            "al_storage_total": metric("load.al_storage"),
            "rows_delivered": column("notifications_delivered"),
        },
    ),
    replay(
        "E8",
        "Figure 5.8 — window size and installed queries vs. total evaluator filtering load",
        "evaluator filtering load vs. window and |Q|",
        "larger windows keep more value-level state alive, so every "
        "arriving message scans more candidates; load also grows with "
        "the number of installed queries.",
        window_grids,
        WINDOW_KEYS,
        {
            "evaluator_filtering": metric("load.vl_filtering"),
            "rows_delivered": column("notifications_delivered"),
        },
    ),
    replay(
        "E9",
        "Figure 5.9 — window size and installed queries vs. total evaluator storage load",
        "evaluator storage load vs. window and |Q|",
        "storage is measured after final window eviction.",
        window_grids,
        WINDOW_KEYS,
        {
            "evaluator_storage": metric("load.vl_storage"),
            "rows_delivered": column("notifications_delivered"),
        },
    ),
    replay(
        "E10",
        "Figure 5.10 — TF and TS load distribution comparison for all algorithms",
        "total filtering/storage load and distribution, all algorithms",
        "DAI-V concentrates load (value-only identifiers, no attribute "
        "prefix); the two-level algorithms spread it across more nodes. "
        "The curves plot per-node filtering load, most loaded first.",
        lambda scale: [grid(scale)],
        named("algorithm"),
        {
            "TF": metric("load.TF"),
            "TS": metric("load.TS"),
            "filtering_gini": spread(gini),
            "storage_gini": spread(gini, "storage"),
            "max_filtering": hottest("filtering"),
            "max_storage": hottest("storage"),
            "participation": spread(participation),
        },
        curves=mean_curves,
    ),
    replay(
        "E11",
        "Figure 5.11 — total filtering and storage load distribution, two-level algorithms",
        "attribute-level vs value-level load, two-level algorithms",
        "DAI-T's evaluators store rewritten queries instead of tuples, "
        "trading storage shape for the reindex-once traffic win.",
        lambda scale: [grid(scale, algorithms=("sai", "dai-q", "dai-t"))],
        named("algorithm"),
        {
            "al_filtering": metric("load.al_filtering"),
            "vl_filtering": metric("load.vl_filtering"),
            "al_storage": metric("load.al_storage"),
            "vl_storage": metric("load.vl_storage"),
            "filtering_gini": spread(gini),
            "storage_gini": spread(gini, "storage"),
        },
    ),
    replay(
        "E12",
        "Figure 5.12 — filtering load distribution vs. frequency of incoming tuples",
        "scaling the tuple arrival rate",
        "load grows with the stream rate but its distribution shape is stable.",
        lambda scale: scaling(
            scale.scaled(queries=0.5, tuples=0.5), "tuples", (1.0, 2.0, 4.0)
        ),
        named("factor", "n_tuples", "algorithm"),
        FILTERING_SHAPE,
    ),
    replay(
        "E13",
        "Figure 5.13 — filtering load distribution vs. number of indexed queries",
        "scaling the number of installed queries",
        "more installed queries mean more candidates per bucket everywhere.",
        lambda scale: scaling(
            scale.scaled(queries=0.35, tuples=0.5), "queries", (1.0, 2.0, 4.0)
        ),
        named("factor", "n_queries", "algorithm"),
        FILTERING_SHAPE,
    ),
    replay(
        "E14",
        "Figure 5.14 — filtering load distribution vs. network size",
        "scaling the network size",
        "growing the overlay relieves nodes: new nodes take a share of "
        "the existing workload, so the per-node mean drops.",
        network_growth(ALGORITHMS),
        named("factor", "n_nodes", "algorithm"),
        {
            "mean_filtering": mean_filtering,
            "max_filtering": hottest("filtering"),
            "participation": spread(participation),
        },
    ),
    replay(
        "E15",
        "Figure 5.15 — filtering load of the most loaded nodes vs. network size",
        "the hottest nodes under network growth",
        "max_filtering and the hottest node's share of TF shrink as "
        "nodes join, until the indivisible attribute-level hotspot "
        "floors them — the residual the replication scheme (E6) removes.",
        network_growth(("sai", "dai-t")),
        named("factor", "n_nodes", "algorithm"),
        {
            "max_filtering": hottest("filtering"),
            "hottest_share": hottest_share,
            "filtering_gini": spread(gini),
        },
    ),
    replay(
        "E16",
        "Figure 5.16 — DAI-V filtering load distribution vs. network size, queries, tuples",
        "DAI-V under each scaling axis",
        "DAI-V evaluators are chosen by join value alone, so its "
        "distribution reacts to the value skew rather than to the "
        "attribute mix.",
        daiv_axes,
        named("axis", "factor", "n_nodes", "n_queries", "n_tuples"),
        FILTERING_SHAPE,
    ),
    replay(
        "E17",
        "Section 4.5 — keyed DAI-V traffic (paper: ~×250 at 10^4 nodes / 10^5 queries)",
        "DAI-V: grouped vs keyed reindexing",
        "prefixing Key(q) to the value spreads load per query but "
        "destroys grouping: every triggered query needs its own routed "
        "join message; the blow-up grows with |Q|.",
        lambda scale: [
            grid(
                scale.scaled(queries=0.4, tuples=0.15),
                algorithms=("dai-v",),
                overrides=(None, {"engine": {"daiv_keyed": True}}),
            )
        ],
        {
            "variant": lambda row: (
                "keyed" if "engine" in (row["overrides"] or {}) else "grouped"
            )
        },
        {
            "hops_per_tuple": hops_per_tuple,
            "join_messages": metric("stream_traffic.messages_by_type.join", 0),
        },
        then=blowup,
        derived=("blowup",),
    ),
)

#: Every table and figure by id, in presentation order.
FIGURES = {figure.id: figure for figure in _FIGURES}
