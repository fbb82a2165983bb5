"""E15 — Figure 5.15: the most loaded nodes vs. network size.

Shape: the absolute filtering load of the hottest node — and its share
of the total filtering work — shrinks as the network grows (new nodes
split hot identifier ranges), until the single-rewriter hotspot floors
it (the residual the replication scheme removes).
"""


def test_e15_most_loaded(table):
    rows = table("E15")

    for algorithm in ("sai", "dai-t"):
        series = sorted(
            (row for row in rows if row["algorithm"] == algorithm),
            key=lambda row: row["n_nodes"],
        )
        assert series[-1]["max_filtering"] < series[0]["max_filtering"], algorithm
        assert series[-1]["hottest_share"] < series[0]["hottest_share"], algorithm
