"""E3 — Figure 5.3: number of installed queries vs. network traffic.

Paper shape: traffic per insertion grows with |Q| but **sublinearly**
thanks to query grouping (one join message serves every query with the
same join condition and evaluator); DAI-V's join-message count
saturates fastest because its grouping ignores attribute names.
"""


def test_e3_query_count(table):
    rows = table("E3")
    query_counts = sorted({row["n_queries"] for row in rows})
    assert len(query_counts) >= 3

    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        series = [
            row
            for row in rows
            if row["algorithm"] == algorithm
        ]
        series.sort(key=lambda row: row["n_queries"])
        hops = [row["hops_per_tuple"] for row in series]
        # More queries -> more traffic ...
        assert hops[-1] > hops[0], algorithm
        # ... but sublinearly: a 10x query increase costs far less
        # than 10x the traffic.
        query_growth = series[-1]["n_queries"] / series[0]["n_queries"]
        traffic_growth = hops[-1] / max(hops[0], 1e-9)
        assert traffic_growth < query_growth * 0.6, algorithm

    # DAI-V join messages grow the least across the sweep.
    def join_growth(algorithm):
        series = sorted(
            (row for row in rows if row["algorithm"] == algorithm),
            key=lambda row: row["n_queries"],
        )
        return series[-1]["join_messages"] / max(series[0]["join_messages"], 1)

    assert join_growth("dai-v") <= min(
        join_growth("sai"), join_growth("dai-q"), join_growth("dai-t")
    )
