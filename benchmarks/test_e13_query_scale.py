"""E13 — Figure 5.13: filtering-load distribution vs. number of queries.

Shape: per-node filtering grows with |Q| for every algorithm; the
distribution shape is stable because new queries land on the existing
rewriter/evaluator structure.
"""


def test_e13_query_scale(table):
    rows = table("E13")

    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        series = sorted(
            (row for row in rows if row["algorithm"] == algorithm),
            key=lambda row: row["factor"],
        )
        means = [row["mean_filtering"] for row in series]
        assert means == sorted(means), algorithm
        assert means[-1] > means[0] * 1.5, algorithm
        ginis = [row["filtering_gini"] for row in series]
        assert max(ginis) - min(ginis) < 0.3, algorithm
