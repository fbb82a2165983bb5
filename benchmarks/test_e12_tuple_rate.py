"""E12 — Figure 5.12: filtering-load distribution vs. tuple frequency.

Shape: mean per-node filtering grows with the stream rate for every
algorithm ("when the rate of incoming tuples in a given time window
increases ... a higher query processing load"), and the load keeps
being spread over the same node population (participation is stable).
"""


def test_e12_tuple_rate(table):
    rows = table("E12")

    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        series = sorted(
            (row for row in rows if row["algorithm"] == algorithm),
            key=lambda row: row["factor"],
        )
        means = [row["mean_filtering"] for row in series]
        assert means == sorted(means), algorithm
        assert means[-1] > means[0] * 1.5, algorithm
        # The distribution shape stays in a sane band (no collapse onto
        # a single node as rate grows).
        ginis = [row["filtering_gini"] for row in series]
        assert max(ginis) - min(ginis) < 0.3, algorithm
