"""E14 — Figure 5.14: filtering-load distribution vs. network size.

Shape: "when the overlay network grows, query processing becomes easier
since new nodes relieve other nodes by taking a portion of the existing
workload" — with the workload fixed, the per-node mean filtering load
drops roughly linearly in the node count.
"""


def test_e14_network_size(table):
    rows = table("E14")

    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        series = sorted(
            (row for row in rows if row["algorithm"] == algorithm),
            key=lambda row: row["n_nodes"],
        )
        means = [row["mean_filtering"] for row in series]
        # Mean load falls monotonically as the network grows ...
        assert all(a >= b for a, b in zip(means, means[1:])), algorithm
        # ... and an 8x network cuts the mean by at least 4x.
        assert means[-1] < means[0] / 4, algorithm
