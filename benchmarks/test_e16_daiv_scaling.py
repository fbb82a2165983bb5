"""E16 — Figure 5.16: DAI-V under each scaling axis.

Shape: DAI-V reacts to each axis the way the paper describes — growing
the network relieves nodes (mean drops), growing queries or tuples
raises the mean — while its distribution stays governed by the value
skew (gini in a stable band).
"""


def test_e16_daiv_scaling(table):
    rows = table("E16")

    def pair(axis):
        series = sorted(
            (row for row in rows if row["axis"] == axis),
            key=lambda row: row["factor"],
        )
        return series[0], series[-1]

    small, big = pair("nodes")
    assert big["mean_filtering"] < small["mean_filtering"]

    small, big = pair("queries")
    assert big["mean_filtering"] > small["mean_filtering"]

    small, big = pair("tuples")
    assert big["mean_filtering"] > small["mean_filtering"]

    for row in rows:
        assert 0.0 <= row["filtering_gini"] < 1.0
