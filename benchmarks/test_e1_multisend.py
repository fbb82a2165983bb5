"""E1 — Figure 5.1: recursive vs. iterative multisend.

Paper shape: both designs cost ``O(k log N)`` but the recursive sweep
"has in practice a significantly better performance", with the
advantage growing in the number of recipients ``k``.
"""


def test_e1_multisend(table):
    rows = table("E1")

    # Recursive never loses, and wins clearly for k >= 16.
    for row in rows:
        assert row["recursive_hops"] <= row["iterative_hops"] + 1e-9
        if row["k"] >= 16:
            assert row["recursive_hops"] < row["iterative_hops"]

    # The savings factor grows with k (paper: the sweep amortizes
    # routing work over recipients).
    savings = [row["savings"] for row in rows]
    assert savings[-1] > savings[0]
    assert savings[-1] > 2.0

    # Iterative cost is ~k independent lookups: roughly linear in k.
    first, last = rows[0], rows[-1]
    growth = last["iterative_hops"] / max(first["iterative_hops"], 1e-9)
    assert growth > (last["k"] / first["k"]) * 0.3
