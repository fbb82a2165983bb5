"""E7 — Figure 5.7: the replication scheme vs. storage distribution.

Shape: queries are stored at *every* replica, so attribute-level
storage grows exactly linearly in the replication factor — the price
paid for the filtering balance of E6.
"""


def test_e7_replication_storage(table):
    rows = table("E7")
    by_factor = {row["replication"]: row for row in rows}

    base = by_factor[1]["al_storage_total"]
    for factor in (2, 4, 8):
        assert by_factor[factor]["al_storage_total"] == base * factor

    # Same answers regardless of the factor.
    assert len({row["rows_delivered"] for row in rows}) == 1
