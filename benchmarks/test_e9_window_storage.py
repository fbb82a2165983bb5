"""E9 — Figure 5.9: window size and |Q| vs. total evaluator storage.

Shape: after eviction, value-level storage is proportional to the
window (only the last window of tuples / rewritten queries is live);
DAI-T's storage exceeds SAI's at the same window because both sides of
every query are rewritten and stored.
"""


def test_e9_window_storage(table):
    rows = table("E9")

    for algorithm in ("sai", "dai-t"):
        for n_queries in {row["n_queries"] for row in rows}:
            series = [
                row
                for row in rows
                if row["algorithm"] == algorithm and row["n_queries"] == n_queries
            ]
            storage = [row["evaluator_storage"] for row in series]
            assert storage == sorted(storage), (algorithm, n_queries)
            assert storage[-1] > storage[0]

    # DAI-T stores rewritten queries for both sides: at the unbounded
    # window and full query load it holds more evaluator state than SAI.
    def unbounded(algorithm):
        candidates = [
            row["evaluator_storage"]
            for row in rows
            if row["algorithm"] == algorithm and row["window"] == "unbounded"
        ]
        return max(candidates)

    assert unbounded("dai-t") > unbounded("sai")
