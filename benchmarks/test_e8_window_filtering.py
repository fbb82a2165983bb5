"""E8 — Figure 5.8: window size and |Q| vs. total evaluator filtering.

Shape: total evaluator (value-level) filtering load grows with the
sliding-window size (more live candidates per arriving message) and
with the number of installed queries.
"""


def test_e8_window_filtering(table):
    rows = table("E8")

    for algorithm in ("sai", "dai-t"):
        for n_queries in {row["n_queries"] for row in rows}:
            series = [
                row
                for row in rows
                if row["algorithm"] == algorithm and row["n_queries"] == n_queries
            ]
            # Rows come out in increasing window order; "unbounded" last.
            filtering = [row["evaluator_filtering"] for row in series]
            assert filtering == sorted(filtering), (algorithm, n_queries)
            assert filtering[-1] > filtering[0]

        # More queries -> more filtering at the same window.
        by_queries = {}
        for row in rows:
            if row["algorithm"] == algorithm and row["window"] == "unbounded":
                by_queries[row["n_queries"]] = row["evaluator_filtering"]
        counts = sorted(by_queries)
        assert by_queries[counts[-1]] > by_queries[counts[0]]
