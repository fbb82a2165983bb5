"""Tests for experiment-result rendering."""

from repro.bench.figures import Figure
from repro.bench.report import render_markdown, render_table

ROWS = [
    {"name": "alpha", "count": 12000, "ratio": 1.5},
    {"name": "beta", "count": 7, "ratio": 0.333333},
]


def sample_figure():
    return Figure(
        id="E0",
        figure="Figure 0.0 — test",
        title="a test table",
        columns=("name", "count", "ratio"),
        notes="some notes",
        extract=lambda scale: ROWS,
    )


class TestRenderTable:
    def test_contains_headers_and_values(self):
        text = render_table(["a", "b"], [{"a": 1, "b": "x"}])
        assert "a" in text and "b" in text and "x" in text

    def test_missing_cell_rendered_as_none(self):
        text = render_table(["a", "b"], [{"a": 1}])
        assert "None" in text

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text

    def test_large_ints_thousands_separated(self):
        text = render_table(["n"], [{"n": 1234567}])
        assert "1,234,567" in text

    def test_float_formatting(self):
        text = render_table(["x"], [{"x": 0.333333}])
        assert "0.333" in text


class TestExperimentResult:
    """One experiment's result rows under its figure's header."""

    def test_to_text(self):
        text = sample_figure().to_text(ROWS)
        assert "E0" in text
        assert "Figure 0.0" in text
        assert "alpha" in text
        assert "some notes" in text

    def test_to_markdown(self):
        md = sample_figure().to_markdown(ROWS)
        assert md.startswith("### E0")
        assert "| name | count | ratio |" in md
        assert "| alpha |" in md


class TestAsciiCurve:
    def test_empty(self):
        from repro.bench.report import ascii_curve

        assert "(empty)" in ascii_curve([], label="x")

    def test_all_zero(self):
        from repro.bench.report import ascii_curve

        assert "(all zero)" in ascii_curve([0, 0, 0], label="x")

    def test_shape_and_label(self):
        from repro.bench.report import ascii_curve

        chart = ascii_curve([10, 8, 5, 2, 1, 0], label="loads", height=4)
        assert chart.startswith("loads")
        assert "max = 10" in chart
        assert "most loaded first" in chart
        # 4 grid rows + header + axis.
        assert len(chart.splitlines()) == 6

    def test_downsampling_keeps_peak(self):
        from repro.bench.report import ascii_curve

        values = [1.0] * 500
        values[0] = 99.0
        chart = ascii_curve(values, width=10)
        assert "max = 99" in chart

    def test_all_negative_degrades_to_all_zero(self):
        from repro.bench.report import ascii_curve

        assert "(all zero)" in ascii_curve([-3.0, -1.0], label="x")


class TestEdgePaths:
    def test_to_text_renders_series_charts(self):
        text = sample_figure().to_text(ROWS, {"loads": [5.0, 3.0, 1.0]})
        assert "loads" in text
        assert "max = 5" in text

    def test_to_markdown_without_notes_has_no_notes_block(self):
        md = render_markdown(["name", "count"], ROWS)
        assert md.splitlines()[0] == "| name | count |"
        assert "some notes" not in md and "12,000" in md

    def test_format_handles_negative_and_large_floats(self):
        from repro.bench.report import _format

        assert _format(-12345.6) == "-12,346"
        assert _format(0.0) == "0"
        assert _format(True) in ("True", "1")  # bools are ints; stays total
