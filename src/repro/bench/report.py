"""Rendering of result rows as text tables, curves and markdown."""

from __future__ import annotations

from typing import Any


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    return str(value)


def ascii_curve(
    values: list[float],
    *,
    label: str = "",
    width: int = 64,
    height: int = 8,
) -> str:
    """Plot one descending curve (e.g. sorted per-node loads) in ASCII.

    The x axis is downsampled to ``width`` points; the y axis is linear
    from 0 to the maximum.  Good enough to eyeball the shape of the
    paper's load-distribution figures in a terminal.
    """
    if not values:
        return f"{label}: (empty)"
    # Downsample by taking the maximum of each bucket so peaks survive.
    buckets: list[float] = []
    count = len(values)
    points = min(width, count)
    for index in range(points):
        start = index * count // points
        stop = max(start + 1, (index + 1) * count // points)
        buckets.append(max(values[start:stop]))
    top = max(buckets)
    if top <= 0:
        return f"{label}: (all zero)"
    grid = [[" "] * points for _ in range(height)]
    for x, bucket in enumerate(buckets):
        bar = int(round((bucket / top) * height))
        for y in range(bar):
            grid[height - 1 - y][x] = "█" if y < bar - 1 else "▀"
    lines = [f"{label}  (max = {top:g}, {count} nodes)"]
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * points + " nodes, most loaded first")
    return "\n".join(lines)


def render_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """A plain fixed-width text table."""
    rendered_rows = [[_format(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(column), *(len(r[i]) for r in rendered_rows)) if rendered_rows else len(column)
        for i, column in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    lines = [header, separator]
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(rendered, widths)))
    return "\n".join(lines)


def render_markdown(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """The same table as GitHub-flavoured markdown."""
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    lines.extend(
        "| " + " | ".join(_format(row.get(c)) for c in columns) + " |" for row in rows
    )
    return "\n".join(lines)
