"""Text rendering of figure results (the tables the benchmarks print)."""

from __future__ import annotations

import math
from typing import List

from repro.experiments.series import FigureResult


def _xs(figure: FigureResult) -> List[float]:
    """Every x value of the figure's series, ascending (one table row each)."""
    return sorted({x for series in figure.series for x in series.xs()})


def format_figure(figure: FigureResult) -> str:
    """Render a figure as a fixed-width text table (one row per x value)."""
    lines: List[str] = []
    lines.append(f"Figure {figure.figure}: {figure.title}")
    lines.append(f"  x = {figure.x_label}; cells = {figure.y_label} (mean ± 95% CI)")
    if not figure.series:
        lines.append("  (no data)")
        return "\n".join(lines)

    widths = [max(16, len(series.label)) for series in figure.series]
    header = "  " + "x".rjust(12) + "  " + "  ".join(
        series.label.rjust(width) for series, width in zip(figure.series, widths)
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for x in _xs(figure):
        cells = []
        for series, width in zip(figure.series, widths):
            point = series.point_at(x)
            cells.append(("" if point is None else point.formatted()).rjust(width))
        lines.append("  " + f"{x:12g}" + "  " + "  ".join(cells))
    for note in figure.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def format_markdown_table(figure: FigureResult) -> str:
    """Render a figure as a GitHub-flavoured markdown table."""
    lines: List[str] = []
    lines.append(f"**Figure {figure.figure} — {figure.title}**")
    lines.append("")
    header = "| " + figure.x_label + " | " + " | ".join(s.label for s in figure.series) + " |"
    divider = "|" + "---|" * (len(figure.series) + 1)
    lines.append(header)
    lines.append(divider)
    for x in _xs(figure):
        cells = []
        for series in figure.series:
            point = series.point_at(x)
            if point is None:
                cells.append("")
            elif not point.completed or math.isnan(point.mean):
                cells.append("did not complete")
            else:
                cells.append(f"{point.mean:.1f} ± {point.ci:.1f}")
        lines.append("| " + f"{x:g}" + " | " + " | ".join(cells) + " |")
    lines.append("")
    for note in figure.notes:
        lines.append(f"*{note}*")
    return "\n".join(lines)
