"""Reporting helpers: paper-style ASCII charts for the sweep report.

The evaluation figures of the paper are line charts over lock depth.
These renderers draw them, and contention heatmaps, as monospace text,
so a rendered sweep report doubles as the figures.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_GLYPHS = "*o+x#@%&"


def line_chart(
    series: Mapping[str, Sequence[float]],
    *,
    x_labels: Sequence[object],
    title: str = "",
    height: int = 12,
    y_label: str = "",
) -> str:
    """Render several aligned series as an ASCII line chart.

    ``series`` maps a name to one value per x position (the lock-depth
    sweeps of Figures 7, 9, 10).
    """
    names = list(series)
    if not names:
        return title
    columns = len(x_labels)
    peak = max((max(values) for values in series.values()), default=0.0)
    peak = max(peak, 1.0)
    grid = [[" "] * (columns * 4) for _row in range(height)]
    for index, name in enumerate(names):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, value in enumerate(series[name]):
            row = height - 1 - int(round((value / peak) * (height - 1)))
            grid[row][x * 4 + 1] = glyph

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        level = peak * (height - 1 - row_index) / (height - 1)
        lines.append(f"{level:8.0f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * (columns * 4))
    lines.append(
        " " * 10 + "".join(f"{str(label):<4}" for label in x_labels)
        + ("  " + y_label if y_label else "")
    )
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {name}" for i, name in enumerate(names)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def heatmap(
    grid: Mapping[str, Mapping[object, float]],
    *,
    columns: Sequence[object],
    title: str = "",
) -> str:
    """Render a rows x columns intensity grid with shade glyphs.

    ``grid`` maps a row name (protocol) to ``{column: value}`` (e.g. lock
    depth -> blocking time); shading is normalized to the grid's peak, so
    the hottest cell is always the darkest glyph.  Used for the sweep
    report's contention heatmaps.
    """
    shades = " .:-=+*#%@"
    peak = max(
        (value for row in grid.values() for value in row.values()),
        default=0.0,
    )
    lines = [title] if title else []
    header = " " * 12 + "".join(f"{str(column):>6}" for column in columns)
    lines.append(header)
    for name, row in grid.items():
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append(f"{'':>6}")
                continue
            level = 0 if peak <= 0 else int(
                round((value / peak) * (len(shades) - 1))
            )
            cells.append(f"{shades[level] * 3:>6}")
        lines.append(f"  {str(name):<10}" + "".join(cells))
    lines.append(
        f"  scale: ' ' = 0 .. '@' = {peak:.2f} (grid peak)"
    )
    return "\n".join(lines)
