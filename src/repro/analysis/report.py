"""Plain-text table formatting.

The benchmark harness prints the rows/series each experiment regenerates
(the paper has no numeric tables, so these are the reproduction's own
measurements).  Keeping the formatter here means every benchmark and
example prints results the same way and the tests can assert on the
structure rather than on ad-hoc string building.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], *, title: str = "") -> str:
    """Render a list of row dictionaries as an aligned plain-text table.

    Column order follows the keys of the first row; missing values render
    as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered_rows = []
    for row in rows:
        rendered_rows.append([_render(row.get(column)) for column in columns])
    widths = [
        max(len(str(column)), *(len(rendered[i]) for rendered in rendered_rows))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(rendered, widths)))
    return "\n".join(lines)


def _render(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
