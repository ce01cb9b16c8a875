"""Plain-text rendering of experiment results.

The paper reports bar charts and tables; since this library runs headless,
each experiment's results can be rendered as an aligned text table whose
rows/series correspond one-to-one with what the paper plots.  The
examples and ``python -m repro.experiments run``/``report`` use these
helpers.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence


def format_table(
    title: str,
    column_labels: Sequence[str],
    rows: Mapping[str, Sequence[float]],
    value_format: str = "{:8.2f}",
    row_header: str = "scheme",
) -> str:
    """Render ``rows`` (label -> series) as an aligned text table."""
    label_width = max(len(row_header), *(len(str(label)) for label in rows)) if rows else len(row_header)
    header_cells = [f"{row_header:<{label_width}}"] + [f"{label:>10}" for label in column_labels]
    lines = [title, "  ".join(header_cells)]
    for label, values in rows.items():
        cells = [f"{str(label):<{label_width}}"]
        for value in values:
            cells.append(f"{value_format.format(value):>10}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def nested_to_rows(
    nested: Mapping[str, Mapping[object, float]], column_keys: Sequence[object]
) -> Dict[str, list]:
    """Flatten {series: {x: y}} into {series: [y for x in column_keys]}."""
    rows: Dict[str, list] = {}
    for series, mapping in nested.items():
        rows[series] = [mapping.get(key, float("nan")) for key in column_keys]
    return rows


def render_panel(
    title: str, nested: Mapping[str, Mapping[object, float]], column_keys: Sequence[object]
) -> str:
    """Convenience wrapper: title + table for a {scheme: {x: throughput}} panel."""
    rows = nested_to_rows(nested, column_keys)
    return format_table(title, [str(key) for key in column_keys], rows)


def render_blocks(blocks: Mapping[str, Mapping[object, Mapping[object, float]]]) -> str:
    """Each ``{title: {row: {column: value}}}`` block as a table, columns in first-row order."""
    return "\n\n".join(
        render_panel(title, table, list(next(iter(table.values()))))
        for title, table in blocks.items()
    )
