"""Plain-text table rendering for benchmark and harness reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_fmt: str = "{:.3f}",
    min_width: int = 6,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table.

    Floats are formatted with ``float_fmt``; everything else via ``str``.
    """
    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [max(min_width, len(h)) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for j, text in enumerate(row):
            widths[j] = max(widths[j], len(text))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(text.ljust(widths[j]) for j, text in enumerate(cells)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out = [line(list(headers)), sep]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)
