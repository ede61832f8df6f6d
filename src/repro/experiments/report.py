"""Plain-text table rendering for benchmark output.

Benchmarks print rows shaped like the paper's tables next to the paper's
own numbers, so a reader can eyeball shape agreement straight from
``python -m pytest benchmarks/bench_table3_intrinsic.py -s`` output; the
benchmark harness also commits every printed cell to
``benchmarks/BENCH_paper.json``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with auto-sized columns."""
    str_rows: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cell(cell: object) -> str:
    """A table cell as :func:`format_table` prints it."""
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
