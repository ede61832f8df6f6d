"""CSV export of report rows (``repro sweep`` / ``repro fleet``).

The CLI prints tables; with ``--format csv`` (or ``-o`` without a
format) it writes the same rows through :func:`write_series`, so they
can be plotted with any stack (the repository itself stays
matplotlib-free).
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Sequence


def write_series(
    fp: IO[str], headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write one CSV table; returns the number of data rows."""
    writer = csv.writer(fp)
    writer.writerow(list(headers))
    count = 0
    for row in rows:
        writer.writerow(list(row))
        count += 1
    return count
