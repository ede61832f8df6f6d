"""CSV export of report rows (``repro sweep``/``repro fleet --format csv``)."""

import csv
import io

from repro.experiments.export import write_series


def test_write_series_csv(small_optimizer):
    points = small_optimizer.frontier.points
    buf = io.StringIO()
    n = write_series(
        buf, ["iteration_time_s", "effective_energy_j"],
        ((p.iteration_time, p.effective_energy) for p in points),
    )
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0] == ["iteration_time_s", "effective_energy_j"]
    assert n == len(points) == len(rows) - 1
    assert [float(r[0]) for r in rows[1:]] == [p.iteration_time for p in points]
