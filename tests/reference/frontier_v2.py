"""The version-2 frontier writer: one ``rows`` entry per point.

Stores written by older builds hold these payloads, which
:func:`repro.core.serialization.frontier_from_dict` rejects; the tests
build their version-2 files here, and :mod:`.frontier_v3` regroups
them into the oracle for the current writer.  The first point is a
full row (``ids``, ``durations``, ``frequencies``); each later point is
a flat ``[index, duration, frequency, ...]`` list of the entries that
changed from its predecessor, or a full row again where the key set or
key order changes (carrying ``frequency_ids`` when its frequencies are
keyed apart from its durations).
"""

from __future__ import annotations

import math

from repro.core.frontier import Frontier


def _same(a, b) -> bool:
    """Bit-level equality for JSON numbers (``0.0`` and ``-0.0`` differ)."""
    return a == b and (a or math.copysign(1.0, a) == math.copysign(1.0, b))


def _layout(point):
    ids = list(point.durations)
    if not point.frequencies:
        return ids, False
    if list(point.frequencies) == ids:
        return ids, True
    return None


def _full_row(point, regular: bool) -> dict:
    row = {"ids": list(point.durations),
           "durations": list(point.durations.values()),
           "frequencies": list(point.frequencies.values())}
    if not regular:
        row["frequency_ids"] = list(point.frequencies)
    return row


def _delta_row(point, prev) -> list:
    row = []
    none = [None] * len(point.durations)
    for i, (d, pd, f, pf) in enumerate(zip(
            point.durations.values(), prev.durations.values(),
            point.frequencies.values() or none,
            prev.frequencies.values() or none)):
        if not (_same(d, pd) and f == pf):
            row += (i, d, f)
    return row


def frontier_to_dict_v2(frontier: Frontier) -> dict:
    """``frontier`` as a version-2 payload."""
    points = frontier.points
    rows = []
    prev = prev_layout = None
    for point in points:
        layout = _layout(point)
        if layout is not None and layout == prev_layout:
            rows.append(_delta_row(point, prev))
        else:
            rows.append(_full_row(point, layout is not None))
        prev, prev_layout = point, layout
    return {
        "version": 2,
        "kind": "frontier",
        "tau": frontier.tau,
        "optimizer_runtime_s": frontier.optimizer_runtime_s,
        "steps": frontier.steps,
        "stats": dict(frontier.stats),
        "iteration_time": [p.iteration_time for p in points],
        "effective_energy": [p.effective_energy for p in points],
        "compute_energy": [p.compute_energy for p in points],
        "rows": rows,
    }
