"""Profile and stage-sweep payloads as builds before the packed
measurement layout wrote them.

Profile versions 1 (homogeneous) and 2 (mixed-GPU, with
``stage_blocking_w``) and stage-sweep version 1 held each measurement
as a ``[clock, time, energy]`` JSON row.  The current reader rejects
them, so the store treats such a file as a miss; these helpers turn a
current payload into the older one, reading its packed columns with
:mod:`struct` through :func:`reference.frontier_v3.unpack`.
"""

from __future__ import annotations

from reference.frontier_v3 import unpack


def measurement_rows(columns: dict) -> list:
    """Packed measurement columns as ``[clock, time, energy]`` rows."""
    return [list(row) for row in zip(
        unpack(columns["freq_mhz"], "i"), unpack(columns["time_s"], "d"),
        unpack(columns["energy_j"], "d"))]


def as_old_payload(payload: dict) -> dict:
    """A current profile or stage-sweep payload as an older build wrote
    it: a homogeneous profile at version 1, a mixed one at version 2, a
    stage sweep at version 1."""
    if payload["kind"] == "stage_sweep":
        return dict(payload, version=1, measurements=measurement_rows(
            payload["measurements"]))
    return dict(payload, version=2 if "stage_blocking_w" in payload else 1,
                ops=[dict(entry, measurements=measurement_rows(
                    entry["measurements"])) for entry in payload["ops"]])
