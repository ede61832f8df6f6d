"""Persistence for profiles, frontiers and plan specs.

A cluster-wide Perseus server caches energy schedules "for fast lookup"
(§3.2); across server restarts or for offline analysis, profiles and
characterized frontiers round-trip through plain JSON here.  Formats are
versioned and deliberately flat (no pickling) so they diff cleanly and can
be consumed by plotting tools.  :class:`repro.api.PlanSpec` payloads
(kind ``plan_spec``) take part in the same ``save_json``/``load_json``
dispatch so sweep manifests live next to their artifacts.
"""

from __future__ import annotations

import json
import math
from typing import IO, List, Sequence

from ..exceptions import ReproError
from ..partition.algorithms import PartitionResult
from ..profiler.measurement import Measurement, OpProfile, PipelineProfile
from .frontier import Frontier
from .schedule import EnergySchedule

FORMAT_VERSION = 1

#: Frontier payloads are columnar with per-point deltas (see
#: :func:`frontier_to_dict`); version 1 (a list of full points) stays
#: readable because existing stores hold frontiers that take minutes to
#: re-crawl.
FRONTIER_FORMAT_VERSION = 2

#: Pipeline-profile payloads carrying the per-stage ``stage_blocking_w``
#: map (mixed-GPU clusters) are stamped version 2 so pre-mixed-cluster
#: readers reject them loudly instead of silently averaging the per-stage
#: blocking powers; homogeneous profiles keep writing version 1.
PROFILE_FORMAT_VERSION_MIXED = 2


class SerializationError(ReproError):
    """Payload is malformed or from an unsupported format version."""


#: What reading a payload of the right kind but the wrong shape raises.
_MALFORMED = (KeyError, TypeError, IndexError, ValueError, AttributeError)


def _op_key_to_json(op) -> list:
    return list(op)


def _op_key_from_json(raw) -> tuple:
    return tuple(raw)


# ---------------------------------------------------------------------------
# PipelineProfile
# ---------------------------------------------------------------------------


def profile_to_dict(profile: PipelineProfile) -> dict:
    """JSON-ready representation of a pipeline profile.

    Mixed-GPU profiles carry the optional ``stage_blocking_w`` map
    (absent for homogeneous profiles, so old payloads stay valid).
    """
    payload = {
        "version": (PROFILE_FORMAT_VERSION_MIXED
                    if profile.stage_blocking_w is not None
                    else FORMAT_VERSION),
        "kind": "pipeline_profile",
        "p_blocking_w": profile.p_blocking_w,
    }
    if profile.stage_blocking_w is not None:
        payload["stage_blocking_w"] = {
            str(stage): w for stage, w in profile.stage_blocking_w.items()
        }
    payload["ops"] = [
            {
                "op": _op_key_to_json(op),
                "fixed": op_profile.fixed,
                "measurements": [
                    [m.freq_mhz, m.time_s, m.energy_j]
                    for m in op_profile.measurements
                ],
            }
            for op, op_profile in profile.ops.items()
        ]
    return payload


def profile_from_dict(payload: dict) -> PipelineProfile:
    """Inverse of :func:`profile_to_dict` (validates the result)."""
    _expect(payload, "pipeline_profile",
            versions=(FORMAT_VERSION, PROFILE_FORMAT_VERSION_MIXED))
    stage_blocking = payload.get("stage_blocking_w")
    profile = PipelineProfile(
        p_blocking_w=float(payload["p_blocking_w"]),
        stage_blocking_w=(
            {int(stage): float(w) for stage, w in stage_blocking.items()}
            if stage_blocking is not None
            else None
        ),
    )
    for entry in payload["ops"]:
        op = _op_key_from_json(entry["op"])
        op_profile = OpProfile(op=op, fixed=bool(entry["fixed"]))
        for freq, t, e in entry["measurements"]:
            op_profile.add(
                Measurement(freq_mhz=int(freq), time_s=float(t),
                            energy_j=float(e))
            )
        profile.ops[op] = op_profile
    profile.validate()
    return profile


# ---------------------------------------------------------------------------
# EnergySchedule / Frontier
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: EnergySchedule) -> dict:
    return {
        "iteration_time": schedule.iteration_time,
        "effective_energy": schedule.effective_energy,
        "compute_energy": schedule.compute_energy,
        "durations": {str(k): v for k, v in schedule.durations.items()},
        "frequencies": {str(k): v for k, v in schedule.frequencies.items()},
    }


def schedule_from_dict(payload: dict) -> EnergySchedule:
    return EnergySchedule(
        durations={int(k): float(v) for k, v in payload["durations"].items()},
        iteration_time=float(payload["iteration_time"]),
        effective_energy=float(payload["effective_energy"]),
        compute_energy=float(payload["compute_energy"]),
        frequencies={int(k): int(v) for k, v in payload["frequencies"].items()},
    )


def _same(a, b) -> bool:
    """Bit-level equality for JSON numbers (``0.0`` and ``-0.0`` differ)."""
    return a == b and (a or math.copysign(1.0, a) == math.copysign(1.0, b))


def _layout(point: EnergySchedule):
    """``(ids, has_frequencies)`` when the point's frequencies are empty
    or keyed exactly like its durations, else ``None`` (irregular)."""
    ids = list(point.durations)
    if not point.frequencies:
        return ids, False
    if list(point.frequencies) == ids:
        return ids, True
    return None


def _full_row(point: EnergySchedule, regular: bool) -> dict:
    row = {"ids": list(point.durations),
           "durations": list(point.durations.values()),
           "frequencies": list(point.frequencies.values())}
    if not regular:
        row["frequency_ids"] = list(point.frequencies)
    return row


def _delta_row(point: EnergySchedule, prev: EnergySchedule) -> list:
    """Flat ``[index, duration, frequency, ...]`` of the entries that
    changed from ``prev`` (same layout; frequency ``None`` when the
    layout carries none)."""
    row = []
    none = [None] * len(point.durations)
    for i, (d, pd, f, pf) in enumerate(zip(
            point.durations.values(), prev.durations.values(),
            point.frequencies.values() or none,
            prev.frequencies.values() or none)):
        if not (_same(d, pd) and f == pf):
            row += (i, d, f)
    return row


def frontier_to_dict(frontier: Frontier) -> dict:
    """JSON-ready representation of a characterized frontier (version 2).

    Columnar: one list per scalar (``iteration_time``,
    ``effective_energy``, ``compute_energy``) and one entry per point in
    ``rows``.  The first point is a full row (``ids``, ``durations``,
    ``frequencies`` -- the latter empty or aligned with ``ids``); each
    later point is a flat ``[index, duration, frequency, ...]`` list of
    the entries that changed from its predecessor.  A point whose key
    set or key order differs from its predecessor's gets a full row
    again (and one carrying ``frequency_ids`` when its frequencies are
    keyed differently from its durations).
    """
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
        "version": FRONTIER_FORMAT_VERSION,
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


class _StoredPoints:
    """The points of a version-2 frontier payload, decoded lazily.

    Construction checks the whole payload but builds no schedule.
    ``self[k]`` replays the delta rows up to ``k`` into one copy of the
    full row before them (lookups share no state, so threads may make
    them concurrently); iterating replays every row once.
    """

    def __init__(self, payload: dict) -> None:
        rows = payload["rows"]
        self.times = list(map(float, payload["iteration_time"]))
        self._effective = list(map(float, payload["effective_energy"]))
        self._compute = list(map(float, payload["compute_energy"]))
        if not (len(rows) == len(self.times) == len(self._effective)
                == len(self._compute)):
            raise SerializationError("frontier columns differ in length")
        if not all(map(float.__le__, self.times, self.times[1:])):
            raise SerializationError("frontier iteration times are unsorted")
        # Full rows as (durations, frequencies) dicts, delta rows as
        # (keys, durations, clocks or None) lists.
        self._rows = []
        self._bases = []  # the full row each point replays from
        ids = None
        for k, row in enumerate(rows):
            if isinstance(row, dict):
                ids = list(map(int, row["ids"]))
                values = list(map(float, row["durations"]))
                clocks = list(map(int, row["frequencies"]))
                frequency_ids = row.get("frequency_ids")
                if frequency_ids is None:
                    frequency_ids = ids if clocks else []
                else:
                    frequency_ids = list(map(int, frequency_ids))
                durations = dict(zip(ids, values))
                frequencies = dict(zip(frequency_ids, clocks))
                if not (len(durations) == len(values) == len(ids)
                        and len(frequencies) == len(clocks)
                        == len(frequency_ids)):
                    raise SerializationError("malformed frontier row")
                if "frequency_ids" in row:
                    ids = None  # deltas need frequencies keyed like ids
                self._rows.append((durations, frequencies))
                self._bases.append(k)
                continue
            if ids is None:
                raise SerializationError(
                    "delta row without a full row before it")
            index = row[0::3]
            if len(row) % 3 or not set(map(type, index)) <= {int} or (
                    index and (min(index) < 0 or max(index) >= len(ids))):
                raise SerializationError(f"malformed frontier delta row {k}")
            self._rows.append((list(map(ids.__getitem__, index)),
                               list(map(float, row[1::3])),
                               list(map(int, row[2::3])) if frequencies
                               else None))
            self._bases.append(self._bases[-1])

    def __len__(self) -> int:
        return len(self.times)

    def _replay(self, k: int, durations: dict, frequencies: dict) -> None:
        keys, values, clocks = self._rows[k]
        durations.update(zip(keys, values))
        if clocks is not None:
            frequencies.update(zip(keys, clocks))

    def __getitem__(self, k: int) -> EnergySchedule:
        k = range(len(self.times))[k]
        base = self._bases[k]
        durations, frequencies = (d.copy() for d in self._rows[base])
        for j in range(base + 1, k + 1):
            self._replay(j, durations, frequencies)
        return EnergySchedule(durations, self.times[k], self._effective[k],
                              self._compute[k], frequencies)

    def __iter__(self):
        for k, base in enumerate(self._bases):
            if base == k:
                durations, frequencies = self._rows[k]
            # Copies keep the key order; only changed entries are set.
            durations, frequencies = durations.copy(), frequencies.copy()
            if base != k:
                self._replay(k, durations, frequencies)
            yield EnergySchedule(durations, self.times[k], self._effective[k],
                                 self._compute[k], frequencies)


def frontier_from_dict(payload: dict) -> Frontier:
    """Inverse of :func:`frontier_to_dict`; also reads version 1 (a
    ``points`` list of :func:`schedule_to_dict` rows).

    A version-2 payload is checked whole here but decoded lazily: the
    frontier builds only the points it is asked for (see
    :class:`_StoredPoints`).
    """
    _expect(payload, "frontier", versions=(1, FRONTIER_FORMAT_VERSION))
    try:
        if payload["version"] == 1:
            points = [schedule_from_dict(p) for p in payload["points"]]
        else:
            points = _StoredPoints(payload)
    except _MALFORMED as exc:
        raise SerializationError(
            f"malformed frontier payload: {type(exc).__name__}: {exc}"
        ) from exc
    if not len(points):
        raise SerializationError("frontier payload has no points")
    return Frontier(
        points=points,
        tau=float(payload["tau"]),
        optimizer_runtime_s=float(payload.get("optimizer_runtime_s", 0.0)),
        steps=int(payload.get("steps", 0)),
        stats=dict(payload.get("stats", {})),
    )


# ---------------------------------------------------------------------------
# Plan-store artifacts: partitions, per-stage sweeps, taus
# ---------------------------------------------------------------------------


def partition_to_dict(partition: PartitionResult) -> dict:
    """JSON-ready representation of a partitioning result."""
    return {
        "version": FORMAT_VERSION,
        "kind": "partition",
        "boundaries": list(partition.boundaries),
        "stage_latencies": list(partition.stage_latencies),
        "ratio": partition.ratio,
    }


def partition_from_dict(payload: dict) -> PartitionResult:
    """Inverse of :func:`partition_to_dict`."""
    _expect(payload, "partition")
    return PartitionResult(
        boundaries=tuple(int(b) for b in payload["boundaries"]),
        stage_latencies=tuple(float(t) for t in payload["stage_latencies"]),
        ratio=float(payload["ratio"]),
    )


def stage_sweep_to_dict(measurements: Sequence[Measurement]) -> dict:
    """One (device, stage-workload) frequency sweep, JSON-ready.

    This is the unit the planner memoizes per ``(gpu, work, stride)`` to
    compose mixed-cluster profiles; persisting it lets a second process
    assemble new GPU mixes from sweeps measured by a first.
    """
    return {
        "version": FORMAT_VERSION,
        "kind": "stage_sweep",
        "measurements": [
            [m.freq_mhz, m.time_s, m.energy_j] for m in measurements
        ],
    }


def stage_sweep_from_dict(payload: dict) -> List[Measurement]:
    """Inverse of :func:`stage_sweep_to_dict`."""
    _expect(payload, "stage_sweep")
    return [
        Measurement(freq_mhz=int(f), time_s=float(t), energy_j=float(e))
        for f, t, e in payload["measurements"]
    ]


def tau_to_dict(tau: float) -> dict:
    """An auto-derived frontier granularity, JSON-ready.

    Tiny, but persisted: tau is part of the frontier's content address,
    so reusing the recorded value (instead of re-deriving it) is what
    guarantees a warm process addresses the exact same frontier file.
    """
    return {"version": FORMAT_VERSION, "kind": "tau", "value": tau}


def tau_from_dict(payload: dict) -> float:
    """Inverse of :func:`tau_to_dict`."""
    _expect(payload, "tau")
    return float(payload["value"])


# ---------------------------------------------------------------------------
# Generic payload dispatch (what the plan store reads/writes)
# ---------------------------------------------------------------------------


def payload_to_dict(obj) -> dict:
    """Versioned payload for any plan-store artifact.

    Dispatches on type: profiles, frontiers, partitions, per-stage
    measurement sweeps (lists of :class:`Measurement`) and tau floats.
    """
    if isinstance(obj, PipelineProfile):
        return profile_to_dict(obj)
    if isinstance(obj, Frontier):
        return frontier_to_dict(obj)
    if isinstance(obj, PartitionResult):
        return partition_to_dict(obj)
    if isinstance(obj, float):
        return tau_to_dict(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(m, Measurement) for m in obj
    ):
        return stage_sweep_to_dict(obj)
    raise SerializationError(
        f"cannot serialize {type(obj).__name__} as a plan-store payload"
    )


_PAYLOAD_READERS = {
    "pipeline_profile": profile_from_dict,
    "frontier": frontier_from_dict,
    "partition": partition_from_dict,
    "stage_sweep": stage_sweep_from_dict,
    "tau": tau_from_dict,
}


def payload_from_dict(payload: dict):
    """Inverse of :func:`payload_to_dict` (dispatches on ``kind``).

    A payload of the right kind but the wrong shape (a missing field, a
    string where a list belongs, an index out of range) raises
    :class:`SerializationError` like any other malformed payload.
    """
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a JSON object")
    reader = _PAYLOAD_READERS.get(payload.get("kind"))
    if reader is None:
        raise SerializationError(
            f"unknown payload kind {payload.get('kind')!r}"
        )
    try:
        return reader(payload)
    except _MALFORMED as exc:
        raise SerializationError(
            f"malformed {payload['kind']} payload: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def save_json(obj, fp: IO[str]) -> None:
    """Serialize a profile, frontier, partition or plan spec to a file."""
    from ..api.spec import PlanSpec

    if isinstance(obj, PlanSpec):
        json.dump(obj.to_dict(), fp)
        return
    json.dump(payload_to_dict(obj), fp)


def load_json(fp: IO[str]):
    """Load whichever supported object the file contains."""
    from ..api.spec import PlanSpec
    from ..exceptions import ConfigurationError

    try:
        payload = json.load(fp)
    except RecursionError as exc:
        raise SerializationError("payload is nested too deeply") from exc
    except ValueError as exc:
        raise SerializationError(f"payload is not valid JSON: {exc}") from exc
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "plan_spec":
        try:
            return PlanSpec.from_dict(payload)
        except ConfigurationError as exc:
            raise SerializationError(str(exc)) from exc
    return payload_from_dict(payload)


def _expect(payload: dict, kind: str, versions=(FORMAT_VERSION,)) -> None:
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a JSON object")
    if payload.get("kind") != kind:
        raise SerializationError(
            f"expected kind {kind!r}, got {payload.get('kind')!r}"
        )
    if payload.get("version") not in versions:
        raise SerializationError(
            f"unsupported format version {payload.get('version')!r}"
        )
