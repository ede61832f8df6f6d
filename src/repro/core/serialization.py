"""Persistence for profiles, frontiers and plan specs.

A cluster-wide Perseus server caches energy schedules "for fast lookup"
(§3.2); across server restarts or for offline analysis, profiles and
characterized frontiers round-trip through JSON here (frontiers with
packed numeric columns).  Formats are versioned and deliberately flat
(no pickling) so other tools can read them.  :class:`repro.api.PlanSpec`
payloads (kind ``plan_spec``) take part in the same
``save_json``/``load_json`` dispatch so sweep manifests live next to
their artifacts.

Frontiers are by far the largest payloads.  Version 5 stores them as
columns: one column per scalar, a full row where the schedule's layout
starts or changes, and four flat delta columns with per-point offsets
(:func:`frontier_to_dict`).  Every numeric column is packed: the hex
text of a little-endian machine array, which the reader unpacks with
two C calls (``bytes.fromhex``, ``array.frombytes``) and every float's
exact bits.  Reading one checks the whole payload with a few
whole-list calls and builds a point only when it is looked up, so a
warm plan builds one.  Profiles and per-stage sweeps pack their
measurements the same way: one clock, one time and one energy column
(:func:`_pack_measurements`).  Each reader accepts exactly the version
this build writes; an older payload raises :class:`SerializationError`,
which the plan store treats as a miss.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from bisect import bisect_right
from typing import IO, Dict, List, NamedTuple, Sequence

from ..exceptions import ReproError
from ..partition.algorithms import PartitionResult
from ..profiler.measurement import Measurement, OpProfile, PipelineProfile
from ..sim.executor import ExecutionPrice
from .frontier import Frontier
from .schedule import EnergySchedule

FORMAT_VERSION = 1

#: Frontier payloads are columnar with flat per-point delta columns,
#: hex-packed (see :func:`frontier_to_dict`).
FRONTIER_FORMAT_VERSION = 5

#: Tau payloads carry the all-max baseline's Eq. 3 price.
TAU_FORMAT_VERSION = 2

#: Pipeline-profile payloads pack each op's measurements
#: (:func:`_pack_measurements`), homogeneous and mixed-GPU profiles
#: alike; a mixed one also carries ``stage_blocking_w``.
PROFILE_FORMAT_VERSION = 3

#: Per-stage sweep payloads pack their measurements the same way.
STAGE_SWEEP_FORMAT_VERSION = 2


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
    """JSON-ready representation of a pipeline profile (version 3).

    Each op's measurements are packed columns
    (:func:`_pack_measurements`).  Mixed-GPU profiles carry the
    optional ``stage_blocking_w`` map (absent for homogeneous ones).
    """
    payload = {
        "version": PROFILE_FORMAT_VERSION,
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
                "measurements": _pack_measurements(op_profile.measurements),
            }
            for op, op_profile in profile.ops.items()
        ]
    return payload


def profile_from_dict(payload: dict) -> PipelineProfile:
    """Inverse of :func:`profile_to_dict` (validates the result)."""
    _expect(payload, "pipeline_profile", versions=(PROFILE_FORMAT_VERSION,))
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
        profile.ops[op] = OpProfile(
            op=op, measurements=_unpack_measurements(entry["measurements"]),
            fixed=bool(entry["fixed"]))
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


def _full_row(point: EnergySchedule, at: int, regular: bool) -> dict:
    """Point ``at`` as a packed full row."""
    row = {"ids": _pack(point.durations, "i"),
           "durations": _pack(point.durations.values(), "d"),
           "frequencies": _pack(point.frequencies.values(), "i")}
    if not regular:
        row["frequency_ids"] = _pack(point.frequencies, "i")
    row["at"] = at
    return row


def frontier_to_dict(frontier: Frontier) -> dict:
    """JSON-ready representation of a characterized frontier (version 5).

    Columnar: one column per scalar (``iteration_time``,
    ``effective_energy``, ``compute_energy``), a few full ``rows`` and
    four flat delta columns.  The first point is a full row (``at``,
    ``ids``, ``durations``, ``frequencies`` -- the latter empty or
    aligned with ``ids``).  Every later point with the same layout
    stores only the entries that changed from its predecessor: point
    ``k``'s are ``delta_index`` (into ``ids``), ``delta_duration`` and
    ``delta_frequency`` (``-1`` when the layout carries no clocks)
    from ``delta_offsets[k]`` to ``delta_offsets[k + 1]``.  A point
    whose key set or key order differs from its predecessor's gets a
    full row again, recording its index in ``at`` (and one carrying
    ``frequency_ids`` when its frequencies are keyed differently from
    its durations).  Every numeric column, the full rows' included, is
    packed (:func:`_pack`): doubles for times and energies, 32-bit ints
    for ids, indices, offsets and clocks.
    """
    points = frontier.points
    rows, offsets, index, durations, clocks = [], [0], [], [], []
    prev = prev_layout = None
    for k, point in enumerate(points):
        layout = _layout(point)
        if layout is not None and layout == prev_layout:
            none = [_NO_CLOCK] * len(point.durations)
            for i, (d, pd, f, pf) in enumerate(zip(
                    point.durations.values(), prev.durations.values(),
                    point.frequencies.values() or none,
                    prev.frequencies.values() or none)):
                if not (_same(d, pd) and f == pf):
                    index.append(i)
                    durations.append(d)
                    clocks.append(f)
        else:
            rows.append(_full_row(point, k, layout is not None))
        offsets.append(len(index))
        prev, prev_layout = point, layout
    return {
        "version": FRONTIER_FORMAT_VERSION,
        "kind": "frontier",
        "tau": frontier.tau,
        "optimizer_runtime_s": frontier.optimizer_runtime_s,
        "steps": frontier.steps,
        "stats": dict(frontier.stats),
        "iteration_time": _pack([p.iteration_time for p in points], "d"),
        "effective_energy": _pack([p.effective_energy for p in points], "d"),
        "compute_energy": _pack([p.compute_energy for p in points], "d"),
        "rows": rows,
        "delta_offsets": _pack(offsets, "i"),
        "delta_index": _pack(index, "i"),
        "delta_duration": _pack(durations, "d"),
        "delta_frequency": _pack(clocks, "i"),
    }


#: A version-5 payload's packed columns and their array type codes:
#: ``"d"`` a double, ``"i"`` a 32-bit signed int.
_COLUMNS = {"iteration_time": "d", "effective_energy": "d",
            "compute_energy": "d", "delta_offsets": "i", "delta_index": "i",
            "delta_duration": "d", "delta_frequency": "i"}
_ROW_COLUMNS = {"ids": "i", "durations": "d", "frequencies": "i",
                "frequency_ids": "i"}

#: What ``delta_frequency`` holds for a layout without clocks.
_NO_CLOCK = -1

#: Packed columns are little-endian whatever the host's byte order.
_SWAP = sys.byteorder != "little"


def _pack(values, code: str) -> str:
    """``values`` as the hex text of a little-endian array."""
    column = array(code, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes().hex()


def _unpack(text, code: str) -> list:
    """Inverse of :func:`_pack`: hex digits only (``bytes.fromhex``
    would skip whitespace), of whole items only."""
    raw = bytes.fromhex(text)
    if 2 * len(raw) != len(text):
        raise SerializationError("a packed column holds more than hex digits")
    column = array(code)
    if len(raw) % column.itemsize:
        raise SerializationError(
            f"a packed column of {len(raw)} bytes is no whole number of "
            f"{column.itemsize}-byte items")
    column.frombytes(raw)
    if _SWAP:
        column.byteswap()
    return column.tolist()


def _unpacked(payload: dict) -> dict:
    """A frontier payload with its packed columns as lists."""
    columns = {name: _unpack(payload[name], code)
               for name, code in _COLUMNS.items()}
    rows = [dict(row, **{name: _unpack(row[name], code)
                         for name, code in _ROW_COLUMNS.items()
                         if name in row})
            for row in payload["rows"]]
    return dict(payload, rows=rows, **columns)


class _StoredPoints:
    """The points of a frontier payload with its columns unpacked
    (:func:`_unpacked`), decoded lazily.

    Construction checks the whole payload but builds no schedule: each
    column and each full row's segment of the delta columns is checked
    by a few whole-list calls.  ``self[k]`` copies the full row before
    ``k`` once and applies its segment's deltas up to ``k`` in one
    ``dict.update`` (lookups share no state, so threads may make them
    concurrently); iterating applies every delta entry once.
    """

    def __init__(self, payload: dict) -> None:
        self.times = payload["iteration_time"]
        self._effective = payload["effective_energy"]
        self._compute = payload["compute_energy"]
        offsets = self._offsets = payload["delta_offsets"]
        index = self._index = payload["delta_index"]
        clocks = self._clocks = payload["delta_frequency"]
        self._durations = payload["delta_duration"]
        n = len(self.times)
        if not (n == len(self._effective) == len(self._compute)
                == len(offsets) - 1):
            raise SerializationError("frontier columns differ in length")
        if not all(map(float.__le__, self.times, self.times[1:])):
            raise SerializationError("frontier iteration times are unsorted")
        if not (offsets[0] == 0
                and offsets[-1] == len(index) == len(self._durations)
                == len(clocks)
                and all(map(int.__le__, offsets, offsets[1:]))):
            raise SerializationError("malformed frontier delta columns")
        rows = payload["rows"]
        starts = self._starts = [row["at"] for row in rows]
        if not (starts and starts[0] == 0
                and all(type(at) is int for at in starts)
                and all(map(int.__lt__, starts, starts[1:]))):
            raise SerializationError(
                "frontier full rows must start at point 0 and ascend")
        # Per full row: (ids, durations, frequencies), the base its
        # segment's points copy.
        self._rows = []
        for row, at, end in zip(rows, starts, starts[1:] + [n]):
            ids, values = row["ids"], row["durations"]
            row_clocks = row["frequencies"]
            frequency_ids = row.get("frequency_ids")
            if frequency_ids is None:
                frequency_ids = ids if row_clocks else []
            base_durations = dict(zip(ids, values))
            frequencies = dict(zip(frequency_ids, row_clocks))
            if not (len(base_durations) == len(values) == len(ids)
                    and len(frequencies) == len(row_clocks)
                    == len(frequency_ids)):
                raise SerializationError("malformed frontier row")
            # The segment of deltas after this row: none for the row's
            # own point, none after a row whose frequencies are keyed
            # apart from its ids, indices into ids, and clocks exactly
            # where the row has frequencies.
            lo, hi = offsets[at], offsets[end]
            segment = index[lo:hi]
            if (offsets[at + 1] != lo
                    or ("frequency_ids" in row and end > at + 1)
                    or segment and (min(segment) < 0
                                    or max(segment) >= len(ids))
                    or clocks[lo:hi].count(_NO_CLOCK)
                    != (0 if frequencies else hi - lo)):
                raise SerializationError(
                    f"malformed frontier deltas after full row {at}")
            self._rows.append((ids, base_durations, frequencies))

    def __len__(self) -> int:
        return len(self.times)

    def _point(self, k: int, ids: list, durations: dict, frequencies: dict,
               lo: int) -> EnergySchedule:
        """Point ``k`` from copies of ``durations`` and ``frequencies``
        with the delta entries ``lo`` to ``k``'s end applied in order."""
        hi = self._offsets[k + 1]
        durations, frequencies = durations.copy(), frequencies.copy()
        if hi > lo:
            keys = list(map(ids.__getitem__, self._index[lo:hi]))
            durations.update(zip(keys, self._durations[lo:hi]))
            if frequencies:
                frequencies.update(zip(keys, self._clocks[lo:hi]))
        return EnergySchedule(durations, self.times[k], self._effective[k],
                              self._compute[k], frequencies)

    def __getitem__(self, k: int) -> EnergySchedule:
        k = range(len(self.times))[k]
        r = bisect_right(self._starts, k) - 1
        return self._point(k, *self._rows[r], self._offsets[self._starts[r]])

    def __iter__(self):
        for at, end, (ids, durations, frequencies) in zip(
                self._starts, self._starts[1:] + [len(self.times)],
                self._rows):
            for k in range(at, end):
                point = self._point(k, ids, durations, frequencies,
                                    self._offsets[k])
                yield point
                durations, frequencies = point.durations, point.frequencies


def frontier_from_dict(payload: dict) -> Frontier:
    """Inverse of :func:`frontier_to_dict`.

    The payload is checked whole here but decoded lazily: the frontier
    builds only the points it is asked for (see :class:`_StoredPoints`).
    """
    _expect(payload, "frontier", versions=(FRONTIER_FORMAT_VERSION,))
    try:
        points = _StoredPoints(_unpacked(payload))
        if not len(points):
            raise SerializationError("frontier payload has no points")
        return Frontier(
            points=points,
            tau=float(payload["tau"]),
            optimizer_runtime_s=float(payload.get("optimizer_runtime_s",
                                                  0.0)),
            steps=int(payload.get("steps", 0)),
            stats=dict(payload.get("stats", {})),
        )
    except _MALFORMED as exc:
        raise SerializationError(
            f"malformed frontier payload: {type(exc).__name__}: {exc}"
        ) from exc


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
    """One (device, stage-workload) frequency sweep, JSON-ready
    (version 2: packed columns, :func:`_pack_measurements`).

    This is the unit the planner memoizes per ``(gpu, work, stride)`` to
    compose mixed-cluster profiles; persisting it lets a second process
    assemble new GPU mixes from sweeps measured by a first.
    """
    return {
        "version": STAGE_SWEEP_FORMAT_VERSION,
        "kind": "stage_sweep",
        "measurements": _pack_measurements(measurements),
    }


def stage_sweep_from_dict(payload: dict) -> List[Measurement]:
    """Inverse of :func:`stage_sweep_to_dict`."""
    _expect(payload, "stage_sweep", versions=(STAGE_SWEEP_FORMAT_VERSION,))
    return _unpack_measurements(payload["measurements"])


def _pack_measurements(measurements: Sequence[Measurement]) -> dict:
    """Measurements as three packed columns (:func:`_pack`): ``freq_mhz``
    of 32-bit ints, ``time_s`` and ``energy_j`` of doubles."""
    return {
        "freq_mhz": _pack([m.freq_mhz for m in measurements], "i"),
        "time_s": _pack([m.time_s for m in measurements], "d"),
        "energy_j": _pack([m.energy_j for m in measurements], "d"),
    }


def _unpack_measurements(columns: dict) -> List[Measurement]:
    """Inverse of :func:`_pack_measurements`; each measurement checks
    itself (a non-positive time or energy is a ``ProfilingError``)."""
    clocks = _unpack(columns["freq_mhz"], "i")
    times = _unpack(columns["time_s"], "d")
    energies = _unpack(columns["energy_j"], "d")
    if not len(clocks) == len(times) == len(energies):
        raise SerializationError("measurement columns differ in length")
    return list(map(Measurement, clocks, times, energies))


class TauRecord(NamedTuple):
    """An auto-derived frontier granularity and what priced it.

    ``baseline`` is the Eq. 3 price of the all-max execution simulated
    to derive ``tau``, so a warm plan prices its baseline without
    simulating it.
    """

    tau: float
    baseline: ExecutionPrice


def tau_to_dict(record: TauRecord) -> dict:
    """An auto-derived frontier granularity, JSON-ready.

    Tiny, but persisted: tau is part of the frontier's content address,
    so reusing the recorded value (instead of re-deriving it) is what
    guarantees a warm process addresses the exact same frontier file.
    The baseline's price rides along; per-stage maps are
    ``[stage, value]`` pairs in the price's order.
    """
    price = record.baseline
    blocking = price.stage_blocking_w
    return {"version": TAU_FORMAT_VERSION, "kind": "tau", "value": record.tau,
            "baseline": {
                "iteration_time": price.iteration_time,
                "compute_energy": price.compute_energy,
                "stage_busy": [list(i) for i in price.stage_busy.items()],
                "num_devices": price.num_devices,
                "p_blocking_w": price.p_blocking_w,
                "stage_blocking_w": (None if blocking is None else
                                     [list(i) for i in blocking.items()]),
            }}


def tau_from_dict(payload: dict) -> TauRecord:
    """Inverse of :func:`tau_to_dict`."""
    _expect(payload, "tau", versions=(TAU_FORMAT_VERSION,))
    tau = float(payload["value"])
    block = payload["baseline"]
    blocking = block["stage_blocking_w"]
    price = ExecutionPrice(
        _real(block["iteration_time"]), _real(block["compute_energy"]),
        _stage_map(block["stage_busy"]), block["num_devices"],
        _real(block["p_blocking_w"]),
        None if blocking is None else _stage_map(blocking))
    if not (type(price.num_devices) is int
            and price.num_devices >= max(1, len(price.stage_busy))):
        raise SerializationError("malformed baseline price in tau record")
    return TauRecord(tau, price)


def _real(value) -> float:
    if type(value) not in (int, float):
        raise SerializationError("malformed baseline price in tau record")
    return float(value)


def _stage_map(pairs) -> Dict[int, float]:
    """``[[stage, value], ...]`` -> ``{stage: value}``, in order."""
    table: Dict[int, float] = {}
    for stage, value in pairs:
        if type(stage) is not int or stage < 0 or stage in table:
            raise SerializationError("malformed baseline price in tau record")
        table[stage] = _real(value)
    return table


# ---------------------------------------------------------------------------
# Generic payload dispatch (what the plan store reads/writes)
# ---------------------------------------------------------------------------


def payload_to_dict(obj) -> dict:
    """Versioned payload for any plan-store artifact.

    Dispatches on type: profiles, frontiers, partitions, per-stage
    measurement sweeps (lists of :class:`Measurement`) and tau records.
    """
    if isinstance(obj, PipelineProfile):
        return profile_to_dict(obj)
    if isinstance(obj, Frontier):
        return frontier_to_dict(obj)
    if isinstance(obj, PartitionResult):
        return partition_to_dict(obj)
    if isinstance(obj, TauRecord):
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
            f"unsupported {kind} format version {payload.get('version')!r}; "
            f"this build reads {' or '.join(map(str, versions))}"
        )
