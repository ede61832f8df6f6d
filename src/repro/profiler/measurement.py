"""Profiling data structures.

One :class:`Measurement` is the (frequency, time, energy) of a computation
type; an :class:`OpProfile` collects all measurements for one type (e.g.
"stage 2 backward"); a :class:`PipelineProfile` holds the full pipeline's
profiles plus the device's ``P_blocking``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ProfilingError

OpKey = Tuple  # (stage, kind) or (stage, "const", label)


@dataclass(frozen=True, order=True)
class Measurement:
    """Time/energy of one computation type at one locked SM clock."""

    freq_mhz: int
    time_s: float
    energy_j: float

    def __post_init__(self) -> None:
        if self.time_s <= 0:
            raise ProfilingError(f"non-positive time at {self.freq_mhz} MHz")
        if self.energy_j <= 0:
            raise ProfilingError(f"non-positive energy at {self.freq_mhz} MHz")


def pareto_filter(measurements: Sequence[Measurement]) -> List[Measurement]:
    """Keep only Pareto-optimal (time, energy) measurements.

    A measurement is kept iff no other one is both faster-or-equal and
    lower-or-equal energy (with one strict).  Result is sorted by
    increasing time (and therefore decreasing energy).
    """
    if not measurements:
        return []
    ordered = sorted(measurements, key=lambda m: (m.time_s, m.energy_j))
    front: List[Measurement] = []
    best_energy = float("inf")
    for m in ordered:
        if m.energy_j < best_energy - 1e-12:
            front.append(m)
            best_energy = m.energy_j
    return front


@dataclass
class OpProfile:
    """All measurements of one computation type.

    ``fixed`` marks constant-time operations (§4.4): a single duration
    choice that the GPU clock cannot move.
    """

    op: OpKey
    measurements: List[Measurement] = field(default_factory=list)
    fixed: bool = False
    #: Memoized Pareto front; invalidated by :meth:`add`.  Realizing a
    #: frontier queries the front once per computation per point -- tens
    #: of thousands of times per crawl -- so recomputing the filter each
    #: call was a measurable slice of the optimizer hot path.
    _pareto_cache: Optional[List[Measurement]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)
        self._pareto_cache = None

    def pareto(self) -> List[Measurement]:
        front = self._pareto_cache
        if front is None:
            front = pareto_filter(self.measurements)
            if not front:
                raise ProfilingError(f"op {self.op} has no measurements")
            self._pareto_cache = front
        return front

    def at_freq(self, freq_mhz: int) -> Measurement:
        for m in self.measurements:
            if m.freq_mhz == freq_mhz:
                return m
        raise ProfilingError(f"op {self.op} has no measurement at {freq_mhz} MHz")

    @property
    def fastest(self) -> Measurement:
        return min(self.measurements, key=lambda m: m.time_s)

    @property
    def min_energy(self) -> Measurement:
        return min(self.measurements, key=lambda m: m.energy_j)

    def frequency_for_time(self, planned_time: float) -> Measurement:
        """Slowest measurement that runs no slower than ``planned_time``.

        Algorithm 2 line 8: when computations are tightly packed, slightly
        speeding up is acceptable but slowing down a critical computation
        would lengthen the iteration.  Falls back to the fastest frequency
        if even that is slower than planned.
        """
        candidates = [m for m in self.pareto() if m.time_s <= planned_time + 1e-9]
        if not candidates:
            return self.fastest
        return max(candidates, key=lambda m: m.time_s)


@dataclass
class PipelineProfile:
    """Profiles of every computation type in one pipeline + P_blocking.

    On a homogeneous pipeline ``p_blocking_w`` is the single device's
    blocking power.  A mixed-GPU pipeline additionally carries
    ``stage_blocking_w`` (stage -> that stage's device blocking power);
    ``p_blocking_w`` then holds the per-stage mean so legacy scalar
    consumers stay well-defined.  :meth:`blocking_power` is the
    stage-aware lookup every accounting path should use.
    """

    ops: Dict[OpKey, OpProfile] = field(default_factory=dict)
    p_blocking_w: float = 0.0
    stage_blocking_w: Optional[Dict[int, float]] = None

    @classmethod
    def for_devices(cls, devices: Sequence) -> "PipelineProfile":
        """Empty profile with the blocking-power header for a pipeline.

        ``devices`` is one per-stage object exposing ``blocking_w``
        (e.g. :class:`repro.gpu.specs.GPUSpec`).  Equal blocking powers
        collapse to the scalar homogeneous form; a mix gets the
        per-stage map with the mean kept as the scalar.  The one place
        the mixed-cluster blocking convention is defined.
        """
        blocking = [d.blocking_w for d in devices]
        if not blocking:
            raise ProfilingError("a pipeline needs at least one device")
        if all(w == blocking[0] for w in blocking):
            return cls(p_blocking_w=blocking[0])
        return cls(
            p_blocking_w=sum(blocking) / len(blocking),
            stage_blocking_w=dict(enumerate(blocking)),
        )

    def get(self, op: OpKey) -> OpProfile:
        if op not in self.ops:
            raise ProfilingError(f"no profile for op {op}")
        return self.ops[op]

    def blocking_power(self, stage: int) -> float:
        """``P_blocking`` of one stage's device (scalar fallback)."""
        if self.stage_blocking_w is not None and stage in self.stage_blocking_w:
            return self.stage_blocking_w[stage]
        return self.p_blocking_w

    def add_measurement(
        self, op: OpKey, measurement: Measurement, fixed: bool = False
    ) -> None:
        profile = self.ops.setdefault(op, OpProfile(op=op, fixed=fixed))
        profile.add(measurement)
        # New data invalidates any fitted cost models cached on this
        # profile (see repro.core.costmodel.build_cost_models).
        self.__dict__.pop("_cost_model_cache", None)

    def op_keys(self) -> List[OpKey]:
        return list(self.ops)

    def validate(self) -> None:
        if self.p_blocking_w <= 0:
            raise ProfilingError("P_blocking must be profiled and positive")
        if self.stage_blocking_w is not None and any(
            w <= 0 for w in self.stage_blocking_w.values()
        ):
            raise ProfilingError("per-stage P_blocking must be positive")
        for op, profile in self.ops.items():
            if not profile.measurements:
                raise ProfilingError(f"op {op} has no measurements")
