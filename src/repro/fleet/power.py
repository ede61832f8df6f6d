"""Cluster power model: frontiers priced in watts + datacenter traces.

The per-job side turns a characterized
:class:`~repro.core.frontier.Frontier` into a ladder of
:class:`OperatingPoint`\\ s -- one per frontier schedule -- each carrying
the job's iteration time, its Eq. 3 energy per iteration *at that
point's own sync time*, and therefore its average pipeline power draw
(``energy / time``).  Allocation policies move jobs along this ladder;
the fleet's aggregate draw is the plain sum of the chosen points.

The accounting deliberately reuses the paper's Eq. 3 exactly: a point's
per-iteration energy is ``effective_energy + sum_s P_blocking(s) * T``
where ``T = max(point time, straggler floor)``.  A straggler of degree
``d`` floors the job's achievable iteration time at ``d * T_min``;
frontier points faster than the floor all realize the floored time, and
among them only the cheapest survives -- found by the same
``Frontier.index_for(T')`` lookup the Perseus server performs and priced
by the same ``EnergySchedule.energy_at``, so fleet policies inherit the
paper's straggler behaviour for free.

The datacenter side is :class:`StepTrace`: a right-continuous
piecewise-constant time series used for the cluster power cap (watts),
grid carbon intensity (gCO2/kWh) and energy price.  Breakpoints double
as simulator resample events, which keeps every integral exact.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple, Union

from ..core.frontier import Frontier
from ..exceptions import ConfigurationError

#: Serialized step-trace schema version.
TRACE_FORMAT_VERSION = 1

#: Joules per kilowatt-hour (carbon/price integrals).
J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class OperatingPoint:
    """One deployable speed of one job, priced in watts.

    ``index`` is the position in the job's *frontier* (so the actual
    :class:`~repro.core.schedule.EnergySchedule` to deploy is
    ``frontier.points[index]``); ``iteration_time_s`` and ``energy_j``
    already include any straggler floor in force when the point was
    built.  ``power_w`` is the whole-pipeline average draw.
    """

    index: int
    iteration_time_s: float
    energy_j: float
    power_w: float

    def per_gpu_power_w(self, num_gpus: int) -> float:
        return self.power_w / num_gpus


class JobPowerModel:
    """A job's frontier turned into an operating-point ladder.

    Points are ordered fastest (highest power) first, mirroring the
    frontier's own time ordering.  Power is strictly decreasing along
    the ladder -- effective energy strictly decreases and time strictly
    increases between pruned frontier points -- which is what guarantees
    policy loops that step jobs down the ladder terminate.
    """

    def __init__(self, frontier: Frontier,
                 blocking_w: Sequence[float]) -> None:
        if not blocking_w or any(w <= 0 for w in blocking_w):
            raise ConfigurationError(
                "per-stage blocking powers must be positive"
            )
        self.frontier = frontier
        self.blocking_w = tuple(float(w) for w in blocking_w)
        self.total_blocking_w = math.fsum(self.blocking_w)
        self.num_gpus = len(self.blocking_w)

    @property
    def t_min(self) -> float:
        return self.frontier.t_min

    def point(self, index: int,
              floor_time_s: Optional[float] = None) -> OperatingPoint:
        """Price one frontier schedule (Eq. 3 at the floored time)."""
        sched = self.frontier.points[index]
        time_s = max(sched.iteration_time, floor_time_s or 0.0)
        energy = sched.energy_at(self.total_blocking_w, floor_time_s)
        return OperatingPoint(
            index=index,
            iteration_time_s=time_s,
            energy_j=energy,
            power_w=energy / time_s,
        )

    def ladder(self, floor_time_s: Optional[float] = None
               ) -> Tuple[OperatingPoint, ...]:
        """Every deployable point, fastest first, floor applied.

        With a straggler floor, frontier points faster than the floor
        collapse to the floored iteration time; only the cheapest of
        them (``Frontier.index_for(T')``, the schedule the server
        deploys) is kept so the ladder stays strictly decreasing in power.
        """
        return tuple(
            self.point(i, floor_time_s)
            for i in range(self.frontier.index_for(floor_time_s),
                           len(self.frontier.points))
        )


@dataclass(frozen=True)
class StepTrace:
    """Right-continuous piecewise-constant time series.

    ``value_at(t)`` returns ``values[i]`` for the largest breakpoint
    ``times[i] <= t``; before the first breakpoint the first value
    holds.  Used for power caps (watts), carbon intensity (gCO2/kWh)
    and energy price; breakpoints become simulator resample events.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times or len(self.times) != len(self.values):
            raise ConfigurationError(
                "a step trace needs matching, non-empty times and values"
            )
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigurationError(
                "step-trace breakpoints must strictly increase"
            )
        if any(t < 0 for t in self.times):
            raise ConfigurationError(
                "step-trace breakpoints must be non-negative"
            )

    @classmethod
    def constant(cls, value: float) -> "StepTrace":
        return cls(times=(0.0,), values=(float(value),))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "StepTrace":
        """``[[t0, v0], [t1, v1], ...]`` -> trace (times must ascend)."""
        if not pairs:
            raise ConfigurationError("a step trace needs at least one point")
        times = tuple(float(t) for t, _ in pairs)
        values = tuple(float(v) for _, v in pairs)
        return cls(times=times, values=values)

    @classmethod
    def diurnal(cls, base: float, amplitude: float, period_s: float,
                steps: int = 24, start_s: float = 0.0) -> "StepTrace":
        """A sinusoidal day curve sampled into ``steps`` constant slabs.

        ``base - amplitude`` at the start of the period rising to
        ``base + amplitude`` mid-period -- the classic "cap is tight at
        daytime peak, generous at night" shape, discretized so the
        simulator sees a finite breakpoint list.
        """
        if steps < 1:
            raise ConfigurationError("diurnal trace needs at least one step")
        if amplitude < 0 or base - amplitude < 0:
            raise ConfigurationError(
                "diurnal trace values must stay non-negative"
            )
        times = []
        values = []
        for k in range(steps):
            t = start_s + period_s * k / steps
            phase = 2.0 * math.pi * (k + 0.5) / steps
            times.append(t)
            values.append(base - amplitude * math.cos(phase))
        return cls(times=tuple(times), values=tuple(values))

    def value_at(self, t: float) -> float:
        idx = bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]

    def breakpoints_after(self, t: float) -> List[float]:
        """Breakpoints strictly after ``t`` (simulator event seeds)."""
        return [bp for bp in self.times if bp > t]

    # -- JSON round-trip -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": TRACE_FORMAT_VERSION,
            "kind": "step_trace",
            "points": [[t, v] for t, v in zip(self.times, self.values)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StepTrace":
        if not isinstance(payload, dict) or \
                payload.get("kind") != "step_trace":
            raise ConfigurationError(
                f"expected kind 'step_trace', got "
                f"{payload.get('kind') if isinstance(payload, dict) else payload!r}"
            )
        if payload.get("version") != TRACE_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported step_trace version {payload.get('version')!r}"
            )
        points = payload.get("points") or []
        if not isinstance(points, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in points):
            raise ConfigurationError(
                "step_trace points must be a list of [time, value] pairs")
        return cls.from_pairs(points)

    @classmethod
    def from_json(cls, source: Union[str, IO[str]]) -> "StepTrace":
        text = source if isinstance(source, str) else source.read()
        return cls.from_dict(json.loads(text))


#: Anything accepted where a trace is expected: a constant, a trace, or
#: ``None`` (meaning "absent": no cap / no carbon accounting).
TraceLike = Union[None, float, int, StepTrace]


def as_trace(value: TraceLike, what: str) -> Optional[StepTrace]:
    """Coerce a user-facing cap/carbon/price argument to a trace."""
    if value is None or isinstance(value, StepTrace):
        return value
    if isinstance(value, (int, float)):
        if value < 0:
            raise ConfigurationError(f"{what} must be non-negative")
        return StepTrace.constant(float(value))
    raise ConfigurationError(
        f"{what} must be a number, a StepTrace or None, "
        f"got {type(value).__name__}"
    )


def aggregate_power_w(points: Sequence[OperatingPoint]) -> float:
    """Fleet draw: the sum of each running job's average pipeline power."""
    return math.fsum(p.power_w for p in points)
