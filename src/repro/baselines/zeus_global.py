"""ZeusGlobal baseline: one global frequency for every stage (§6.4).

Zeus [NSDI'23] characterizes the time-energy tradeoff of *single-GPU*
training by scanning one power/frequency knob.  Extended naively to a
pipeline, it scans a single global SM clock for all stages -- blind to
stage imbalance, so it slows critical and non-critical computations alike
and cannot remove intrinsic energy bloat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..api.strategies import FrequencyPlan, PlanContext, register_strategy
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from ..sim.executor import PipelineExecution, execute_frequency_plan

#: Zeus's energy/time knob (NSDI'23 eta): 0.5 weighs a Joule saved equal
#: to the Joules the whole pipeline would burn at peak power in the time
#: lost, which is Zeus's default cost operating point.
ZEUS_ETA = 0.5


@dataclass(frozen=True)
class BaselineFrontierPoint:
    """One (plan, realized execution) point of a baseline's tradeoff scan."""

    label: str
    plan: Dict[int, int]
    execution: PipelineExecution

    @property
    def iteration_time(self) -> float:
        return self.execution.iteration_time

    def energy_at(self, floor_s: Optional[float] = None) -> float:
        return self.execution.energy_at(floor_s)


def snap_plan(
    dag: ComputationDag, profile: PipelineProfile,
    clock_of_stage: Callable[[int], int],
) -> Dict[int, int]:
    """Every computation at its stage's clock, snapped down to the op's
    largest profiled clock not above it (its lowest when none is);
    constant-time ops at their one measurement."""
    plan: Dict[int, int] = {}
    for n, ins in dag.nodes.items():
        op_profile = profile.get(ins.op_key)
        if op_profile.fixed:
            plan[n] = op_profile.measurements[0].freq_mhz
            continue
        freq = clock_of_stage(ins.stage)
        available = sorted(m.freq_mhz for m in op_profile.measurements)
        chosen = available[0]
        for f in available:
            if f <= freq:
                chosen = f
            else:
                break
        plan[n] = chosen
    return plan


def global_plan(
    dag: ComputationDag, profile: PipelineProfile, freq_mhz: int
) -> Dict[int, int]:
    """All computations at one clock (clamped per-op to profiled range)."""
    return snap_plan(dag, profile, lambda _stage: freq_mhz)


def clock_ladder(profile: PipelineProfile, freq_stride: int = 1) -> List[int]:
    """Every clock any non-constant op was profiled at, descending,
    keeping every ``freq_stride``-th: the clocks a Zeus scan visits."""
    return sorted(
        {
            m.freq_mhz
            for op in profile.ops.values()
            if not op.fixed
            for m in op.measurements
        },
        reverse=True,
    )[::freq_stride]


def zeus_global_frontier(
    dag: ComputationDag, profile: PipelineProfile, freq_stride: int = 1
) -> List[BaselineFrontierPoint]:
    """Scan the global clock from max to min; Pareto-filter the outcomes."""
    points: List[BaselineFrontierPoint] = []
    for f in clock_ladder(profile, freq_stride):
        plan = global_plan(dag, profile, f)
        execution = execute_frequency_plan(dag, plan, profile)
        points.append(
            BaselineFrontierPoint(label=f"global@{f}MHz", plan=plan, execution=execution)
        )
    return pareto_points(points)


def pipeline_peak_power(profile: PipelineProfile) -> float:
    """Peak sustained pipeline power: each stage's hottest op at max clock."""
    per_stage: Dict[int, float] = {}
    for op_key, op in profile.ops.items():
        stage = op_key[0]
        fastest = op.measurements[0] if op.fixed else op.fastest
        power = fastest.energy_j / fastest.time_s
        per_stage[stage] = max(per_stage.get(stage, 0.0), power)
    return sum(per_stage.values())


def select_operating_point(
    points: List[BaselineFrontierPoint],
    profile: PipelineProfile,
    target_time: Optional[float],
) -> BaselineFrontierPoint:
    """Pick the single plan a Zeus controller would deploy.

    With an anticipated straggler time ``T'``, the lowest-energy point
    that still meets it (falling back to the fastest point when none
    does); otherwise the minimizer of Zeus's cost
    ``eta * E + (1 - eta) * P_max * T`` at the default ``eta`` -- the
    knob Zeus actually optimizes in steady state.
    """
    if not points:
        raise ValueError("baseline frontier has no points")
    if target_time is not None:
        feasible = [
            p for p in points if p.iteration_time <= target_time + 1e-9
        ]
        if feasible:
            return min(feasible, key=lambda p: p.energy_at())
        return min(points, key=lambda p: p.iteration_time)
    p_max = pipeline_peak_power(profile)
    return min(
        points,
        key=lambda p: ZEUS_ETA * p.energy_at()
        + (1.0 - ZEUS_ETA) * p_max * p.iteration_time,
    )


@register_strategy("zeus-global")
def _zeus_global_strategy(ctx: PlanContext) -> FrequencyPlan:
    """One global clock for all stages, at Zeus's cost-optimal point."""
    points = zeus_global_frontier(ctx.dag, ctx.profile)
    return dict(
        select_operating_point(points, ctx.profile, ctx.target_time).plan
    )


def pareto_points(
    points: List[BaselineFrontierPoint],
) -> List[BaselineFrontierPoint]:
    """Keep (time, energy)-Pareto-optimal points, sorted by time."""
    ordered = sorted(points, key=lambda p: (p.iteration_time, p.energy_at()))
    front: List[BaselineFrontierPoint] = []
    best = float("inf")
    for p in ordered:
        e = p.energy_at()
        if e < best - 1e-9:
            front.append(p)
            best = e
    return front
