"""ZeusPerStage baseline: per-stage clocks balancing forward time (§6.4).

The stronger Zeus-derived baseline: choose one clock per stage so that
every stage's *forward* latency lands at (or under) a common target, then
sweep the target.  It removes some imbalance but is unaware of the DAG's
critical path -- it happily slows computations that are critical (e.g.,
backwards, or warm-up forwards), which is why Perseus Pareto-dominates it
(Figure 9, Appendix H).
"""

from __future__ import annotations

from typing import Dict, List

from ..api.strategies import FrequencyPlan, PlanContext, register_strategy
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from ..sim.executor import execute_frequency_plan
from .zeus_global import (
    BaselineFrontierPoint,
    clock_ladder,
    pareto_points,
    select_operating_point,
    snap_plan,
)


def per_stage_plan(
    dag: ComputationDag, profile: PipelineProfile, target_forward_s: float
) -> Dict[int, int]:
    """Per stage: the lowest clock keeping forward time <= the target."""
    stage_freq: Dict[int, int] = {}
    for stage in range(dag.num_stages):
        op = profile.get((stage, "forward"))
        candidates = sorted(op.measurements, key=lambda m: m.freq_mhz)
        chosen = candidates[-1].freq_mhz  # fall back to max clock
        for m in candidates:  # ascending clock = descending time
            if m.time_s <= target_forward_s + 1e-12:
                chosen = m.freq_mhz
                break
        stage_freq[stage] = chosen
    return snap_plan(dag, profile, stage_freq.__getitem__)


def zeus_per_stage_frontier(
    dag: ComputationDag, profile: PipelineProfile, freq_stride: int = 1
) -> List[BaselineFrontierPoint]:
    """Sweep the balance target over the slowest stage's latency ladder.

    The natural target set: for each clock ``f``, the max over stages of
    the stage forward time at ``f`` (the binding stage's latency).  On a
    mixed-GPU pipeline stages expose *different* ladders, so each stage
    answers with its largest profiled clock not above ``f`` -- its own
    ladder's knee -- rather than requiring ``f`` itself; a clock below a
    stage's profiled range (the §5 early-exit cutoff) still skips the
    target, as before.
    """
    targets = []
    for f in clock_ladder(profile, freq_stride):
        worst = 0.0
        ok = True
        for stage in range(dag.num_stages):
            op = profile.get((stage, "forward"))
            at_or_below = [m for m in op.measurements if m.freq_mhz <= f]
            if not at_or_below:
                ok = False
                break
            snapped = max(at_or_below, key=lambda m: m.freq_mhz)
            worst = max(worst, snapped.time_s)
        if ok:
            targets.append(worst)
    points: List[BaselineFrontierPoint] = []
    for target in sorted(set(targets)):
        plan = per_stage_plan(dag, profile, target)
        execution = execute_frequency_plan(dag, plan, profile)
        points.append(
            BaselineFrontierPoint(
                label=f"perstage@{target * 1e3:.1f}ms", plan=plan, execution=execution
            )
        )
    return pareto_points(points)


@register_strategy("zeus-per-stage")
def _zeus_per_stage_strategy(ctx: PlanContext) -> FrequencyPlan:
    """Forward-balanced per-stage clocks, at Zeus's cost-optimal point."""
    points = zeus_per_stage_frontier(ctx.dag, ctx.profile)
    return dict(
        select_operating_point(points, ctx.profile, ctx.target_time).plan
    )
