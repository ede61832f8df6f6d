"""Pipeline execution simulator: the measurement ground truth.

The planner *plans* durations; this module *executes* them.  Given the
computation DAG, realized per-node durations (from the discrete frequency
each node was locked to) and per-node power, it derives the actual
timeline, iteration time, and per-stage energy split into computation and
blocking-on-communication (Eq. 3's accounting).

Because the DAG already contains per-device sequential-execution edges,
dependency-driven earliest-start scheduling is exactly what a pipeline
engine does, so the timeline is the longest-path schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import SimulationError
from ..pipeline.dag import ComputationDag
from ..pipeline.instructions import Instruction
from ..profiler.measurement import PipelineProfile


@dataclass(frozen=True)
class NodeExecution:
    """One computation's realized execution window."""

    node: int
    instruction: Instruction
    start: float
    end: float
    power_w: float
    freq_mhz: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def energy_j(self) -> float:
        return self.power_w * self.duration


@dataclass
class PipelineExecution:
    """Realized timeline + energy accounting of one pipeline iteration.

    ``stage_blocking_w`` carries per-stage blocking powers on mixed-GPU
    pipelines; when absent, the scalar ``p_blocking_w`` applies to every
    stage (the homogeneous accounting of Eq. 3).
    """

    records: List[NodeExecution]
    iteration_time: float
    num_stages: int
    p_blocking_w: float
    stage_blocking_w: Optional[Dict[int, float]] = None
    _by_stage: Dict[int, List[NodeExecution]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_stage:
            for rec in self.records:
                self._by_stage.setdefault(rec.instruction.stage, []).append(rec)
            for recs in self._by_stage.values():
                recs.sort(key=lambda r: r.start)

    def stage_records(self, stage: int) -> List[NodeExecution]:
        return list(self._by_stage.get(stage, []))

    def blocking_power(self, stage: int) -> float:
        """``P_blocking`` of one stage's device (scalar fallback)."""
        if self.stage_blocking_w is not None and stage in self.stage_blocking_w:
            return self.stage_blocking_w[stage]
        return self.p_blocking_w

    def stage_busy_time(self, stage: int) -> float:
        return sum(r.duration for r in self._by_stage.get(stage, []))

    def compute_energy(self) -> float:
        """Energy spent in computations (term 1 of Eq. 3 before blocking)."""
        return sum(r.energy_j for r in self.records)

    def blocking_energy(self) -> float:
        """Energy burned blocking on communication inside the iteration
        (Eq. 3's intra-pipeline gaps); :meth:`energy_at` adds the wait
        for a straggler-gated gradient sync."""
        return self._blocking_until(self.iteration_time)

    def _blocking_until(self, t_sync: float) -> float:
        stages = self.num_devices()
        if self.stage_blocking_w is not None:
            # Mixed cluster: each stage idles at its own device's draw.
            return sum(
                self.blocking_power(s) * (t_sync - self.stage_busy_time(s))
                for s in range(stages)
            )
        busy = sum(self.stage_busy_time(s) for s in self._by_stage)
        return self.p_blocking_w * (stages * t_sync - busy)

    def energy_at(self, floor_s: Optional[float] = None) -> float:
        """Eq. 3: computation plus blocking energy until gradient sync.

        ``floor_s`` is the straggler-gated iteration time ``T'``; every
        stage blocks until ``max(T, T')``, as in
        :meth:`repro.core.schedule.EnergySchedule.energy_at`.  Every
        "% saved" prices both the plan and the all-max baseline here.
        """
        time_s = self.iteration_time
        if floor_s is not None and floor_s > time_s:
            time_s = floor_s
        return self.compute_energy() + self._blocking_until(time_s)

    def num_devices(self) -> int:
        return max(self.num_stages, len(self._by_stage))

    def average_power(self) -> float:
        """Average per-GPU power over the iteration (for §1's power claim)."""
        return self.energy_at() / (self.num_devices() * self.iteration_time)


def execute(
    dag: ComputationDag,
    durations: Dict[int, float],
    powers: Dict[int, float],
    p_blocking_w: float,
    freqs: Optional[Dict[int, int]] = None,
    stage_blocking_w: Optional[Dict[int, float]] = None,
) -> PipelineExecution:
    """Run the DAG under realized durations/powers.

    Durations and powers must cover every computation node.  Returns the
    realized timeline with per-node execution windows.
    """
    missing = [n for n in dag.nodes if n not in durations or n not in powers]
    if missing:
        raise SimulationError(f"missing durations/powers for nodes {missing[:5]}")
    starts = dag.earliest_start_times(durations)
    records = [
        NodeExecution(
            node=n,
            instruction=dag.nodes[n],
            start=starts[n],
            end=starts[n] + durations[n],
            power_w=powers[n],
            freq_mhz=0 if freqs is None else freqs.get(n, 0),
        )
        for n in dag.nodes
    ]
    return PipelineExecution(
        records=records,
        iteration_time=dag.iteration_time(durations),
        num_stages=dag.num_stages,
        p_blocking_w=p_blocking_w,
        stage_blocking_w=stage_blocking_w,
    )


def execute_frequency_plan(
    dag: ComputationDag,
    freq_plan: Dict[int, int],
    profile: PipelineProfile,
) -> PipelineExecution:
    """Execute a frequency assignment using *profiled* times and energies.

    This is the honest evaluation path: whatever the planner assumed, the
    realized duration/energy of node ``n`` at clock ``f`` is what profiling
    measured for its op type at ``f`` -- planner optimism shows up as
    slowdown here, exactly as on a real cluster.
    """
    durations: Dict[int, float] = {}
    powers: Dict[int, float] = {}
    for n in dag.nodes:
        op = dag.nodes[n].op_key
        op_profile = profile.get(op)
        if op_profile.fixed:
            m = op_profile.measurements[0]
        else:
            m = op_profile.at_freq(freq_plan[n])
        durations[n] = m.time_s
        powers[n] = m.energy_j / m.time_s
    return execute(dag, durations, powers, profile.p_blocking_w,
                   freqs=freq_plan, stage_blocking_w=profile.stage_blocking_w)


def max_frequency_plan(dag: ComputationDag, profile: PipelineProfile) -> Dict[int, int]:
    """The default mode of operation: every computation at the max clock."""
    plan: Dict[int, int] = {}
    for n in dag.nodes:
        op_profile = profile.get(dag.nodes[n].op_key)
        if op_profile.fixed:
            plan[n] = op_profile.measurements[0].freq_mhz
        else:
            plan[n] = op_profile.fastest.freq_mhz
    return plan


def min_energy_plan(dag: ComputationDag, profile: PipelineProfile) -> Dict[int, int]:
    """Every computation at its minimum-energy clock (§2.4's upper bound)."""
    plan: Dict[int, int] = {}
    for n in dag.nodes:
        op_profile = profile.get(dag.nodes[n].op_key)
        if op_profile.fixed:
            plan[n] = op_profile.measurements[0].freq_mhz
        else:
            plan[n] = op_profile.min_energy.freq_mhz
    return plan
