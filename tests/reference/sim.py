"""Seed pipeline simulator: two dict passes per execution (§6 ground truth).

The simulator :mod:`repro.sim.executor` replaced, kept as the reference
its single-pass version is checked against.  Every call here walks the
DAG from scratch: :func:`earliest_start_times` and :func:`iteration_time`
each run their own Kahn order over ``dag.succ``/``dag.pred``, every node
looks its op up through ``Instruction.op_key`` and scans its profile for
the clock, and each record is a frozen dataclass.  Nothing here reads a
cache the DAG keeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import GraphError, SimulationError
from repro.pipeline.dag import SINK, ComputationDag
from repro.pipeline.instructions import Instruction
from repro.profiler.measurement import PipelineProfile


def topological_order(dag: ComputationDag) -> List[int]:
    """Kahn's order over every node incl. SOURCE/SINK; raises on cycles."""
    indeg = {v: len(dag.pred[v]) for v in dag.succ}
    queue = deque(v for v, d in indeg.items() if d == 0)
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in dag.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != len(dag.succ):
        raise GraphError("computation graph contains a cycle")
    return order


def iteration_time(dag: ComputationDag, durations: Dict[int, float]) -> float:
    """Longest SOURCE->SINK path length under a duration assignment."""
    finish: Dict[int, float] = {}
    for v in topological_order(dag):
        start = max((finish[u] for u in dag.pred[v]), default=0.0)
        finish[v] = start + durations.get(v, 0.0)
    return finish[SINK]


def earliest_start_times(
    dag: ComputationDag, durations: Dict[int, float]
) -> Dict[int, float]:
    """Earliest start of each node under a duration assignment."""
    start: Dict[int, float] = {}
    finish: Dict[int, float] = {}
    for v in topological_order(dag):
        start[v] = max((finish[u] for u in dag.pred[v]), default=0.0)
        finish[v] = start[v] + durations.get(v, 0.0)
    return start


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
    """Realized timeline + Eq. 3 accounting of one pipeline iteration."""

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

    def blocking_power(self, stage: int) -> float:
        if self.stage_blocking_w is not None and stage in self.stage_blocking_w:
            return self.stage_blocking_w[stage]
        return self.p_blocking_w

    def stage_busy_time(self, stage: int) -> float:
        return sum(r.duration for r in self._by_stage.get(stage, []))

    def compute_energy(self) -> float:
        return sum(r.energy_j for r in self.records)

    def _blocking_until(self, t_sync: float) -> float:
        stages = max(self.num_stages, len(self._by_stage))
        if self.stage_blocking_w is not None:
            return sum(
                self.blocking_power(s) * (t_sync - self.stage_busy_time(s))
                for s in range(stages)
            )
        busy = sum(self.stage_busy_time(s) for s in self._by_stage)
        return self.p_blocking_w * (stages * t_sync - busy)

    def energy_at(self, floor_s: Optional[float] = None) -> float:
        time_s = self.iteration_time
        if floor_s is not None and floor_s > time_s:
            time_s = floor_s
        return self.compute_energy() + self._blocking_until(time_s)


def execute(
    dag: ComputationDag,
    durations: Dict[int, float],
    powers: Dict[int, float],
    p_blocking_w: float,
    freqs: Optional[Dict[int, int]] = None,
    stage_blocking_w: Optional[Dict[int, float]] = None,
) -> PipelineExecution:
    """Run the DAG under realized durations/powers: two longest-path passes."""
    missing = [n for n in dag.nodes if n not in durations or n not in powers]
    if missing:
        raise SimulationError(f"missing durations/powers for nodes {missing[:5]}")
    starts = earliest_start_times(dag, durations)
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
        iteration_time=iteration_time(dag, durations),
        num_stages=dag.num_stages,
        p_blocking_w=p_blocking_w,
        stage_blocking_w=stage_blocking_w,
    )


def execute_frequency_plan(
    dag: ComputationDag,
    freq_plan: Dict[int, int],
    profile: PipelineProfile,
) -> PipelineExecution:
    """Execute a frequency assignment with a profile scan per node."""
    durations: Dict[int, float] = {}
    powers: Dict[int, float] = {}
    for n in dag.nodes:
        op_profile = profile.get(dag.nodes[n].op_key)
        if op_profile.fixed:
            m = op_profile.measurements[0]
        else:
            m = op_profile.at_freq(freq_plan[n])
        durations[n] = m.time_s
        powers[n] = m.energy_j / m.time_s
    return execute(dag, durations, powers, profile.p_blocking_w,
                   freqs=freq_plan, stage_blocking_w=profile.stage_blocking_w)


def max_frequency_plan(dag: ComputationDag,
                       profile: PipelineProfile) -> Dict[int, int]:
    """Every computation at its fastest measured clock."""
    plan: Dict[int, int] = {}
    for n in dag.nodes:
        op_profile = profile.get(dag.nodes[n].op_key)
        if op_profile.fixed:
            plan[n] = op_profile.measurements[0].freq_mhz
        else:
            plan[n] = op_profile.fastest.freq_mhz
    return plan


def min_energy_plan(dag: ComputationDag,
                    profile: PipelineProfile) -> Dict[int, int]:
    """Every computation at its minimum-energy clock."""
    plan: Dict[int, int] = {}
    for n in dag.nodes:
        op_profile = profile.get(dag.nodes[n].op_key)
        if op_profile.fixed:
            plan[n] = op_profile.measurements[0].freq_mhz
        else:
            plan[n] = op_profile.min_energy.freq_mhz
    return plan
