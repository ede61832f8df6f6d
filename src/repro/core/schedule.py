"""Energy schedules: the planner's output artifact (§3.2).

An energy schedule annotates every computation in the iteration DAG with a
planned duration (and, after realization, a GPU frequency).  The schedule's
effective energy is Eq. 4's ``sum_i (e_i - P_blocking * t_i)``; total
pipeline energy under a straggler follows Eq. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import ScheduleError
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import OpKey
from .costmodel import OpCostModel


@dataclass(frozen=True)
class EnergySchedule:
    """Planned per-computation durations + derived energy figures."""

    durations: Dict[int, float]
    iteration_time: float
    effective_energy: float  # Eq. 4: sum(e_i - P_blocking * t_i)
    compute_energy: float  # sum(e_i)
    frequencies: Dict[int, int] = field(default_factory=dict)

    def energy_at(self, blocking_w: float,
                  floor_s: Optional[float] = None) -> float:
        """Eq. 3: pipeline energy per iteration under a straggler floor.

        ``blocking_w`` is the blocking power summed over all stages and
        ``floor_s`` the straggler-gated iteration time ``T'``: the
        pipeline blocks on communication -- intra-pipeline gaps plus the
        wait for gradient synchronization -- until ``max(T, T')``.
        """
        time_s = self.iteration_time
        if floor_s is not None and floor_s > time_s:
            time_s = floor_s
        return self.effective_energy + blocking_w * time_s

    def stage_plans(self, dag: ComputationDag) -> Dict[int, List[int]]:
        """Stage -> the SM clock of each of its computations, in plan order.

        Node ids are allocated in per-stage instruction order (the order
        the engine executes), so DAG insertion order is the plan order --
        no re-sorting (planned start times can tie and reorder).
        """
        plans: Dict[int, List[int]] = {}
        for node, ins in dag.nodes.items():
            plans.setdefault(ins.stage, []).append(self.frequencies[node])
        return plans


def op_of_node(dag: ComputationDag, node: int) -> OpKey:
    """Profile key of a DAG node."""
    return dag.nodes[node].op_key


def schedule_energies(
    dag: ComputationDag,
    durations: Dict[int, float],
    cost_models: Dict[OpKey, OpCostModel],
) -> tuple:
    """(effective_energy, compute_energy) of a duration assignment."""
    effective = 0.0
    compute = 0.0
    for node, t in durations.items():
        cm = cost_models[op_of_node(dag, node)]
        e = cm.energy(t)
        compute += e
        effective += e - cm.p_blocking_w * t
    return effective, compute


def realize_frequencies(
    dag: ComputationDag,
    durations: Dict[int, float],
    cost_models: Dict[OpKey, OpCostModel],
) -> Dict[int, int]:
    """Planned durations -> lockable SM clocks (Algorithm 2 line 8).

    Each computation gets the *slowest* profiled frequency that runs no
    slower than its planned duration, so realized execution can only be
    faster than the plan and the critical path never stretches.
    """
    freqs: Dict[int, int] = {}
    for node, t in durations.items():
        cm = cost_models[op_of_node(dag, node)]
        if cm.fixed:
            freqs[node] = cm.profile.measurements[0].freq_mhz
        else:
            freqs[node] = cm.profile.frequency_for_time(t).freq_mhz
    return freqs


def make_schedule(
    dag: ComputationDag,
    durations: Dict[int, float],
    cost_models: Dict[OpKey, OpCostModel],
) -> EnergySchedule:
    """Bundle a duration assignment into a full :class:`EnergySchedule`."""
    missing = [n for n in dag.nodes if n not in durations]
    if missing:
        raise ScheduleError(f"missing durations for nodes {missing[:5]}...")
    effective, compute = schedule_energies(dag, durations, cost_models)
    return EnergySchedule(
        durations=dict(durations),
        iteration_time=dag.iteration_time(durations),
        effective_energy=effective,
        compute_energy=compute,
        frequencies=realize_frequencies(dag, durations, cost_models),
    )
