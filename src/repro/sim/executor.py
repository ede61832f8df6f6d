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
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..exceptions import SimulationError
from ..pipeline.dag import ComputationDag
from ..pipeline.instructions import Instruction
from ..profiler.measurement import Measurement, OpKey, OpProfile, PipelineProfile


class NodeExecution(NamedTuple):
    """One computation's realized execution window (an immutable record)."""

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


class ExecutionPrice(NamedTuple):
    """What Eq. 3 reads from one execution, and the one place it is summed.

    :meth:`PipelineExecution.energy_at` prices through this record, and
    the planner persists the all-max baseline's record beside its tau,
    so a warm plan prices the baseline without simulating it -- with the
    same float operations in the same order.  ``stage_busy`` maps each
    stage to its summed computation time, in the order the stages first
    appear in the execution's records (the order the homogeneous sum
    adds them).
    """

    iteration_time: float
    compute_energy: float
    stage_busy: Dict[int, float]
    num_devices: int
    p_blocking_w: float
    stage_blocking_w: Optional[Dict[int, float]] = None

    def blocking_until(self, t_sync: float) -> float:
        """Blocking energy of every stage up to ``t_sync``."""
        busy = self.stage_busy
        if self.stage_blocking_w is not None:
            # Mixed cluster: each stage idles at its own device's draw.
            draw = self.stage_blocking_w
            return sum(
                draw.get(s, self.p_blocking_w) * (t_sync - busy.get(s, 0))
                for s in range(self.num_devices)
            )
        return self.p_blocking_w * (self.num_devices * t_sync
                                    - sum(busy.values()))

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
        return self.compute_energy + self.blocking_until(time_s)


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
    #: Stage -> its records by start time (derived from ``records``).
    _by_stage: Dict[int, List[NodeExecution]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_stage = {}
        for rec in self.records:
            self._by_stage.setdefault(rec.instruction.stage, []).append(rec)
        for recs in self._by_stage.values():
            recs.sort(key=attrgetter("start"))

    def stage_records(self, stage: int) -> List[NodeExecution]:
        return list(self._by_stage.get(stage, []))

    def blocking_power(self, stage: int) -> float:
        """``P_blocking`` of one stage's device (scalar fallback)."""
        if self.stage_blocking_w is not None and stage in self.stage_blocking_w:
            return self.stage_blocking_w[stage]
        return self.p_blocking_w

    # The sums below spell out ``duration`` and ``energy_j`` (the same
    # float operations) instead of calling the properties: every plan
    # prices its execution, two Python calls per record each time.

    def stage_busy_time(self, stage: int) -> float:
        return sum([r.end - r.start for r in self._by_stage.get(stage, [])])

    def compute_energy(self) -> float:
        """Energy spent in computations (term 1 of Eq. 3 before blocking)."""
        return sum([r.power_w * (r.end - r.start) for r in self.records])

    def price(self) -> ExecutionPrice:
        """What Eq. 3 reads from this execution (:class:`ExecutionPrice`)."""
        return ExecutionPrice(
            self.iteration_time, self.compute_energy(),
            {s: self.stage_busy_time(s) for s in self._by_stage},
            self.num_devices(), self.p_blocking_w, self.stage_blocking_w)

    def energy_at(self, floor_s: Optional[float] = None) -> float:
        """Eq. 3: computation plus blocking energy until gradient sync
        (:meth:`ExecutionPrice.energy_at` of :meth:`price`)."""
        return self.price().energy_at(floor_s)

    def num_devices(self) -> int:
        return max(self.num_stages, len(self._by_stage))


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
    starts, makespan = dag.longest_path(durations)
    clocks = {} if freqs is None else freqs
    # ``_make`` builds each record in C, skipping the generated Python
    # ``__new__`` (one record per computation per simulation).
    record = NodeExecution._make
    records = [
        record((n, ins, starts[n], starts[n] + durations[n], powers[n],
                clocks.get(n, 0)))
        for n, ins in dag.nodes.items()
    ]
    return PipelineExecution(
        records=records,
        iteration_time=makespan,
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
    # Op key -> (its profile, clock -> measurement; None for a
    # constant-time op), resolved once per op rather than once per node.
    resolved: Dict[OpKey, Tuple[OpProfile, Optional[Dict[int, Measurement]]]] = {}
    for n, op in dag.op_keys().items():
        entry = resolved.get(op)
        if entry is None:
            op_profile = profile.get(op)
            entry = resolved[op] = (op_profile, _clock_map(op_profile))
        op_profile, by_clock = entry
        if by_clock is None:
            m = op_profile.measurements[0]
        else:
            f = freq_plan[n]
            m = by_clock.get(f)
            if m is None:
                m = op_profile.at_freq(f)  # raises: no measurement at f
        durations[n] = m.time_s
        powers[n] = m.energy_j / m.time_s
    return execute(dag, durations, powers, profile.p_blocking_w,
                   freqs=freq_plan, stage_blocking_w=profile.stage_blocking_w)


def _clock_map(op_profile: OpProfile) -> Optional[Dict[int, Measurement]]:
    """Clock -> the first measurement at that clock (what
    :meth:`OpProfile.at_freq` finds); None for a constant-time op, whose
    one measurement runs at any clock."""
    if op_profile.fixed:
        return None
    by_clock: Dict[int, Measurement] = {}
    for m in op_profile.measurements:
        by_clock.setdefault(m.freq_mhz, m)
    return by_clock


def _plan_per_op(
    dag: ComputationDag,
    profile: PipelineProfile,
    choose: Callable[[OpProfile], Measurement],
) -> Dict[int, int]:
    """Every computation at the clock ``choose`` picks for its op
    (constant-time ops at their one measurement), chosen once per op."""
    clock_of: Dict[OpKey, int] = {}
    plan: Dict[int, int] = {}
    for n, op in dag.op_keys().items():
        f = clock_of.get(op)
        if f is None:
            op_profile = profile.get(op)
            chosen = (op_profile.measurements[0] if op_profile.fixed
                      else choose(op_profile))
            f = clock_of[op] = chosen.freq_mhz
        plan[n] = f
    return plan


def max_frequency_plan(dag: ComputationDag, profile: PipelineProfile) -> Dict[int, int]:
    """The default mode of operation: every computation at the max clock."""
    return _plan_per_op(dag, profile, lambda p: p.fastest)


def min_energy_plan(dag: ComputationDag, profile: PipelineProfile) -> Dict[int, int]:
    """Every computation at its minimum-energy clock (§2.4's upper bound)."""
    return _plan_per_op(dag, profile, lambda p: p.min_energy)
