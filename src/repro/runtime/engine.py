"""Simulated pipeline-parallel training engine (the Merak substitute, §5).

Executes 1F1B instruction streams over simulated devices in *simulated
time*, invoking the Perseus client hooks at exactly the boundaries a real
integration wraps (Appendix G):

    controller.set_speed(type); profiler.begin(type)
    ... run forward/backward on microbatch ...
    profiler.end(type)

Execution is event-driven and chronological: a computation's duration is
determined by the SM clock *actually applied* at its start (clock locks
take ~10 ms), so planner/controller sloppiness shows up as real slowdown,
just as on hardware.

Energy is counted the way Eq. 3 counts it: a stage's bubbles inside an
iteration -- the gap before each computation and the tail up to the
iteration's end -- are charged at ``P_blocking``, because the stage
busy-waits in NCCL until gradient sync (§3).  A bubble is recorded before
the profiler reads the counter at the next computation's start, so no
in-vivo op measurement absorbs it.

:class:`TrainingSession` wires the engine to a :class:`PerseusServer` and
drives the full lifecycle of Figure 4: in-vivo profiling -> asynchronous
frontier characterization -> schedule deployment -> straggler
notification -> instant re-deployment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.frontier import DEFAULT_TAU
from ..exceptions import SimulationError
from ..gpu.energy_model import ComputationEnergyModel
from ..gpu.nvml import SimulatedNVML
from ..gpu.specs import GPUSpec
from ..models.layers import ModelSpec
from ..partition.algorithms import PartitionResult
from ..pipeline.dag import ComputationDag, build_pipeline_dag
from ..pipeline.schedules import schedule_1f1b
from ..profiler.measurement import PipelineProfile
from .client import PerseusClient
from .server import PerseusServer


@dataclass
class IterationStats:
    """Outcome of one simulated training iteration."""

    index: int
    phase: str  # "profiling" | "default" | "optimized"
    iteration_time: float
    energy_j: float
    start_clock: float
    end_clock: float

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.iteration_time if self.iteration_time else 0.0


class TrainingEngine:
    """Instruction-driven 1F1B engine over simulated devices."""

    def __init__(
        self,
        model: ModelSpec,
        partition: PartitionResult,
        gpu: GPUSpec,
        num_microbatches: int,
        tensor_parallel: int = 1,
        freq_stride: int = 4,
        iterations_per_freq: int = 2,
    ):
        if tensor_parallel > 1:
            model = model.shard(tensor_parallel)
        self.model = model
        self.partition = partition
        self.gpu = gpu
        self.num_stages = partition.num_stages
        self.num_microbatches = num_microbatches
        self.schedule = schedule_1f1b(self.num_stages, num_microbatches)
        self.dag: ComputationDag = build_pipeline_dag(self.schedule)
        self.nvml = SimulatedNVML(gpu, self.num_stages)
        self.energy_model = ComputationEnergyModel(gpu)
        self.clients: List[PerseusClient] = [
            PerseusClient.create(
                self.nvml.device(s),
                s,
                freq_stride=freq_stride,
                iterations_per_freq=iterations_per_freq,
            )
            for s in range(self.num_stages)
        ]
        self.clock = 0.0
        self.iterations_run = 0
        self.slowdown: Dict[int, float] = {s: 1.0 for s in range(self.num_stages)}
        bounds = partition.boundaries
        self._works = {}
        for s in range(self.num_stages):
            last = s == self.num_stages - 1
            self._works[(s, "forward")] = model.stage_forward_work(
                bounds[s], bounds[s + 1], last
            )
            self._works[(s, "backward")] = model.stage_backward_work(
                bounds[s], bounds[s + 1], last
            )

    # -- straggler injection ---------------------------------------------------
    def set_stage_slowdown(self, stage: int, factor: float) -> None:
        """Throttle one device (e.g., thermal capping): kernels stretch."""
        if factor < 1.0:
            raise SimulationError("slowdown factor must be >= 1.0")
        if stage not in self.slowdown:
            raise SimulationError(f"no such stage {stage}")
        self.slowdown[stage] = factor

    # -- execution ---------------------------------------------------------------
    def run_iteration(self) -> IterationStats:
        """Execute one training iteration in simulated time."""
        offset = self.clock
        profiling = any(c.profiling for c in self.clients)
        for client in self.clients:
            client.begin_iteration(offset)

        finish: Dict[int, float] = {}
        remaining_deps = {
            n: {p for p in self.dag.pred[n] if p in self.dag.nodes}
            for n in self.dag.nodes
        }
        stage_free = {s: offset for s in range(self.num_stages)}
        blocking_w = self.gpu.blocking_w
        ready: List[tuple] = []
        for n, deps in remaining_deps.items():
            if not deps:
                heapq.heappush(ready, (stage_free[self.dag.nodes[n].stage], n))

        executed = 0
        while ready:
            start, node = heapq.heappop(ready)
            ins = self.dag.nodes[node]
            stage = ins.stage
            start = max(start, stage_free[stage])
            if finish.get(node) is not None:
                continue
            client = self.clients[stage]
            op_key = ins.op_key
            device = self.nvml.device(stage)
            # The bubble goes in before the profiler reads the counter.
            if start > stage_free[stage]:
                device.record_activity(stage_free[stage], start, blocking_w)
            client.on_instruction_start(op_key, start)

            freq = device.sm_clock(start)
            work = self._works[(stage, ins.kind.value)]
            duration = (
                self.energy_model.duration(work, freq) * self.slowdown[stage]
            )
            power = self.energy_model.power(work, freq) / self.slowdown[stage]
            end = start + duration
            device.record_activity(start, end, power)
            client.on_instruction_end(op_key, end)

            finish[node] = end
            stage_free[stage] = end
            executed += 1
            for succ in self.dag.succ[node]:
                if succ not in remaining_deps:
                    continue
                remaining_deps[succ].discard(node)
                if not remaining_deps[succ] and succ not in finish:
                    dep_ready = max(
                        (finish[p] for p in self.dag.pred[succ] if p in finish),
                        default=offset,
                    )
                    heapq.heappush(
                        ready,
                        (max(dep_ready, stage_free[self.dag.nodes[succ].stage]), succ),
                    )

        if executed != len(self.dag.nodes):
            raise SimulationError(
                f"executed {executed} of {len(self.dag.nodes)} instructions"
            )

        end_clock = max(finish.values())
        for s, free in stage_free.items():  # tails until gradient sync
            if end_clock > free:
                self.nvml.device(s).record_activity(
                    free, end_clock, blocking_w)
        energy = sum(
            self.nvml.device(s).energy_counter(end_clock, since=offset)
            for s in range(self.num_stages)
        )
        self.clock = end_clock
        for client in self.clients:
            client.on_iteration_end()
        stats = IterationStats(
            index=self.iterations_run,
            phase="profiling" if profiling else "default",
            iteration_time=end_clock - offset,
            energy_j=energy,
            start_clock=offset,
            end_clock=end_clock,
        )
        self.iterations_run += 1
        return stats

    # -- profiling results -------------------------------------------------------
    def profiling_done(self) -> bool:
        return all(not c.profiling for c in self.clients)

    def collect_profile(self) -> PipelineProfile:
        """Merge all stage clients' measurements + profiled P_blocking."""
        merged = PipelineProfile(p_blocking_w=profile_p_blocking(self.gpu))
        for client in self.clients:
            stage_profile = client.profiler.build_profile(merged.p_blocking_w)
            merged.ops.update(stage_profile.ops)
        merged.validate()
        return merged


def profile_p_blocking(gpu: GPUSpec) -> float:
    """Measure ``P_blocking`` with two GPUs (§5).

    One device busy-loops on P2P communication while its peer sleeps; the
    blocking device's power draw over a one-second window is
    ``P_blocking``.  Done once per GPU model.
    """
    nvml = SimulatedNVML(gpu, 2)
    blocker = nvml.device(0)
    # The blocking device spins inside a NCCL kernel at P_blocking.
    blocker.record_activity(0.0, 1.0, gpu.blocking_w)
    return blocker.energy_counter(1.0)


@dataclass
class TrainingSession:
    """Full Figure-4 lifecycle around one engine and one server."""

    engine: TrainingEngine
    server: PerseusServer
    job_id: str = "job-0"
    tau: float = DEFAULT_TAU
    history: List[IterationStats] = field(default_factory=list)
    _submitted: bool = field(default=False, repr=False)
    _drift: bool = field(default=False, repr=False)
    _drift_last_k: int = field(default=1, repr=False)
    _drift_times: List[float] = field(default_factory=list, repr=False)
    _drift_energies: List[float] = field(default_factory=list, repr=False)
    last_drift_action: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.server.register_job(self.job_id, self.engine.dag, tau=self.tau)

    def enable_drift(self, policy=None, last_k: int = 1) -> None:
        """Close the loop: report every optimized step to the server.

        Realized (time, energy) from each ``optimized``-phase iteration
        is summarized (:func:`~repro.profiler.online.summarize_steps`
        over the last ``last_k`` steps) and fed to
        :meth:`~repro.runtime.server.PerseusServer.report_measurement`;
        when the server's drift controller accepts a re-plan, the new
        schedule is redeployed to this engine's clients immediately.
        The controller runs on the engine's *simulated* clock, so the
        whole loop is deterministic.
        """
        if last_k < 1:
            raise SimulationError("drift summary window must be >= 1")
        self.server.enable_drift(
            self.job_id, policy=policy, clock=lambda: self.engine.clock)
        self._drift = True
        self._drift_last_k = last_k

    def step(self, blocking_characterization: bool = True) -> IterationStats:
        """Run one iteration, advancing the Perseus lifecycle as needed."""
        stats = self.engine.run_iteration()
        if self.engine.profiling_done() and not self._submitted:
            profile = self.engine.collect_profile()
            self.server.submit_profile(
                self.job_id, profile, blocking=blocking_characterization
            )
            self._submitted = True
        if (
            self._submitted
            and self.server.is_ready(self.job_id)
            and not self.engine.clients[0].controller.plan
        ):
            self._deploy_current()
        if self._submitted and self.engine.clients[0].controller.plan:
            stats = IterationStats(
                index=stats.index,
                phase="optimized",
                iteration_time=stats.iteration_time,
                energy_j=stats.energy_j,
                start_clock=stats.start_clock,
                end_clock=stats.end_clock,
            )
        if self._drift and stats.phase == "optimized":
            self._report_drift(stats)
        self.history.append(stats)
        return stats

    def _report_drift(self, stats: IterationStats) -> None:
        from ..profiler.online import summarize_steps

        self._drift_times.append(stats.iteration_time)
        self._drift_energies.append(stats.energy_j)
        summary = summarize_steps(
            self._drift_times, self._drift_energies,
            last_k=self._drift_last_k,
        )
        del self._drift_times[:-self._drift_last_k]
        del self._drift_energies[:-self._drift_last_k]
        self.last_drift_action = self.server.report_measurement(
            self.job_id, summary.time_s, energy_j=summary.energy_j)
        if self.last_drift_action.get("replanned"):
            self._deploy_current()

    def restart(self) -> Optional[dict]:
        """Simulate a checkpoint/restart of the training runtime.

        Clients come back cold -- plans dropped, clocks at the default
        maximum -- and the server is notified.  With drift enabled the
        controller re-adopts its held decision and the schedule is
        redeployed; without it the default-clock plan simply gets
        re-pushed on the next :meth:`step`.
        """
        now = self.engine.clock
        for client in self.engine.clients:
            client.controller.reset_plan(now)
        self._drift_times.clear()
        self._drift_energies.clear()
        action = self.server.notify_restart(self.job_id)
        if self._submitted and self.server.is_ready(self.job_id):
            self._deploy_current()
        return action

    def notify_straggler(self, accelerator_id: int, delay_s: float, degree: float) -> None:
        """Table 2 ``set_straggler``: infrastructure -> server -> clients."""
        self.server.set_straggler(self.job_id, accelerator_id, delay_s, degree)
        if self.server.is_ready(self.job_id):
            self._deploy_current()

    def _deploy_current(self) -> None:
        schedule = self.server.current_schedule(self.job_id)
        now = self.engine.clock
        for stage, freqs in schedule.stage_plans(self.engine.dag).items():
            self.engine.clients[stage].deploy_schedule(freqs, now)
