"""End-to-end experiment pipeline: model -> partition -> profile -> plan.

:func:`prepare` assembles everything an evaluation needs by delegating
to the shared :class:`repro.api.Planner` (so experiments, the CLI and
the service all memoize the same staged pipeline); the
``evaluate_*`` helpers produce the rows reported in the paper's tables.

Because the shared planner honours ``REPRO_CACHE_DIR``, pointing that
variable at a directory makes figure reproductions *warm-start*: a
second run (or a different benchmark file touching the same workloads)
loads partitions, profiles and frontiers from the persistent plan store
instead of recomputing them.  Pass an explicit ``planner`` to
:func:`prepare` to isolate caches instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..api.planner import (
    DEFAULT_STEP_TARGET,
    Planner,
    default_planner,
)
from ..baselines.envpipe import envpipe_plan
from ..baselines.static import max_frequency_plan, min_energy_plan
from ..core.optimizer import PerseusOptimizer
from ..models.layers import ModelSpec
from ..partition.algorithms import PartitionResult
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from ..sim.executor import PipelineExecution, execute_frequency_plan
from .workloads import Workload, effective_microbatches, full_fidelity

@dataclass
class ExperimentSetup:
    """Everything needed to evaluate one workload."""

    workload: Workload
    model: ModelSpec
    partition: PartitionResult
    profile: PipelineProfile
    dag: ComputationDag
    num_microbatches: int
    tau: float
    _optimizer: Optional[PerseusOptimizer] = field(default=None, repr=False)

    @property
    def optimizer(self) -> PerseusOptimizer:
        if self._optimizer is None:
            self._optimizer = PerseusOptimizer(
                dag=self.dag, profile=self.profile, tau=self.tau
            )
        return self._optimizer

    # -- realized executions -------------------------------------------------
    def run_max_frequency(self) -> PipelineExecution:
        return execute_frequency_plan(
            self.dag, max_frequency_plan(self.dag, self.profile), self.profile
        )

    def run_min_energy(self) -> PipelineExecution:
        return execute_frequency_plan(
            self.dag, min_energy_plan(self.dag, self.profile), self.profile
        )

    def run_envpipe(self) -> PipelineExecution:
        return execute_frequency_plan(
            self.dag, envpipe_plan(self.dag, self.profile), self.profile
        )

    def run_perseus(self, straggler_time: Optional[float] = None) -> PipelineExecution:
        schedule = self.optimizer.schedule_for_straggler(straggler_time)
        return execute_frequency_plan(self.dag, schedule.frequencies, self.profile)


def prepare(
    workload: Workload,
    num_microbatches: Optional[int] = None,
    freq_stride: Optional[int] = None,
    tau: Optional[float] = None,
    noise: float = 0.0,
    seed: int = 0,
    step_target: int = DEFAULT_STEP_TARGET,
    planner: Optional[Planner] = None,
) -> ExperimentSetup:
    """Build the full experiment stack for a workload.

    Args:
        num_microbatches: Override the (scaled) microbatch count.
        freq_stride: Frequency-ladder subsampling (defaults: 1 at full
            fidelity, 4 otherwise).
        tau: Planning granularity; derived from the frontier span if None.
        noise: Multiplicative profiling noise (robustness experiments).
        planner: Private planner (cache isolation, or a dedicated
            persistent store); default is the shared process planner,
            which attaches a plan store when ``REPRO_CACHE_DIR`` is set.
    """
    stride = freq_stride if freq_stride is not None else (1 if full_fidelity() else 4)
    m = effective_microbatches(workload, num_microbatches)
    stack = (planner or default_planner()).build_stack(
        model=workload.model_name,
        gpu=workload.gpu,
        stages=workload.num_stages,
        microbatches=m,
        microbatch_size=workload.microbatch_size,
        tensor_parallel=workload.tensor_parallel,
        freq_stride=stride,
        tau=tau,
        noise=noise,
        seed=seed,
        step_target=step_target,
    )
    return ExperimentSetup(
        workload=workload,
        model=stack.model,
        partition=stack.partition,
        profile=stack.profile,
        dag=stack.dag,
        num_microbatches=m,
        tau=stack.optimizer.tau,
        _optimizer=stack.optimizer,
    )


# ---------------------------------------------------------------------------
# Table rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicRow:
    """One row of Table 3: intrinsic savings without stragglers."""

    workload: str
    method: str
    energy_savings_pct: float
    slowdown_pct: float


def evaluate_intrinsic(setup: ExperimentSetup) -> List[IntrinsicRow]:
    """Perseus vs EnvPipe intrinsic-bloat reduction (Table 3)."""
    base = setup.run_max_frequency()
    rows = []
    for method, execution in (
        ("Perseus", setup.run_perseus()),
        ("EnvPipe", setup.run_envpipe()),
    ):
        rows.append(
            IntrinsicRow(
                workload=setup.workload.display,
                method=method,
                energy_savings_pct=100.0
                * (1.0 - execution.total_energy() / base.total_energy()),
                slowdown_pct=100.0
                * (execution.iteration_time / base.iteration_time - 1.0),
            )
        )
    return rows


@dataclass(frozen=True)
class StragglerRow:
    """One cell group of Table 4: savings at one straggler slowdown."""

    workload: str
    method: str
    slowdown_factor: float
    energy_savings_pct: float


def evaluate_straggler(
    setup: ExperimentSetup,
    slowdown_factors: Sequence[float] = (1.05, 1.1, 1.2, 1.3, 1.4, 1.5),
) -> List[StragglerRow]:
    """Non-straggler pipeline savings vs straggler slowdown (Table 4).

    Baseline: the non-straggler runs all-max and blocks until the straggler
    (at ``T' = factor * T_max``) finishes.  Perseus slows the pipeline to
    ``T_opt = min(T*, T')``; EnvPipe applies its fixed plan regardless.
    """
    base = setup.run_max_frequency()
    t_base = base.iteration_time
    envpipe = setup.run_envpipe()
    rows: List[StragglerRow] = []
    for factor in slowdown_factors:
        t_prime = factor * t_base
        base_energy = base.total_energy(sync_time=t_prime)
        perseus = setup.run_perseus(straggler_time=t_prime)
        for method, execution in (("Perseus", perseus), ("EnvPipe", envpipe)):
            sync = max(t_prime, execution.iteration_time)
            rows.append(
                StragglerRow(
                    workload=setup.workload.display,
                    method=method,
                    slowdown_factor=factor,
                    energy_savings_pct=100.0
                    * (1.0 - execution.total_energy(sync_time=sync) / base_energy),
                )
            )
    return rows


@dataclass(frozen=True)
class RealizedPotential:
    """§6.2.3: fraction of the §2.4 upper-bound savings Perseus realizes."""

    workload: str
    potential_pct: float
    realized_pct: float
    fraction: float


def evaluate_realized_potential(setup: ExperimentSetup) -> RealizedPotential:
    base = setup.run_max_frequency()
    upper = setup.run_min_energy()
    perseus = setup.run_perseus()
    # Potential: computation energy at min-energy clocks vs at max clocks,
    # compared at the baseline's own iteration horizon (§2.4's bound).
    potential = 1.0 - upper.compute_energy() / base.compute_energy()
    realized = 1.0 - perseus.total_energy() / base.total_energy()
    return RealizedPotential(
        workload=setup.workload.display,
        potential_pct=100.0 * potential,
        realized_pct=100.0 * realized,
        fraction=realized / potential if potential > 0 else 0.0,
    )
