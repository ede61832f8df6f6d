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

from ..api.planner import Planner, PlanReport, default_planner
from ..api.spec import PlanSpec
from ..core.optimizer import PerseusOptimizer
from ..models.layers import ModelSpec
from ..partition.algorithms import PartitionResult
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from .workloads import Workload, effective_microbatches, full_fidelity

@dataclass
class ExperimentSetup:
    """Everything needed to evaluate one workload."""

    workload: Workload
    spec: PlanSpec
    model: ModelSpec
    partition: PartitionResult
    profile: PipelineProfile
    dag: ComputationDag
    num_microbatches: int
    tau: float
    optimizer: PerseusOptimizer
    planner: Planner = field(repr=False)

    def plan(self, strategy: str,
             straggler_time: Optional[float] = None) -> PlanReport:
        """This workload planned by ``strategy`` (a priced report)."""
        return self.planner.plan(self.spec.replace(strategy=strategy),
                                 straggler_time=straggler_time)


def prepare(
    workload: Workload,
    num_microbatches: Optional[int] = None,
    freq_stride: Optional[int] = None,
    tau: Optional[float] = None,
    planner: Optional[Planner] = None,
) -> ExperimentSetup:
    """Build the full experiment stack for a workload.

    Args:
        num_microbatches: Override the (scaled) microbatch count.
        freq_stride: Frequency-ladder subsampling (defaults: 1 at full
            fidelity, 4 otherwise).
        tau: Planning granularity; derived from the frontier span if None.
        planner: Private planner (cache isolation, or a dedicated
            persistent store); default is the shared process planner,
            which attaches a plan store when ``REPRO_CACHE_DIR`` is set.
    """
    stride = freq_stride if freq_stride is not None else (1 if full_fidelity() else 4)
    m = effective_microbatches(workload, num_microbatches)
    planner = planner or default_planner()
    spec = PlanSpec(
        model=workload.model_name,
        gpu=workload.gpu.name,
        stages=workload.num_stages,
        microbatches=m,
        microbatch_size=workload.microbatch_size,
        tensor_parallel=workload.tensor_parallel,
        freq_stride=stride,
        tau=tau,
    )
    stack = planner.result(spec)
    return ExperimentSetup(
        workload=workload,
        spec=spec,
        model=stack.model,
        partition=stack.partition,
        profile=stack.profile,
        dag=stack.dag,
        num_microbatches=m,
        tau=stack.optimizer.tau,
        optimizer=stack.optimizer,
        planner=planner,
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


#: Table 3 and Table 4 rows: display name -> registered strategy.
_METHODS = (("Perseus", "perseus"), ("EnvPipe", "envpipe"))


def evaluate_intrinsic(setup: ExperimentSetup) -> List[IntrinsicRow]:
    """Perseus vs EnvPipe intrinsic-bloat reduction (Table 3)."""
    rows = []
    for method, strategy in _METHODS:
        report = setup.plan(strategy)
        rows.append(
            IntrinsicRow(
                workload=setup.workload.display,
                method=method,
                energy_savings_pct=report.energy_savings_pct,
                slowdown_pct=report.slowdown_pct,
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
    t_base = setup.planner.baseline_execution(setup.spec).iteration_time
    rows: List[StragglerRow] = []
    for factor in slowdown_factors:
        for method, strategy in _METHODS:
            report = setup.plan(strategy, straggler_time=factor * t_base)
            rows.append(
                StragglerRow(
                    workload=setup.workload.display,
                    method=method,
                    slowdown_factor=factor,
                    energy_savings_pct=report.energy_savings_pct,
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
    """Perseus's savings as a share of the §2.4 potential.

    The potential is the ``min-energy`` plan's savings: every
    computation at its minimum-energy clock, priced by Eq. 3 at its own
    (slower) iteration time, like every other :class:`PlanReport`.
    """
    potential = setup.plan("min-energy").energy_savings_pct
    realized = setup.plan("perseus").energy_savings_pct
    return RealizedPotential(
        workload=setup.workload.display,
        potential_pct=potential,
        realized_pct=realized,
        fraction=realized / potential if potential > 0 else 0.0,
    )
