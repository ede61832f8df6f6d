"""Large-scale emulation (§6.3): GPT-3 175B / Bloom 176B on 1024-8192 GPUs.

We cannot run 175B-parameter models on a testbed (neither could the
authors): like the paper, the emulator grounds itself on layer-level
profiles -- here produced by the analytical GPU substrate.  One emulated
pipeline is an ordinary experiment workload (:func:`emulation_workload`)
prepared by :func:`repro.experiments.runner.prepare`, so it is planned
by the shared :class:`~repro.api.Planner` and every figure here is read
off a :class:`~repro.api.PlanReport`: the same number ``repro plan``
prints for that configuration.

Strong scaling follows Table 5: global batch 1536, tensor-parallel degree
8, eight pipeline stages; as the GPU count doubles, the pipeline count
doubles and per-pipeline microbatches halve (96 -> 48 -> 24 -> 12), which
drives the bubble-ratio effect of Table 6 / Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..exceptions import ConfigurationError
from ..experiments.runner import ExperimentSetup
from ..experiments.workloads import Workload
from ..gpu.specs import GPUSpec

#: Table 5 strong-scaling rows: (num_gpus, num_pipelines, microbatches).
TABLE5_SCALING = ((1024, 16, 96), (2048, 32, 48), (4096, 64, 24), (8192, 128, 12))
GLOBAL_BATCH = 1536
TENSOR_PARALLEL = 8
PIPELINE_STAGES = 8


@dataclass(frozen=True)
class ScalingConfig:
    """One strong-scaling point of Table 5."""

    num_gpus: int
    num_pipelines: int
    num_microbatches: int

    def __post_init__(self) -> None:
        expected = self.num_pipelines * TENSOR_PARALLEL * PIPELINE_STAGES
        if expected != self.num_gpus:
            raise ConfigurationError(
                f"{self.num_pipelines} pipelines x TP{TENSOR_PARALLEL} x "
                f"PP{PIPELINE_STAGES} = {expected}, not {self.num_gpus} GPUs"
            )


def table5_configs() -> List[ScalingConfig]:
    return [ScalingConfig(*row) for row in TABLE5_SCALING]


def emulation_workload(model_name: str, gpu: GPUSpec) -> Workload:
    """One pipeline of the Table 5 job: PP8 x TP8, microbatch size 1.

    Per §4.4, operator parallelism lets Perseus profile one GPU per
    stage and replicate, so the plan is the per-GPU (TP-sharded) view.
    The recorded microbatch count is the paper's 1024-GPU row (M = 96);
    pass ``num_microbatches`` to :func:`~repro.experiments.runner.prepare`
    for the other rows.
    """
    _, num_pipelines, num_microbatches = TABLE5_SCALING[0]
    return Workload(
        key=f"{model_name}@{gpu.name.lower()}-emulation",
        model_name=model_name,
        display=model_name,
        gpu=gpu,
        num_stages=PIPELINE_STAGES,
        microbatch_size=1,
        num_microbatches=num_microbatches,
        tensor_parallel=TENSOR_PARALLEL,
        data_parallel=num_pipelines,
    )


def emulated_intrinsic_savings(setup: ExperimentSetup) -> float:
    """Table 6: intrinsic savings (%) without stragglers."""
    return setup.plan("perseus").energy_savings_pct


def _straggler_time(setup: ExperimentSetup, slowdown: float) -> float:
    """``T'``: the straggler runs the all-max plan, throttled ``slowdown``x."""
    if not slowdown >= 1.0:  # NaN too
        raise ConfigurationError(
            f"straggler slowdown must be >= 1.0, got {slowdown:g}")
    return setup.plan("max-freq").iteration_time_s * slowdown


def emulated_straggler_savings(
    setup: ExperimentSetup,
    num_pipelines: int,
    slowdown: float,
) -> float:
    """Figure 8: job-level savings (%) with one straggler pipeline.

    The straggler (at every scale there is exactly one) runs all-max but
    throttled by ``slowdown``; baseline and Perseus differ only in the
    ``num_pipelines - 1`` non-straggler pipelines.
    """
    if num_pipelines < 2:
        raise ConfigurationError("need at least two pipelines for a straggler")
    t_prime = _straggler_time(setup, slowdown)
    base = setup.plan("max-freq").execution
    straggler_energy = (
        base.compute_energy()  # throttled power x stretched time ~= energy
        + sum(
            base.blocking_power(s)
            * (t_prime - base.stage_busy_time(s) * slowdown)
            for s in range(base.num_devices())
        )
    )
    non_straggler = setup.plan("perseus", t_prime)

    n = num_pipelines - 1
    base_total = straggler_energy + n * non_straggler.baseline_energy_j
    perseus_total = straggler_energy + n * non_straggler.energy_j
    return 100.0 * (1.0 - perseus_total / base_total)


@dataclass(frozen=True)
class BloatBreakdown:
    """Figure 7: intrinsic vs extrinsic savings split (%)."""

    intrinsic_pct: float
    extrinsic_pct: float

    @property
    def total_pct(self) -> float:
        return self.intrinsic_pct + self.extrinsic_pct


def emulated_breakdown(
    setup: ExperimentSetup,
    num_pipelines: int,
    slowdown: float,
    strategy: str = "perseus",
) -> BloatBreakdown:
    """Split job-level savings into intrinsic and extrinsic components.

    Intrinsic: ``strategy``'s straggler-free plan priced at ``T'`` (only
    intrinsic bloat removed).  Total: its plan for ``T'``; extrinsic is
    the difference.  A straggler-oblivious strategy (EnvPipe) plans the
    same for both, so its extrinsic share is zero.
    """
    t_prime = _straggler_time(setup, slowdown)
    total = setup.plan(strategy, t_prime)
    intrinsic_energy = setup.plan(strategy).execution.energy_at(t_prime)
    intrinsic = 100.0 * (1.0 - intrinsic_energy / total.baseline_energy_j)
    return BloatBreakdown(
        intrinsic_pct=intrinsic,
        extrinsic_pct=max(total.energy_savings_pct - intrinsic, 0.0),
    )


def t_star_ratio(setup: ExperimentSetup) -> float:
    """``T*/T_min`` -- the star markers of Figure 8."""
    frontier = setup.optimizer.frontier
    return frontier.t_star / frontier.t_min
