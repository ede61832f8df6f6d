"""Large-scale emulation (§6.3): GPT-3 175B / Bloom 176B on 1024-8192 GPUs.

We cannot run 175B-parameter models on a testbed (neither could the
authors): like the paper, the emulator grounds itself on layer-level
profiles -- here produced by the analytical GPU substrate -- and runs the
*same* optimization and accounting machinery as the real path.

Strong scaling follows Table 5: global batch 1536, tensor-parallel degree
8, eight pipeline stages; as the GPU count doubles, the pipeline count
doubles and per-pipeline microbatches halve (96 -> 48 -> 24 -> 12), which
drives the bubble-ratio effect of Table 6 / Figure 8.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.optimizer import PerseusOptimizer
from ..exceptions import ConfigurationError
from ..api.planner import Planner, default_planner
from ..gpu.specs import GPULike, GPUSpec, resolve_gpus
from ..sim.executor import (
    PipelineExecution,
    execute_frequency_plan,
    max_frequency_plan,
)

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


@dataclass
class EmulationSetup:
    """One emulated (model, GPU, microbatch-count) pipeline."""

    model_name: str
    gpu: GPUSpec  # first stage's device (== all stages when homogeneous)
    num_microbatches: int
    dag: object
    profile: object
    optimizer: PerseusOptimizer
    #: The all-max execution every savings figure is relative to (§6.1),
    #: simulated once per setup.
    baseline: PipelineExecution
    gpus: tuple = ()  # per-stage devices (mixed-cluster emulation)

    def perseus(self, t_prime: Optional[float] = None) -> PipelineExecution:
        """Perseus's ``T_opt = min(T*, T')`` schedule, executed."""
        schedule = self.optimizer.schedule_for_straggler(t_prime)
        return execute_frequency_plan(
            self.dag, schedule.frequencies, self.profile)


#: Setup reuse per planner (weak keys: dropping a private planner drops
#: the setups built from its caches -- and prevents a recycled ``id``
#: from ever serving another planner's artifacts).
_SETUP_CACHE: "weakref.WeakKeyDictionary[Planner, Dict[tuple, EmulationSetup]]" = (
    weakref.WeakKeyDictionary()
)


def prepare_emulation(
    model_name: str,
    gpu: GPULike,
    num_microbatches: int,
    microbatch_size: int = 1,
    freq_stride: int = 4,
    step_target: int = 200,
    planner: Optional[Planner] = None,
) -> EmulationSetup:
    """Profile one pipeline of the huge model and characterize its frontier.

    Per §4.4, operator parallelism lets Perseus profile one GPU per stage
    and replicate: the returned profile is the per-GPU (TP-sharded) view,
    and per-pipeline energies scale by the TP degree.  ``gpu`` may be a
    per-stage sequence to emulate a mixed-generation cluster (the §6.3
    machinery then runs unchanged on the heterogeneous profile).

    The stack comes from the shared :class:`~repro.api.Planner`, so
    emulations share partitions/profiles/frontiers with every other
    caller -- and persist them when ``REPRO_CACHE_DIR`` (or an explicit
    store-backed ``planner``) is in play, which is what lets the
    175B-scale figure reproductions warm-start.
    """
    gpus = resolve_gpus(gpu, PIPELINE_STAGES)
    planner = planner or default_planner()
    # The setup cache is scoped per planner: a setup built from one
    # planner's caches must not be served to a caller who passed a
    # different (e.g. store-backed) planner expecting its artifacts to
    # land there.
    per_planner = _SETUP_CACHE.setdefault(planner, {})
    key = (model_name, tuple(g.name for g in gpus), num_microbatches,
           microbatch_size, freq_stride, step_target)
    if key in per_planner:
        return per_planner[key]
    stack = planner.build_stack(
        model=model_name,
        gpu=gpus,
        stages=PIPELINE_STAGES,
        microbatches=num_microbatches,
        microbatch_size=microbatch_size,
        tensor_parallel=TENSOR_PARALLEL,
        freq_stride=freq_stride,
        step_target=step_target,
    )
    setup = EmulationSetup(
        model_name=model_name,
        gpu=gpus[0],
        num_microbatches=num_microbatches,
        dag=stack.dag,
        profile=stack.profile,
        optimizer=stack.optimizer,
        baseline=execute_frequency_plan(
            stack.dag, max_frequency_plan(stack.dag, stack.profile),
            stack.profile),
        gpus=stack.gpus,
    )
    per_planner[key] = setup
    return setup


def emulated_intrinsic_savings(setup: EmulationSetup) -> float:
    """Table 6: intrinsic savings (%) without stragglers."""
    return 100.0 * (1.0 - setup.perseus().energy_at()
                    / setup.baseline.energy_at())


def _straggler_time(setup: EmulationSetup, slowdown: float) -> float:
    """``T'``: the straggler runs the all-max plan, throttled ``slowdown``x."""
    if not slowdown >= 1.0:  # NaN too
        raise ConfigurationError(
            f"straggler slowdown must be >= 1.0, got {slowdown:g}")
    return setup.baseline.iteration_time * slowdown


def emulated_straggler_savings(
    setup: EmulationSetup,
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
    base = setup.baseline
    t_prime = _straggler_time(setup, slowdown)
    straggler_energy = (
        base.compute_energy()  # throttled power x stretched time ~= energy
        + sum(
            base.blocking_power(s)
            * (t_prime - base.stage_busy_time(s) * slowdown)
            for s in range(base.num_devices())
        )
    )

    base_non_straggler = base.energy_at(t_prime)
    perseus_non_straggler = setup.perseus(t_prime).energy_at(t_prime)

    n = num_pipelines - 1
    base_total = straggler_energy + n * base_non_straggler
    perseus_total = straggler_energy + n * perseus_non_straggler
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
    setup: EmulationSetup,
    num_pipelines: int,
    slowdown: float,
    plan_override: Optional[Dict[int, int]] = None,
) -> BloatBreakdown:
    """Split job-level savings into intrinsic and extrinsic components.

    Intrinsic: savings if non-stragglers kept the ``T_min`` schedule (only
    intrinsic bloat removed).  Extrinsic: the additional savings from
    slowing non-stragglers to ``T_opt``.  ``plan_override`` evaluates a
    baseline plan (e.g. EnvPipe's) instead of Perseus's ``T_min`` schedule,
    in which case the extrinsic share is zero by construction.
    """
    t_prime = _straggler_time(setup, slowdown)
    base_energy = setup.baseline.energy_at(t_prime)
    if plan_override is not None:
        intr_exec = full_exec = execute_frequency_plan(
            setup.dag, plan_override, setup.profile)
    else:
        intr_exec, full_exec = setup.perseus(), setup.perseus(t_prime)
    intr_energy = intr_exec.energy_at(t_prime)
    full_energy = full_exec.energy_at(t_prime)
    intrinsic = 100.0 * (1.0 - intr_energy / base_energy)
    total = 100.0 * (1.0 - full_energy / base_energy)
    return BloatBreakdown(
        intrinsic_pct=intrinsic, extrinsic_pct=max(total - intrinsic, 0.0)
    )


def t_star_ratio(setup: EmulationSetup) -> float:
    """``T*/T_min`` -- the star markers of Figure 8."""
    frontier = setup.optimizer.frontier
    return frontier.t_star / frontier.t_min
