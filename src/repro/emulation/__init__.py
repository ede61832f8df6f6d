"""Large-scale emulation (GPT-3 175B / Bloom 176B, Table 5 strong scaling).

An emulated pipeline is a :func:`emulation_workload` prepared by
:func:`repro.experiments.runner.prepare`; every figure is read off a
:class:`~repro.api.PlanReport` of the shared planner.
"""

from .largescale import (
    GLOBAL_BATCH,
    PIPELINE_STAGES,
    TABLE5_SCALING,
    TENSOR_PARALLEL,
    BloatBreakdown,
    ScalingConfig,
    emulated_breakdown,
    emulated_intrinsic_savings,
    emulated_straggler_savings,
    emulation_workload,
    t_star_ratio,
    table5_configs,
)

__all__ = [
    "GLOBAL_BATCH",
    "PIPELINE_STAGES",
    "TABLE5_SCALING",
    "TENSOR_PARALLEL",
    "BloatBreakdown",
    "ScalingConfig",
    "emulated_breakdown",
    "emulated_intrinsic_savings",
    "emulated_straggler_savings",
    "emulation_workload",
    "t_star_ratio",
    "table5_configs",
]
