"""Large-scale emulation (GPT-3 175B / Bloom 176B, Table 5 strong scaling)."""

from .largescale import (
    GLOBAL_BATCH,
    PIPELINE_STAGES,
    TABLE5_SCALING,
    TENSOR_PARALLEL,
    BloatBreakdown,
    EmulationSetup,
    ScalingConfig,
    emulated_breakdown,
    emulated_intrinsic_savings,
    emulated_straggler_savings,
    prepare_emulation,
    t_star_ratio,
    table5_configs,
)

__all__ = [
    "GLOBAL_BATCH",
    "PIPELINE_STAGES",
    "TABLE5_SCALING",
    "TENSOR_PARALLEL",
    "BloatBreakdown",
    "EmulationSetup",
    "ScalingConfig",
    "emulated_breakdown",
    "emulated_intrinsic_savings",
    "emulated_straggler_savings",
    "prepare_emulation",
    "t_star_ratio",
    "table5_configs",
]
