"""Experiment harness: workloads, end-to-end runner, report formatting."""

from .export import write_series
from .report import format_table
from .runner import (
    ExperimentSetup,
    IntrinsicRow,
    RealizedPotential,
    StragglerRow,
    evaluate_intrinsic,
    evaluate_realized_potential,
    evaluate_straggler,
    prepare,
)
from .workloads import (
    A40_3D_WORKLOAD,
    A40_PP8_WORKLOADS,
    A100_PP4_WORKLOADS,
    ALL_WORKLOADS,
    Workload,
    effective_microbatches,
    full_fidelity,
    get_workload,
)

__all__ = [
    "A40_3D_WORKLOAD",
    "A40_PP8_WORKLOADS",
    "A100_PP4_WORKLOADS",
    "ALL_WORKLOADS",
    "ExperimentSetup",
    "IntrinsicRow",
    "RealizedPotential",
    "StragglerRow",
    "Workload",
    "effective_microbatches",
    "evaluate_intrinsic",
    "evaluate_realized_potential",
    "evaluate_straggler",
    "format_table",
    "full_fidelity",
    "get_workload",
    "prepare",
    "write_series",
]
