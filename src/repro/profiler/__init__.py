"""Time/energy profiling: measurements, Pareto filtering, exponential fits."""

from .fit import ExponentialFit, fit_exponential, fit_quality
from .measurement import (
    Measurement,
    OpKey,
    OpProfile,
    PipelineProfile,
    pareto_filter,
)
from .online import (
    estimated_profiling_overhead_s,
    profile_constant_op,
    profile_pipeline,
    stage_works,
    sweep_frequencies,
)

__all__ = [
    "ExponentialFit",
    "Measurement",
    "OpKey",
    "OpProfile",
    "PipelineProfile",
    "estimated_profiling_overhead_s",
    "fit_exponential",
    "fit_quality",
    "pareto_filter",
    "profile_constant_op",
    "profile_pipeline",
    "stage_works",
    "sweep_frequencies",
]
