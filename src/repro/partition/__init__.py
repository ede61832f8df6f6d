"""Pipeline stage partitioning (minimum-imbalance search, Appendix B)."""

from .algorithms import (
    PartitionResult,
    min_imbalance_partition,
    partition_model,
    partition_model_uniform,
    uniform_partition,
)
from .imbalance import (
    imbalance_ratio,
    stage_latencies,
    validate_partition,
)

__all__ = [
    "PartitionResult",
    "imbalance_ratio",
    "min_imbalance_partition",
    "partition_model",
    "partition_model_uniform",
    "stage_latencies",
    "uniform_partition",
    "validate_partition",
]
