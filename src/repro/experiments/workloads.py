"""Evaluation workloads (§6.1, Appendix B.4, Tables 8-10).

Two testbeds as in the paper:

* **A100 PP4** (Table 10): four-stage pipeline parallelism on A100 PCIe.
* **A40 PP8** (Table 9): eight-stage pipeline parallelism on A40.
* **A40 3D** (Table 8): GPT-3 6.7B with DP2 x TP2 x PP4 on A40.

``num_microbatches`` records the paper's values; experiment preparation
scales them down by default (``REPRO_FULL_FIDELITY=1`` restores paper
scale) because our frontier optimizer runs on an interpreter, not a
cluster-side server with minutes of budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from ..gpu.specs import A40, A100_PCIE, GPUSpec


@dataclass(frozen=True)
class Workload:
    """One evaluation configuration."""

    key: str
    model_name: str
    display: str
    gpu: GPUSpec
    num_stages: int
    microbatch_size: int
    num_microbatches: int  # the paper's value (Tables 8-10)
    tensor_parallel: int = 1
    data_parallel: int = 1


def _wl(key, model, display, gpu, stages, mb, num_mb, tp=1, dp=1) -> Workload:
    return Workload(key, model, display, gpu, stages, mb, num_mb, tp, dp)


#: Table 10: four-stage pipeline parallelism on A100 PCIe GPUs.
A100_PP4_WORKLOADS: List[Workload] = [
    _wl("gpt3-1.3b@a100-pp4", "gpt3-xl", "GPT-3 1.3B", A100_PCIE, 4, 4, 128),
    _wl("bert-1.3b@a100-pp4", "bert-huge", "BERT 1.3B", A100_PCIE, 4, 8, 32),
    _wl("t5-3b@a100-pp4", "t5-3b", "T5 3B", A100_PCIE, 4, 4, 32),
    _wl("bloom-3b@a100-pp4", "bloom-3b", "Bloom 3B", A100_PCIE, 4, 4, 128),
    _wl(
        "wresnet-1.5b@a100-pp4", "wide-resnet101", "Wide-ResNet 1.5B",
        A100_PCIE, 4, 64, 24,
    ),
]

#: Table 9: eight-stage pipeline parallelism on A40 GPUs.
A40_PP8_WORKLOADS: List[Workload] = [
    _wl("gpt3-2.7b@a40-pp8", "gpt3-2.7b", "GPT-3 2.7B", A40, 8, 4, 256),
    _wl("bert-1.3b@a40-pp8", "bert-huge", "BERT 1.3B", A40, 8, 8, 32),
    _wl("t5-3b@a40-pp8", "t5-3b", "T5 3B", A40, 8, 4, 32),
    _wl("bloom-3b@a40-pp8", "bloom-3b", "Bloom 3B", A40, 8, 4, 128),
    _wl(
        "wresnet-1.5b@a40-pp8", "wide-resnet101", "Wide-ResNet 1.5B",
        A40, 8, 32, 48,
    ),
]

#: Table 8: 3D parallelism (DP2 x TP2 x PP4) on A40 GPUs.
A40_3D_WORKLOAD: Workload = _wl(
    "gpt3-6.7b@a40-3d", "gpt3-6.7b", "GPT-3 6.7B", A40, 4, 4, 128, tp=2, dp=2
)

ALL_WORKLOADS: List[Workload] = (
    A100_PP4_WORKLOADS + A40_PP8_WORKLOADS + [A40_3D_WORKLOAD]
)


def get_workload(key: str) -> Workload:
    for wl in ALL_WORKLOADS:
        if wl.key == key:
            return wl
    raise KeyError(f"unknown workload {key!r}")


def full_fidelity() -> bool:
    """Whether to run paper-scale microbatch counts and 15 MHz sweeps."""
    return os.environ.get("REPRO_FULL_FIDELITY", "0") == "1"


def effective_microbatches(workload: Workload, override: Optional[int]) -> int:
    """Microbatch count actually simulated (scaled down unless full fidelity).

    Intrinsic-bloat trends vs. microbatch count are reproduced explicitly
    by the Table 6 bench; elsewhere a moderate count keeps the optimizer's
    interpreter runtime within benchmark budgets without changing who wins.
    """
    if override is not None:
        return override
    if full_fidelity():
        return workload.num_microbatches
    return min(workload.num_microbatches, 3 * workload.num_stages)
