"""Stage-imbalance metrics (§2.2, Appendix B).

The paper quantifies pipeline imbalance as the ratio of the longest stage's
forward latency to the shortest's (1.00 = perfect balance).  Only forward
latency is considered because backward latency is proportional to it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import PartitionError


def validate_partition(boundaries: Sequence[int], num_layers: int, num_stages: int) -> None:
    """Check a partition boundary list ``[0, ..., num_layers]``.

    A partition of L layers into N stages is a strictly increasing list of
    N+1 layer indices starting at 0 and ending at L (Appendix B's notation,
    e.g. ``[0, 6, 12, 19, 25]``).
    """
    if len(boundaries) != num_stages + 1:
        raise PartitionError(
            f"expected {num_stages + 1} boundaries, got {len(boundaries)}"
        )
    if boundaries[0] != 0 or boundaries[-1] != num_layers:
        raise PartitionError("partition must span [0, num_layers]")
    for a, b in zip(boundaries, boundaries[1:]):
        if b <= a:
            raise PartitionError("each stage must contain at least one layer")


def per_stage_tails(
    tables: Sequence[Sequence[float]],
    tails: Optional[Sequence[float]],
    num_stages: int,
) -> List[float]:
    """The per-stage tails, after checking there is one latency table
    and one tail per stage (``tails=None``: no pinned tail anywhere)."""
    if len(tables) != num_stages:
        raise PartitionError(
            f"need one latency table per stage: got {len(tables)} for "
            f"{num_stages} stages"
        )
    tails = [0.0] * num_stages if tails is None else list(tails)
    if len(tails) != num_stages:
        raise PartitionError(
            f"need one tail latency per stage: got {len(tails)} for "
            f"{num_stages} stages"
        )
    return tails


def stage_latencies(
    tables: Sequence[Sequence[float]],
    boundaries: Sequence[int],
    tails: Optional[Sequence[float]] = None,
) -> List[float]:
    """Per-stage forward latencies for a partition.

    Each stage's layer block is priced on *that stage's* device:
    ``tables[s]`` holds every layer's forward latency on stage ``s``'s
    GPU, and ``tails[s]`` the pinned tail's (LM head) latency there
    (only the last stage's entry is charged).  The imbalance ratio over
    these latencies is the heterogeneity-aware metric: a stage is long
    either because it holds more layers or because its device has a
    lower throughput ceiling.  A homogeneous pipeline passes one table
    per stage, all equal.
    """
    num_stages = len(boundaries) - 1
    tails = per_stage_tails(tables, tails, num_stages)
    validate_partition(boundaries, len(tables[0]), num_stages)
    stages = []
    for s, (a, b) in enumerate(zip(boundaries, boundaries[1:])):
        total = sum(tables[s][a:b])
        if s == num_stages - 1:
            total += tails[s]
        stages.append(total)
    return stages


def imbalance_ratio(stage_latency_list: Sequence[float]) -> float:
    """Longest-to-shortest stage forward latency ratio (1.00 = balanced)."""
    if not stage_latency_list:
        raise PartitionError("no stages")
    shortest = min(stage_latency_list)
    if shortest <= 0:
        raise PartitionError("stage latencies must be positive")
    return max(stage_latency_list) / shortest
