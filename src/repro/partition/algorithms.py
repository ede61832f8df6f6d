"""Minimum-imbalance pipeline partitioning (Appendix B.1).

Finds the contiguous partition of a model's layers into ``N`` stages that
minimizes the imbalance ratio (longest / shortest stage forward latency).
The paper does this by exhaustive search; we use an equivalent exact
Pareto-set dynamic program over ``(max_so_far, min_so_far)`` pairs, which is
exact but polynomial in practice (dominated states are pruned), handling the
97-layer GPT-3 175B / 8-stage case instantly.

The pinned tail (LM head) latency is added to the final stage inside the
search, so the optimizer correctly trades fewer Transformer layers against
the head's extra latency -- the effect visible in the paper's partitions
(e.g. GPT-3 1.3B: ``[0, 6, 12, 19, 25]`` with only 6 layers in the final
stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..exceptions import PartitionError
from ..gpu.specs import GPULike, resolve_gpus
from ..models.layers import ModelSpec
from .imbalance import (
    imbalance_ratio,
    per_stage_tails,
    stage_latencies,
)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning search."""

    boundaries: Tuple[int, ...]
    stage_latencies: Tuple[float, ...]
    ratio: float

    @property
    def num_stages(self) -> int:
        return len(self.boundaries) - 1

    def stage_layer_counts(self) -> List[int]:
        return [b - a for a, b in zip(self.boundaries, self.boundaries[1:])]


def uniform_partition(num_layers: int, num_stages: int) -> List[int]:
    """Evenly split layer *counts* (the naive planner baseline)."""
    if num_stages <= 0 or num_layers < num_stages:
        raise PartitionError(
            f"cannot split {num_layers} layers into {num_stages} stages"
        )
    base, rem = divmod(num_layers, num_stages)
    boundaries = [0]
    for s in range(num_stages):
        boundaries.append(boundaries[-1] + base + (1 if s < rem else 0))
    return boundaries


class _State:
    """One Pareto state of the DP: (max stage, min stage, backpointer)."""

    __slots__ = ("max_lat", "min_lat", "prev", "start")

    def __init__(self, max_lat: float, min_lat: float, prev, start: int):
        self.max_lat = max_lat
        self.min_lat = min_lat
        self.prev = prev  # previous _State or None
        self.start = start  # layer index where the last stage begins

    def ratio(self) -> float:
        return self.max_lat / self.min_lat


def _prune(states: List[_State]) -> List[_State]:
    """Drop dominated states (another has <= max and >= min)."""
    states.sort(key=lambda s: (s.max_lat, -s.min_lat))
    kept: List[_State] = []
    best_min = -1.0
    for s in states:
        if s.min_lat > best_min + 1e-15:
            kept.append(s)
            best_min = s.min_lat
    return kept


def min_imbalance_partition(
    tables: Sequence[Sequence[float]],
    num_stages: int,
    tails: Optional[Sequence[float]] = None,
) -> PartitionResult:
    """Exact minimum-imbalance contiguous partition.

    ``tables[s]`` prices every layer on stage ``s``'s device and
    ``tails[s]`` the latency pinned to the final stage (LM head) on it;
    a homogeneous pipeline passes the same table for every stage.  The
    DP loop index *is* the stage number, so a segment assigned to stage
    ``s`` is summed from stage ``s``'s own table: the search trades
    layer counts against per-stage throughput ceilings (a slow GPU
    naturally receives fewer layers), and heterogeneity costs nothing
    beyond one prefix array per distinct table.
    """
    if num_stages <= 0 or not tables:
        raise PartitionError(
            f"cannot split layers into {num_stages} stages"
        )
    tails = per_stage_tails(tables, tails, num_stages)
    num_layers = len(tables[0])
    if num_layers < num_stages:
        raise PartitionError(
            f"cannot split {num_layers} layers into {num_stages} stages"
        )
    for table in tables:
        if len(table) != num_layers:
            raise PartitionError("latency tables must cover the same layers")
        if any(lat <= 0 for lat in table):
            raise PartitionError("layer latencies must be positive")

    prefix_cache: dict = {}
    prefixes: List[List[float]] = []
    for table in tables:
        key = tuple(table)
        if key not in prefix_cache:
            prefix = [0.0]
            for lat in table:
                prefix.append(prefix[-1] + lat)
            prefix_cache[key] = prefix
        prefixes.append(prefix_cache[key])

    def seg(a: int, b: int, stage_idx: int, last: bool) -> float:
        total = prefixes[stage_idx][b] - prefixes[stage_idx][a]
        if last:
            total += tails[stage_idx]
        return total

    # dp[j] -> Pareto states for splitting layers [0, j) into `stage` stages.
    dp: List[List[_State]] = [[] for _ in range(num_layers + 1)]
    for j in range(1, num_layers + 1):
        last = num_stages == 1 and j == num_layers
        lat = seg(0, j, 0, last)
        dp[j] = [_State(lat, lat, None, 0)]

    for stage in range(2, num_stages + 1):
        ndp: List[List[_State]] = [[] for _ in range(num_layers + 1)]
        # Layers remaining must accommodate the remaining stages.
        for j in range(stage, num_layers + 1):
            if stage < num_stages and j > num_layers - (num_stages - stage):
                continue
            candidates: List[_State] = []
            for k in range(stage - 1, j):
                if not dp[k]:
                    continue
                lat = seg(k, j, stage - 1,
                          stage == num_stages and j == num_layers)
                for st in dp[k]:
                    candidates.append(
                        _State(max(st.max_lat, lat), min(st.min_lat, lat), st, k)
                    )
            ndp[j] = _prune(candidates)
        dp = ndp

    finals = dp[num_layers]
    if not finals:
        raise PartitionError("no feasible partition found")
    best = min(finals, key=_State.ratio)

    boundaries = [num_layers]
    st: Optional[_State] = best
    while st is not None:
        boundaries.append(st.start)
        st = st.prev
    boundaries.reverse()
    lats = stage_latencies(tables, boundaries, tails)
    return PartitionResult(tuple(boundaries), tuple(lats), imbalance_ratio(lats))


def _stage_tables(
    model: ModelSpec, num_stages: int, gpu: GPULike
) -> Tuple[List[List[float]], List[float]]:
    """Every stage's layer table and tail, priced on that stage's device.

    ``gpu`` may be a single device (name or spec) or a per-stage
    sequence.  Tables are built once per distinct device and deduped by
    the GPUSpec value itself (frozen dataclass), not its name: a custom
    spec reusing a registry name must not collide.
    """
    gpus = resolve_gpus(gpu, num_stages)
    priced = {}
    for g in gpus:
        if g not in priced:
            priced[g] = (model.layer_forward_latencies(g),
                         model.tail_forward_latency(g))
    return [priced[g][0] for g in gpus], [priced[g][1] for g in gpus]


def partition_model(
    model: ModelSpec, num_stages: int, gpu: GPULike
) -> PartitionResult:
    """Minimum-imbalance partition of a model on one GPU or a mix."""
    tables, tails = _stage_tables(model, num_stages, gpu)
    return min_imbalance_partition(tables, num_stages, tails)


def partition_model_uniform(
    model: ModelSpec, num_stages: int, gpu: GPULike
) -> PartitionResult:
    """Uniform-layer-count partition of a model (baseline planner)."""
    tables, tails = _stage_tables(model, num_stages, gpu)
    boundaries = uniform_partition(model.num_layers, num_stages)
    lats = stage_latencies(tables, boundaries, tails)
    return PartitionResult(tuple(boundaries), tuple(lats), imbalance_ratio(lats))
