"""Layer-granularity model descriptions.

The paper partitions models at the granularity of Transformer layers (or
Bottleneck blocks for Wide-ResNet, Appendix B).  A :class:`LayerSpec` is one
such partitionable unit, carrying a hardware-independent
:class:`~repro.gpu.energy_model.WorkProfile` for its forward pass; backward
work is derived with a multiplier (backward ~= 2x forward FLOPs, 3x when
activation recomputation re-runs the forward, §5).

A :class:`ModelSpec` is an ordered sequence of layers plus an optional
non-partitionable *tail* (the language-model head) that is always pinned to
the last pipeline stage -- which is precisely the source of imbalance the
paper discusses in Appendix B for GPT-3/Bloom/BERT.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..gpu.energy_model import ComputationEnergyModel, WorkProfile
from ..gpu.specs import GPUSpec

#: Backward/forward FLOP ratio without activation recomputation.
BACKWARD_MULTIPLIER = 2.0
#: Backward/forward FLOP ratio with activation recomputation (forward is
#: re-executed inside backward; enabled in the paper's testbed, §5).
BACKWARD_MULTIPLIER_RECOMPUTE = 3.0


@dataclass(frozen=True)
class LayerSpec:
    """One partitionable layer.

    Attributes:
        name: Stable identifier, e.g. ``"decoder.17"``.
        kind: Layer family (``embedding``, ``transformer``, ``lm_head``,
            ``stem``, ``bottleneck``, ``classifier``).
        forward: Work of one forward pass over one microbatch.
        backward_multiplier: Backward work as a multiple of forward work.
    """

    name: str
    kind: str
    forward: WorkProfile
    backward_multiplier: float = BACKWARD_MULTIPLIER

    def __post_init__(self) -> None:
        if self.backward_multiplier <= 0:
            raise ConfigurationError("backward multiplier must be positive")

    @property
    def backward(self) -> WorkProfile:
        """Work of one backward pass over one microbatch."""
        return self.forward.scaled(self.backward_multiplier)

    def shard(self, degree: int) -> "LayerSpec":
        """Per-GPU slice under tensor/operator parallelism (§4.4).

        Operator parallelism splits work evenly, so the per-GPU profile is
        the layer's work divided by the degree.
        """
        if degree <= 0:
            raise ConfigurationError("parallel degree must be positive")
        if degree == 1:
            return self
        return replace(self, forward=self.forward.scaled(1.0 / degree))


@dataclass(frozen=True)
class ModelSpec:
    """A model as an ordered list of partitionable layers plus a pinned tail.

    ``layers`` are what the stage partitioner distributes; ``tail`` (the LM
    head, if any) always executes on the last stage and cannot be moved --
    matching the frameworks the paper targets (Appendix B.1).
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    tail: Optional[LayerSpec] = None
    params: int = 0
    microbatch_size: int = 1
    seq_len: int = 0
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError("a model needs at least one layer")

    # Every planner memo key holds the model, and hashing it walks every
    # layer's work profile: hash once per object.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.layers, self.tail, self.params,
                           self.microbatch_size, self.seq_len))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # String hashes differ per process: an unpickled copy rehashes.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def shard(self, degree: int) -> "ModelSpec":
        """Tensor-parallel per-GPU view of the model."""
        return replace(
            self,
            layers=tuple(layer.shard(degree) for layer in self.layers),
            tail=self.tail.shard(degree) if self.tail is not None else None,
        )

    # -- stage aggregation ---------------------------------------------------
    def stage_forward_work(self, start: int, stop: int, last_stage: bool) -> WorkProfile:
        """Total forward work of layers ``[start, stop)`` (+ tail if last)."""
        work = self._sum_work([layer.forward for layer in self.layers[start:stop]])
        if last_stage and self.tail is not None:
            work = work + self.tail.forward
        return work

    def stage_backward_work(self, start: int, stop: int, last_stage: bool) -> WorkProfile:
        """Total backward work of layers ``[start, stop)`` (+ tail if last)."""
        work = self._sum_work([layer.backward for layer in self.layers[start:stop]])
        if last_stage and self.tail is not None:
            work = work + self.tail.backward
        return work

    @staticmethod
    def _sum_work(profiles: Sequence[WorkProfile]) -> WorkProfile:
        if not profiles:
            raise ConfigurationError("a stage must contain at least one layer")
        total = profiles[0]
        for p in profiles[1:]:
            total = total + p
        return total

    def layer_forward_latencies(self, gpu: GPUSpec) -> list:
        """Forward latency of each layer at the GPU's max clock (seconds).

        This is the quantity minimum-imbalance partitioning balances
        (Appendix B: only forward latency is considered, backward being
        proportional).
        """
        model = ComputationEnergyModel(gpu)
        return [
            model.duration(layer.forward, gpu.max_freq) for layer in self.layers
        ]

    def tail_forward_latency(self, gpu: GPUSpec) -> float:
        """Forward latency of the pinned tail (0 if absent)."""
        if self.tail is None:
            return 0.0
        return ComputationEnergyModel(gpu).duration(self.tail.forward, gpu.max_freq)
