"""Noisy profiling: the §5 sweep under multiplicative Gaussian noise.

The product profiler measures exactly; the robustness and fast-mode
tests perturb its measurements to check that planning degrades
gracefully.  :class:`NoisyEnergyModel` wraps a
:class:`~repro.gpu.energy_model.ComputationEnergyModel` so the product's
:func:`~repro.profiler.online.sweep_frequencies` runs unchanged -- its
early exit reads the noisy energies.  Draw order is fixed: one
generator per profile, then ``t`` and ``e`` of each measurement, each
clamped at ``1e-9``; the fast-mode fingerprints pin it.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.energy_model import ComputationEnergyModel
from repro.gpu.specs import GPULike, resolve_gpus
from repro.models.layers import ModelSpec
from repro.partition.algorithms import PartitionResult
from repro.profiler.measurement import OpProfile, PipelineProfile
from repro.profiler.online import stage_works, sweep_frequencies


class NoisyEnergyModel:
    """``time_energy`` of ``model``, each value scaled by
    ``1 + noise * N(0, 1)`` drawn from ``rng``."""

    def __init__(self, model: ComputationEnergyModel, noise: float,
                 rng: np.random.Generator) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.spec = model.spec
        self._model = model
        self._noise = noise
        self._rng = rng

    def time_energy(self, work, freq):
        t, e = self._model.time_energy(work, freq)
        t *= float(1.0 + self._noise * self._rng.standard_normal())
        e *= float(1.0 + self._noise * self._rng.standard_normal())
        return max(t, 1e-9), max(e, 1e-9)


def noisy_profile_pipeline(
    model_spec: ModelSpec,
    partition: PartitionResult,
    gpu: GPULike,
    freq_stride: int = 1,
    noise: float = 0.0,
    seed: int = 0,
) -> PipelineProfile:
    """:func:`~repro.profiler.online.profile_pipeline` with every
    measurement perturbed by one ``default_rng(seed)`` stream."""
    rng = np.random.default_rng(seed)
    gpus = resolve_gpus(gpu, partition.num_stages)
    profile = PipelineProfile.for_devices(gpus)
    for stage, (fwd, bwd) in enumerate(stage_works(model_spec, partition)):
        model = NoisyEnergyModel(ComputationEnergyModel(gpus[stage]), noise,
                                 rng)
        for kind, work in (("forward", fwd), ("backward", bwd)):
            op = (stage, kind)
            op_profile = OpProfile(op=op)
            for m in sweep_frequencies(model, work, freq_stride):
                op_profile.add(m)
            profile.ops[op] = op_profile
    profile.validate()
    return profile
