"""Pipeline computation profiling (§5 "Profiler").

Profiles the forward and backward of every pipeline stage across the GPU's
frequency ladder, sweeping from the highest clock downward and terminating
once lower clocks become strictly suboptimal (more time *and* more energy)
-- exactly the early-exit rule in §5.

This module is the analytic fast path used by experiments; the in-vivo
client-side profiler that drives a running training engine lives in
:mod:`repro.runtime.client` and produces the same :class:`PipelineProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ProfilingError
from ..gpu.energy_model import ComputationEnergyModel, WorkProfile
from ..gpu.specs import GPULike, GPUSpec, resolve_gpus
from ..partition.algorithms import PartitionResult
from ..models.layers import ModelSpec
from .measurement import Measurement, OpProfile, PipelineProfile

#: §5's early exit: a sweep ends after this many consecutive clocks
#: whose energy exceeds the minimum seen so far.
SWEEP_PATIENCE = 3


def sweep_frequencies(
    model: ComputationEnergyModel,
    work: WorkProfile,
    freq_stride: int = 1,
) -> list:
    """Measure (time, energy) from the highest clock down, stopping early.

    Stops after :data:`SWEEP_PATIENCE` consecutive measurements whose
    energy exceeds the minimum seen so far: below the min-energy clock
    every lower clock is strictly suboptimal (§5).
    """
    table = model.spec.freq if freq_stride == 1 else model.spec.freq.subsample(freq_stride)
    measurements = []
    min_energy = float("inf")
    worse_streak = 0
    for freq in table.descending():
        t, e = model.time_energy(work, freq)
        measurements.append(Measurement(freq_mhz=freq, time_s=t, energy_j=e))
        if e < min_energy:
            min_energy = e
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= SWEEP_PATIENCE:
                break
    return measurements


def stage_works(
    model_spec: ModelSpec, partition: PartitionResult
) -> list:
    """Per-stage (forward_work, backward_work) under a partition."""
    works = []
    bounds = partition.boundaries
    for s in range(partition.num_stages):
        last = s == partition.num_stages - 1
        fwd = model_spec.stage_forward_work(bounds[s], bounds[s + 1], last)
        bwd = model_spec.stage_backward_work(bounds[s], bounds[s + 1], last)
        works.append((fwd, bwd))
    return works


def profile_stage_measurements(
    gpu: GPUSpec,
    work: WorkProfile,
    freq_stride: int = 1,
) -> List[Measurement]:
    """One computation's frequency sweep on one stage's device.

    This is the unit the :class:`repro.api.Planner` memoizes per
    ``(gpu, work, stride)`` so mixed-cluster sweeps re-measure each
    distinct (device, stage-slice) pair exactly once.
    """
    return sweep_frequencies(ComputationEnergyModel(gpu), work, freq_stride)


def profile_pipeline(
    model_spec: ModelSpec,
    partition: PartitionResult,
    gpu: GPULike,
    tensor_parallel: int = 1,
    freq_stride: int = 1,
) -> PipelineProfile:
    """Profile every stage's forward/backward over the frequency ladder.

    With operator parallelism, one GPU per stage is profiled and the result
    replicated (§4.4): we profile the per-GPU shard directly.

    Args:
        gpu: One device for the whole pipeline, or a per-stage sequence
            of devices (mixed cluster).  Each stage is swept over *its
            own* frequency ladder and power curve; a heterogeneous
            profile carries per-stage blocking powers.
        freq_stride: Subsample the frequency ladder (1 = full 15 MHz grid).
    """
    gpus = resolve_gpus(gpu, partition.num_stages)
    if tensor_parallel > 1:
        model_spec = model_spec.shard(tensor_parallel)
    profile = PipelineProfile.for_devices(gpus)
    for stage, (fwd, bwd) in enumerate(stage_works(model_spec, partition)):
        energy_model = ComputationEnergyModel(gpus[stage])
        for kind, work in (("forward", fwd), ("backward", bwd)):
            op = (stage, kind)
            op_profile = OpProfile(op=op)
            for m in sweep_frequencies(energy_model, work, freq_stride):
                op_profile.add(m)
            profile.ops[op] = op_profile
    profile.validate()
    return profile


def profile_constant_op(
    profile: PipelineProfile,
    stage: int,
    label: str,
    duration_s: float,
    power_w: Optional[float] = None,
) -> None:
    """Register a constant-time operation (§4.4) into a profile.

    The op gets a single (time, energy) choice; the planner will treat it
    as a node with one frequency choice.
    """
    if duration_s <= 0:
        raise ProfilingError("constant op duration must be positive")
    power = profile.p_blocking_w if power_w is None else power_w
    op = (stage, "const", label)
    profile.add_measurement(
        op,
        Measurement(freq_mhz=0, time_s=duration_s, energy_j=power * duration_s),
        fixed=True,
    )
    profile.ops[op].fixed = True


def estimated_profiling_overhead_s(
    profile: PipelineProfile, iterations_per_freq: int = 5
) -> float:
    """Wall-clock cost of the in-vivo sweep (§6.5 reports ~13 min on A100).

    Each supported frequency is profiled for about ``iterations_per_freq``
    iterations; an iteration's length is bounded by the slowest stage at
    that frequency.
    """
    total = 0.0
    freqs = sorted(
        {m.freq_mhz for op in profile.ops.values() for m in op.measurements}
    )
    for f in freqs:
        slowest = 0.0
        for op in profile.ops.values():
            if op.fixed:
                continue
            for m in op.measurements:
                if m.freq_mhz == f:
                    slowest = max(slowest, m.time_s)
        total += iterations_per_freq * slowest * 2  # fwd+bwd across microbatches
    return total


# -- realized-step summaries (drift reporting) --------------------------------

@dataclass(frozen=True)
class StepSummary:
    """Windowed mean of realized training steps, ready to report.

    This is the unit the drift loop moves: an engine (or any external
    runtime) averages its last ``k`` optimized steps and ships the
    result through ``report_measurement``.  ``stage_time_s`` is the
    per-stage breakdown when the runtime can attribute time to stages
    -- it lets the server re-profile *only* the drifted stages.
    """

    steps: int
    time_s: float
    energy_j: Optional[float] = None
    stage_time_s: Optional[Tuple[float, ...]] = None

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "stage_time_s": (
                list(self.stage_time_s)
                if self.stage_time_s is not None else None
            ),
        }


def summarize_steps(
    times: Sequence[float],
    energies: Optional[Sequence[float]] = None,
    stage_times: Optional[Sequence[Sequence[float]]] = None,
    last_k: Optional[int] = None,
) -> StepSummary:
    """Mean the last ``k`` realized steps into one :class:`StepSummary`.

    ``times`` are per-iteration wall times; ``energies`` (optional,
    same length) per-iteration energies; ``stage_times`` (optional)
    per-iteration per-stage time rows.  ``last_k=None`` averages the
    whole window.
    """
    times = list(times)
    if not times:
        raise ProfilingError("summarize_steps needs at least one step")
    if energies is not None and len(energies) != len(times):
        raise ProfilingError("energies must align with times")
    if stage_times is not None and len(stage_times) != len(times):
        raise ProfilingError("stage_times must align with times")
    if last_k is not None:
        if last_k < 1:
            raise ProfilingError("last_k must be >= 1")
        times = times[-last_k:]
        if energies is not None:
            energies = list(energies)[-last_k:]
        if stage_times is not None:
            stage_times = list(stage_times)[-last_k:]
    n = len(times)
    energy = None
    if energies is not None:
        energy = float(sum(energies)) / n
    stages: Optional[Tuple[float, ...]] = None
    if stage_times is not None:
        widths = {len(row) for row in stage_times}
        if len(widths) != 1:
            raise ProfilingError("stage_times rows must have equal width")
        width = widths.pop()
        stages = tuple(
            float(sum(row[s] for row in stage_times)) / n
            for s in range(width)
        )
    return StepSummary(
        steps=n,
        time_s=float(sum(times)) / n,
        energy_j=energy,
        stage_time_s=stages,
    )


def rescale_stage_profile(
    profile: PipelineProfile,
    factors: Mapping[int, Tuple[float, float]],
) -> PipelineProfile:
    """Re-profile *only* the drifted stages, analytically.

    ``factors`` maps stage index to ``(time_factor, energy_factor)``
    multipliers observed in vivo.  Every measurement of every op on a
    listed stage is rescaled; untouched stages keep their original
    sweeps, so the result is exactly the "re-profile only the drifted
    stages" artifact the drift controller re-plans from.  Blocking
    powers and ``fixed`` markers are preserved.
    """
    for stage, (tf, ef) in factors.items():
        if tf <= 0 or ef <= 0:
            raise ProfilingError(
                f"stage {stage} rescale factors must be positive, got "
                f"({tf!r}, {ef!r})"
            )
    out = PipelineProfile(
        p_blocking_w=profile.p_blocking_w,
        stage_blocking_w=(
            dict(profile.stage_blocking_w)
            if profile.stage_blocking_w is not None else None
        ),
    )
    for op, op_profile in profile.ops.items():
        stage = op[0]
        if stage in factors:
            tf, ef = factors[stage]
            scaled = OpProfile(op=op, fixed=op_profile.fixed)
            for m in op_profile.measurements:
                scaled.add(Measurement(
                    freq_mhz=m.freq_mhz,
                    time_s=m.time_s * tf,
                    energy_j=m.energy_j * ef,
                ))
            out.ops[op] = scaled
        else:
            out.ops[op] = op_profile
    out.validate()
    return out
