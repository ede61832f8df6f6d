"""Straggler models (§2.3).

The paper targets stragglers that are *known to and anticipated by* the
training infrastructure.  Each model here yields the anticipated
slowdown degree the infrastructure would pass to
``server.set_straggler``:

* :class:`ThermalThrottle` -- power/thermal capping; its ``degree`` is
  the kernel slowdown, and :func:`stepped_ramp` spreads one thermal
  event over equal throttle increments;
* :class:`SlowGPUType` -- a pipeline with some stages on slower
  silicon, planned natively and compared against its homogeneous
  reference.

These models carry degrees only.  The §6.3 emulation prices a
throttled straggler pipeline's energy in
:func:`repro.emulation.largescale.emulated_straggler_savings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import SimulationError


@dataclass(frozen=True)
class ThermalThrottle:
    """Power/thermal capping: kernels stretch by ``slowdown``.

    Literature reports 10-50% slowdowns [47, 61, 62, 67, 93].
    """

    slowdown: float  # >= 1.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise SimulationError("throttle slowdown must be >= 1.0")

    @property
    def degree(self) -> float:
        """Anticipated iteration-time slowdown (what the infra reports)."""
        return self.slowdown


@dataclass(frozen=True)
class SlowGPUType:
    """A pipeline straggling because some stages run on slower silicon.

    Unlike :class:`ThermalThrottle` this is *not* a slowdown applied to
    a homogeneous pipeline: the mixed pipeline is planned natively
    through a per-stage ``PlanSpec.gpu`` tuple (each slow stage profiled
    on its real ladder and power curve).
    What this model contributes is the *anticipated degree* the
    infrastructure reports to ``server.set_straggler`` for the job's
    other, homogeneous pipelines: the ratio of the mixed pipeline's
    all-max iteration time to the reference deployment's.

    Build it with :meth:`from_spec`, which plans both pipelines on a
    (shared, memoized) planner.
    """

    gpu_names: Tuple[str, ...]
    reference_gpu: str
    degree: float  # mixed all-max iteration time / reference's, >= 1.0

    def __post_init__(self) -> None:
        if len(set(self.gpu_names)) < 1:
            raise SimulationError("mixed pipeline must name its GPUs")
        if self.degree < 1.0:
            raise SimulationError("slow-GPU degree must be >= 1.0")

    @classmethod
    def from_spec(
        cls,
        spec,
        reference_gpu: Optional[str] = None,
        planner=None,
    ) -> "SlowGPUType":
        """Plan the mixed spec and its homogeneous reference; compare.

        Args:
            spec: A :class:`repro.api.PlanSpec` with a per-stage ``gpu``
                tuple (a homogeneous spec yields degree 1.0).
            reference_gpu: The intended deployment's GPU; defaults to
                whichever GPU named in the mix gives the fastest
                homogeneous pipeline.
            planner: Shared :class:`repro.api.Planner` (profiles of the
                reference candidates and the mix are all memoized).
        """
        from ..api.planner import default_planner

        planner = planner or default_planner()
        names = spec.gpu_names
        if reference_gpu is None:
            # dict.fromkeys: unique names in first-seen stage order, so
            # ties break deterministically (a set would hash-order them).
            reference_gpu = min(
                dict.fromkeys(names),
                key=lambda name: planner.baseline_execution(
                    spec.replace(gpu=name)
                ).iteration_time,
            )
        t_mixed = planner.baseline_execution(spec).iteration_time
        t_ref = planner.baseline_execution(
            spec.replace(gpu=reference_gpu)
        ).iteration_time
        return cls(
            gpu_names=tuple(names),
            reference_gpu=reference_gpu,
            degree=max(1.0, t_mixed / t_ref),
        )


def stepped_ramp(peak: float, steps: int) -> Tuple[ThermalThrottle, ...]:
    """A thermal event as ``steps`` equal throttle increments up to ``peak``.

    Real power/thermal capping tightens gradually as the part heats, not
    as one step function; this is the shared shape behind the drift
    scenario library's thermal-ramp phases
    (:func:`repro.drift.scenarios.thermal_ramp`) and engine-level
    injection (each increment's ``slowdown`` feeds
    ``TrainingEngine.set_stage_slowdown``).
    """
    if steps < 1:
        raise SimulationError("a ramp needs at least one step")
    if peak < 1.0:
        raise SimulationError("ramp peak must be >= 1.0")
    return tuple(
        ThermalThrottle(slowdown=1.0 + (peak - 1.0) * i / steps)
        for i in range(1, steps + 1)
    )
