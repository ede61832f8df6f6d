"""Per-computation continuous cost models.

Bridges profiling and planning: each op type's Pareto measurements are
fitted with the exponential relaxation (Appendix D), and the planner works
with *effective energy* ``eta(t) = e(t) - P_blocking * t`` (Eq. 4): slowing
a computation also displaces time the GPU would otherwise burn at
``P_blocking`` waiting on communication.

Durations range over ``[t_min, t_max]`` where ``t_min`` is the duration at
the maximum clock and ``t_max`` the duration at the *minimum-energy* clock
-- beyond which lower clocks are strictly suboptimal (§5) and the
time-energy frontier's ``T*`` endpoint is defined (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..exceptions import ProfilingError
from ..profiler.fit import ExponentialFit, fit_exponential
from ..profiler.measurement import OpKey, OpProfile, PipelineProfile
from ..units import clamp


@dataclass(frozen=True)
class OpCostModel:
    """Continuous time-energy cost of one computation type."""

    op: OpKey
    profile: OpProfile
    p_blocking_w: float
    fit: Optional[ExponentialFit]  # None for fixed (constant-time) ops
    t_min: float
    t_max: float
    fixed: bool = False

    def energy(self, t: float) -> float:
        """Raw energy (joules) to run in planned time ``t``."""
        if self.fixed or self.fit is None:
            return self.profile.measurements[0].energy_j
        return self.fit(clamp(t, self.t_min, self.t_max))

    def eta(self, t: float) -> float:
        """Effective energy ``e(t) - P_blocking * t`` (Eq. 4)."""
        return self.energy(t) - self.p_blocking_w * t

    def can_speed_up(self, t: float, tau: float) -> bool:
        """Whether this op can run at all faster than ``t``.

        Partial steps (less than ``tau`` of headroom) are allowed: the op
        then speeds up to ``t_min`` exactly, contributing a smaller but
        still positive reduction.
        """
        del tau  # partial speed-ups are permitted
        return not self.fixed and t > self.t_min + 1e-9

    def can_slow_down(self, t: float, tau: float) -> bool:
        """Whether this op can run at all slower than ``t``."""
        del tau  # partial slow-downs are permitted
        return not self.fixed and t < self.t_max - 1e-9

    def speedup_cost(self, t: float, tau: float) -> float:
        """Effective-energy increase of a (possibly clamped) ``tau`` speed-up.

        ``eta`` clamps to ``[t_min, t_max]``, so near the boundary this is
        the cost of the partial step actually available (``e+``).
        """
        return self.eta(t - tau) - self.eta(t)

    def slowdown_gain(self, t: float, tau: float) -> float:
        """Effective-energy decrease of a (possibly clamped) ``tau``
        slow-down (``e-``)."""
        return self.eta(t) - self.eta(t + tau)


def build_cost_model(
    op_profile: OpProfile, p_blocking_w: float
) -> OpCostModel:
    """Fit one op's Pareto measurements into a continuous cost model."""
    if op_profile.fixed:
        if len(op_profile.measurements) != 1:
            raise ProfilingError(
                f"fixed op {op_profile.op} must have exactly one measurement"
            )
        t = op_profile.measurements[0].time_s
        return OpCostModel(
            op=op_profile.op,
            profile=op_profile,
            p_blocking_w=p_blocking_w,
            fit=None,
            t_min=t,
            t_max=t,
            fixed=True,
        )
    pareto = op_profile.pareto()
    if len(pareto) == 1:
        # Clock changes cannot move this op: treat as fixed.
        t = pareto[0].time_s
        return OpCostModel(
            op=op_profile.op,
            profile=op_profile,
            p_blocking_w=p_blocking_w,
            fit=None,
            t_min=t,
            t_max=t,
            fixed=True,
        )
    fit = fit_exponential(pareto)
    return OpCostModel(
        op=op_profile.op,
        profile=op_profile,
        p_blocking_w=p_blocking_w,
        fit=fit,
        t_min=fit.t_min,
        t_max=fit.t_max,
        fixed=False,
    )


def build_cost_models(profile: PipelineProfile) -> Dict[OpKey, OpCostModel]:
    """Cost models for every op in a pipeline profile.

    Each op's effective energy uses *its own stage's* blocking power
    (``profile.blocking_power(stage)``), so mixed-GPU pipelines trade
    slowdown against the displaced idle draw of the right device.

    The fitted models are cached on the profile instance (the
    exponential fits cost hundreds of least-squares solves);
    :meth:`~repro.profiler.measurement.PipelineProfile.add_measurement`
    invalidates the cache.
    """
    cached = getattr(profile, "_cost_model_cache", None)
    if cached is not None:
        return cached
    profile.validate()
    models = {
        op: build_cost_model(op_profile, profile.blocking_power(op[0]))
        for op, op_profile in profile.ops.items()
    }
    profile._cost_model_cache = models
    return models
