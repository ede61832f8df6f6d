"""The unified optimization framework (§3.1).

Given a straggler's iteration time ``T'``, a non-straggler pipeline's
energy-optimal iteration time is the universal prescription of Eq. 2:

    ``T_opt = min(T*, T')``

covering the three cases of Figure 3: no straggler (run at ``T_min``),
moderate straggler (use up all slack), and extreme straggler (never slow
past the minimum-energy point ``T*`` -- beyond it energy *increases*).

The straggler response is one decision, and each piece has one home:

* ``T' = degree * T_min`` -- :func:`straggler_floor`;
* the schedule at ``T_opt`` -- :meth:`Frontier.index_for
  <repro.core.frontier.Frontier.index_for>` (the only clamped lookup
  over frontier times; :meth:`~repro.core.frontier.Frontier.schedule_for`
  and :func:`select_schedule` sit on it);
* its Eq. 3 price at ``max(T, T')`` --
  :meth:`EnergySchedule.energy_at
  <repro.core.schedule.EnergySchedule.energy_at>` for a planned
  schedule, :meth:`PipelineExecution.energy_at
  <repro.sim.executor.PipelineExecution.energy_at>` for a simulated one
  (every :class:`~repro.api.planner.PlanReport` prices there);
* what each stage deploys --
  :meth:`~repro.core.schedule.EnergySchedule.stage_plans`.

The Perseus server, the fleet's operating-point ladder, the drift
scenario runner and ``repro straggler`` all go through these, so they
cannot disagree on which point a straggler gets or what it costs.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import ConfigurationError, OptimizationError
from .frontier import Frontier
from .schedule import EnergySchedule


def straggler_floor(t_min: float, degree: float) -> Optional[float]:
    """``T' = degree * T_min``, the iteration time a straggler imposes.

    ``degree`` is Table 2's anticipated slowdown; ``1.0`` (back to
    normal) imposes no floor and returns ``None``.
    """
    if not degree >= 1.0:  # NaN too
        raise ConfigurationError(
            f"straggler degree must be >= 1.0, got {degree:g}")
    return None if degree == 1.0 else degree * t_min


def energy_optimal_iteration_time(
    frontier: Frontier, straggler_time: Optional[float]
) -> float:
    """Eq. 2: ``T_opt = min(T*, T')``, floored at ``T_min``."""
    if straggler_time is None:
        return frontier.t_min
    if straggler_time <= 0:
        raise OptimizationError("straggler iteration time must be positive")
    return min(frontier.t_star, max(straggler_time, frontier.t_min))


def select_schedule(
    frontier: Frontier, straggler_time: Optional[float] = None
) -> EnergySchedule:
    """Look up the frontier schedule for a (possibly absent) straggler.

    This is the server's instant reaction path (§3.2 step 5): a bisect over
    the pre-characterized frontier, no re-optimization.
    """
    t_opt = energy_optimal_iteration_time(frontier, straggler_time)
    return frontier.schedule_for(t_opt)
