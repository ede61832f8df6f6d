"""Pluggable fleet allocation policies: one protocol, one registry.

A policy answers one question, at every simulator event: *given the
jobs currently running, each with its own operating-point ladder, and
the cluster power cap in force right now, which point should each job
run at?*  The registry is the same
:class:`~repro.api.strategies.Registry` that holds the planning
strategies -- ``@register_policy`` on a class with ``allocate(ctx)``
(or a plain function) -- so the fleet layer is extensible exactly the
way the planning layer is, including third-party plugins discovered
from the ``repro.strategies`` entry-point group.

Built-ins:

* ``uncapped``  -- every job at max clocks (the all-max reference).
* ``uniform``   -- one shared per-GPU power cap, binary-searched down
  until the fleet fits: the operationally dominant lever of McDonald
  et al. ("Great Power, Great Responsibility") where an operator sets
  the *same* ``nvidia-smi -pl`` limit on every device.
* ``greedy``    -- repeatedly slow the single hungriest job one step.
* ``waterfill`` -- frontier-aware water-filling: repeatedly move the
  job with the cheapest marginal seconds-per-joule slope along its own
  frontier, so power comes out of the jobs whose frontiers give energy
  back most cheaply in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..api.strategies import Registry, strategy_description
from ..exceptions import ConfigurationError
from .power import OperatingPoint, aggregate_power_w

#: An allocation: job id -> position in that job's ``options`` ladder.
Allocation = Dict[str, int]


@dataclass(frozen=True)
class JobView:
    """What a policy may see of one running job.

    ``options`` is the job's operating-point ladder, fastest first,
    with any straggler floor already applied; power strictly decreases
    along it.  ``remaining_iterations`` and ``deadline_s`` let smarter
    policies weigh urgency; the built-ins ignore them.
    """

    job_id: str
    options: Tuple[OperatingPoint, ...]
    num_gpus: int
    remaining_iterations: float = 0.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.options:
            raise ConfigurationError(
                f"job {self.job_id!r} has no operating points"
            )


@dataclass(frozen=True)
class AllocationContext:
    """One allocation decision: the running jobs and the cap in force."""

    jobs: Tuple[JobView, ...]
    cap_w: Optional[float]  # None = uncapped
    time_s: float = 0.0

    def fleet_power(self, allocation: Allocation) -> float:
        return aggregate_power_w([
            job.options[allocation[job.job_id]] for job in self.jobs
        ])


class FleetPolicy:
    """Protocol for allocation policies (duck-typed, like ``Strategy``)."""

    name: str = ""

    def allocate(self, ctx: AllocationContext) -> Allocation:
        raise NotImplementedError

    @property
    def description(self) -> str:
        return policy_description(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<fleet policy {self.name!r}>"


#: First docstring line of a registered policy (duck-typed).
policy_description = strategy_description

_POLICIES = Registry("policy", "allocate", FleetPolicy, label="fleet policy")
_REGISTRY: Dict[str, FleetPolicy] = _POLICIES.entries


def register_policy(
    name: str,
) -> Callable[[Union[type, Callable]], Union[type, Callable]]:
    """Class/function decorator adding a policy to the registry.

    The same :class:`~repro.api.strategies.Registry` as
    :func:`repro.api.register_strategy`: the decorated object is
    returned unchanged, an *instance* is stored (classes are
    instantiated with no arguments, functions wrapped, ready-made
    instances with ``allocate(ctx)`` stored as-is), and re-registering
    a name overwrites it (how plugins shadow built-ins).
    """
    return _POLICIES.register(name)


def get_policy(name: str) -> FleetPolicy:
    """Look up a registered policy (unknown names list what exists)."""
    return _POLICIES.lookup(name)


def list_policies() -> List[str]:
    """Sorted names of every registered fleet policy."""
    return _POLICIES.names()


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


@register_policy("uncapped")
def _uncapped(ctx: AllocationContext) -> Allocation:
    """Every job at maximum clocks, the cap ignored (all-max reference)."""
    return {job.job_id: 0 for job in ctx.jobs}


@register_policy("uniform")
class UniformCapPolicy(FleetPolicy):
    """One shared per-GPU power limit, lowered until the fleet fits.

    Models the operator lever of capping every GPU at the same wattage:
    each job independently runs the fastest frontier point whose
    *per-GPU* draw respects the shared limit.  The limit itself is the
    largest candidate (drawn from the jobs' own ladders) that brings
    aggregate draw under the cluster cap; if even the lowest ladder
    rungs do not fit, every job runs at its slowest point (best
    effort -- the simulator records the violation seconds).
    """

    def allocate(self, ctx: AllocationContext) -> Allocation:
        if ctx.cap_w is None:
            return {job.job_id: 0 for job in ctx.jobs}
        candidates = sorted(
            {
                point.per_gpu_power_w(job.num_gpus)
                for job in ctx.jobs
                for point in job.options
            },
            reverse=True,
        )

        def fit(limit_w: float) -> Allocation:
            out: Allocation = {}
            for job in ctx.jobs:
                chosen = len(job.options) - 1
                for pos, point in enumerate(job.options):
                    if point.per_gpu_power_w(job.num_gpus) <= limit_w + 1e-9:
                        chosen = pos
                        break
                out[job.job_id] = chosen
            return out

        # Highest shared limit whose allocation fits: fleet draw is
        # monotone non-decreasing in the limit, so scan high to low
        # (candidate lists are tiny -- frontiers have O(100) points).
        allocation = fit(candidates[-1]) if candidates else {}
        for limit in candidates:
            trial = fit(limit)
            if ctx.fleet_power(trial) <= ctx.cap_w + 1e-9:
                return trial
        return allocation


@register_policy("greedy")
class GreedySlowdownPolicy(FleetPolicy):
    """Repeatedly slow the hungriest job one frontier step until it fits.

    Power-aware but frontier-blind: the job drawing the most watts
    right now steps down its ladder, whatever that step costs in time
    or returns in energy.  Ties break on job id for determinism.
    """

    def allocate(self, ctx: AllocationContext) -> Allocation:
        allocation = {job.job_id: 0 for job in ctx.jobs}
        if ctx.cap_w is None:
            return allocation
        while ctx.fleet_power(allocation) > ctx.cap_w + 1e-9:
            movable = [
                job for job in ctx.jobs
                if allocation[job.job_id] < len(job.options) - 1
            ]
            if not movable:
                break
            hungriest = max(
                movable,
                key=lambda job: (
                    job.options[allocation[job.job_id]].power_w,
                    job.job_id,
                ),
            )
            allocation[hungriest.job_id] += 1
        return allocation


@register_policy("waterfill")
class WaterFillingPolicy(FleetPolicy):
    """Frontier-aware water-filling: cheapest seconds-per-joule first.

    Each candidate move is one step down one job's ladder; its slope is
    the iteration-time it adds per joule of iteration-energy it saves
    (Eq. 3 accounting, so a straggler-floored step can be time-free and
    is taken immediately).  The cheapest slope moves first, repeatedly,
    until aggregate draw fits the cap -- water-filling over frontier
    slopes rather than over raw wattage.  Steps that cost time *and*
    energy (deep ladder rungs where blocking dominates) rank last: they
    are taken only when nothing cheaper remains.
    """

    def allocate(self, ctx: AllocationContext) -> Allocation:
        allocation = {job.job_id: 0 for job in ctx.jobs}
        if ctx.cap_w is None:
            return allocation
        while ctx.fleet_power(allocation) > ctx.cap_w + 1e-9:
            best = None
            best_key = None
            for job in ctx.jobs:
                pos = allocation[job.job_id]
                if pos >= len(job.options) - 1:
                    continue
                here, there = job.options[pos], job.options[pos + 1]
                dt = there.iteration_time_s - here.iteration_time_s
                de = here.energy_j - there.energy_j
                if de > 1e-12:
                    # seconds per joule saved; 0.0 for floored steps.
                    key = (0, dt / de, job.job_id)
                else:
                    # Saves no energy: order by time cost per watt shed
                    # (power strictly decreases along the ladder).
                    dp = here.power_w - there.power_w
                    key = (1, dt / max(dp, 1e-12), job.job_id)
                if best_key is None or key < best_key:
                    best, best_key = job, key
            if best is None:
                break
            allocation[best.job_id] += 1
        return allocation
