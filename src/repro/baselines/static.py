"""Static reference plans: all-max-frequency and all-min-energy.

``max_frequency_plan`` is the paper's baseline for every savings number
("relative to using all maximum GPU frequencies", §6.1) and the default
mode of operation; ``min_energy_plan`` is the §2.4 upper bound on possible
savings (every computation at its minimum-energy clock, ignoring the
slowdown it causes).  That potential is the ``min-energy`` strategy's
:attr:`~repro.api.planner.PlanReport.energy_savings_pct`: Eq. 3 at each
plan's own iteration time, priced like every other plan.
"""

from __future__ import annotations

from ..api.strategies import FrequencyPlan, PlanContext, register_strategy
from ..sim.executor import max_frequency_plan, min_energy_plan

__all__ = ["max_frequency_plan", "min_energy_plan"]


@register_strategy("max-freq")
def _max_frequency_strategy(ctx: PlanContext) -> FrequencyPlan:
    """Every computation at the maximum clock (the §6.1 baseline)."""
    return max_frequency_plan(ctx.dag, ctx.profile)


@register_strategy("min-energy")
def _min_energy_strategy(ctx: PlanContext) -> FrequencyPlan:
    """Every computation at its min-energy clock (§2.4 upper bound)."""
    return min_energy_plan(ctx.dag, ctx.profile)
