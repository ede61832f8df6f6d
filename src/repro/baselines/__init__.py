"""Baselines from the paper's evaluation: EnvPipe, ZeusGlobal, ZeusPerStage.

Importing this package also registers every baseline with the strategy
registry in :mod:`repro.api` (``envpipe``, ``zeus-global``,
``zeus-per-stage``, ``max-freq``, ``min-energy``, plus the seeded
``random-sampler`` bounds baseline), so they are enumerable via
:func:`repro.api.list_strategies` next to ``perseus``.
"""

from .envpipe import envpipe_plan
from .sampler import RandomSamplerStrategy
from .static import max_frequency_plan, min_energy_plan
from .zeus_global import (
    BaselineFrontierPoint,
    global_plan,
    pipeline_peak_power,
    select_operating_point,
    zeus_global_frontier,
)
from .zeus_perstage import per_stage_plan, zeus_per_stage_frontier

__all__ = [
    "BaselineFrontierPoint",
    "RandomSamplerStrategy",
    "envpipe_plan",
    "global_plan",
    "max_frequency_plan",
    "min_energy_plan",
    "per_stage_plan",
    "pipeline_peak_power",
    "select_operating_point",
    "zeus_global_frontier",
    "zeus_per_stage_frontier",
]
