"""Perseus core: cost models, energy schedules, frontier characterization."""

from .costmodel import OpCostModel, build_cost_model, build_cost_models
from .frontier import DEFAULT_TAU, Frontier, characterize_frontier
from .optimizer import PerseusOptimizer
from .serialization import (
    SerializationError,
    frontier_from_dict,
    frontier_to_dict,
    load_json,
    partition_from_dict,
    partition_to_dict,
    payload_from_dict,
    payload_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_json,
)
from .store import (
    MISS,
    MemoryCache,
    PlanStore,
    StoreError,
    stable_key,
)
from .schedule import (
    EnergySchedule,
    make_schedule,
    realize_frequencies,
    schedule_energies,
)
from .unified import energy_optimal_iteration_time, select_schedule

__all__ = [
    "DEFAULT_TAU",
    "EnergySchedule",
    "Frontier",
    "MISS",
    "MemoryCache",
    "OpCostModel",
    "PerseusOptimizer",
    "PlanStore",
    "SerializationError",
    "StoreError",
    "frontier_from_dict",
    "frontier_to_dict",
    "load_json",
    "partition_from_dict",
    "partition_to_dict",
    "payload_from_dict",
    "payload_to_dict",
    "profile_from_dict",
    "profile_to_dict",
    "save_json",
    "stable_key",
    "build_cost_model",
    "build_cost_models",
    "characterize_frontier",
    "energy_optimal_iteration_time",
    "make_schedule",
    "realize_frequencies",
    "schedule_energies",
    "select_schedule",
]
