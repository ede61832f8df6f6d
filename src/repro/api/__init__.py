"""Unified planning API: ``PlanSpec`` in, frequency plans out.

This package is the single front door to the Perseus planning pipeline:

* :class:`PlanSpec` -- frozen, validated, JSON-round-trippable request;
  ``gpu`` names one device or a per-stage tuple (mixed clusters).
* :class:`Planner` -- runs model -> partition -> profile -> DAG ->
  optimize with per-stage memoization keyed on the spec.
* :func:`register_strategy` / :func:`get_strategy` /
  :func:`list_strategies` -- the pluggable strategy registry under which
  Perseus and every baseline expose one ``plan(ctx)`` signature.
* :func:`sweep` -- batch specs into comparable :class:`PlanReport` rows
  (``jobs`` for a worker pool, per-spec error isolation by default);
  :func:`mixed_cluster_specs` expands a GPU pool into one spec per mix.
* :class:`PlanStore` / :class:`MemoryCache` -- pluggable cache backends
  behind the planner; a store directory (or ``REPRO_CACHE_DIR``)
  persists partitions, profiles and frontiers across processes.

Quickstart::

    from repro.api import PlanSpec, default_planner, list_strategies

    planner = default_planner()
    for name in list_strategies():
        report = planner.plan(PlanSpec("gpt3-xl", strategy=name))
        print(name, report.iteration_time_s, report.energy_j)
"""

from ..core.store import MemoryCache, PlanStore
from .planner import (
    CACHE_DIR_ENV,
    DEFAULT_STEP_TARGET,
    PlanReport,
    PlanResult,
    Planner,
    auto_tau,
    default_planner,
    mixed_cluster_specs,
    sweep,
)
from .spec import FIDELITY_STRIDES, SPEC_FORMAT_VERSION, PlanSpec
from .strategies import (
    FrequencyPlan,
    PlanContext,
    Strategy,
    get_strategy,
    list_strategies,
    register_strategy,
    strategy_description,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_STEP_TARGET",
    "FIDELITY_STRIDES",
    "MemoryCache",
    "PlanStore",
    "FrequencyPlan",
    "PlanContext",
    "PlanReport",
    "PlanResult",
    "PlanSpec",
    "Planner",
    "SPEC_FORMAT_VERSION",
    "Strategy",
    "auto_tau",
    "default_planner",
    "get_strategy",
    "list_strategies",
    "mixed_cluster_specs",
    "register_strategy",
    "strategy_description",
    "sweep",
]
