"""Perseus reproduction: reducing energy bloat in large model training.

A from-scratch Python implementation of the SOSP 2024 Perseus system
(Chung et al.), including every substrate it depends on: an analytical
GPU time/power substrate, a large-model zoo, minimum-imbalance pipeline
partitioning, pipeline-schedule DAGs, the graph-cut frontier optimizer,
an execution simulator, the client/server runtime, baselines (EnvPipe,
Zeus variants), and large-scale emulation.

Quickstart -- one spec, one planner, any strategy::

    from repro.api import PlanSpec, default_planner, list_strategies

    planner = default_planner()
    spec = PlanSpec("gpt3-xl", gpu="a100", stages=4, microbatches=8)

    report = planner.plan(spec)               # strategy="perseus"
    print(report.iteration_time_s, report.energy_savings_pct)

    stack = planner.result(spec)              # the full planning stack
    print(stack.frontier.t_min, stack.frontier.t_star)

    for name in list_strategies():            # every registered policy,
        row = planner.plan(spec.replace(strategy=name))   # one profile
        print(name, row.energy_j)

The planner memoizes each pipeline stage (model, partition, profile,
DAG, frontier) on the spec fields that determine it, so sweeping
strategies or microbatch counts never re-profiles.  Memoization sits on
pluggable cache backends: pass ``Planner(cache="some/dir")`` (or set
``REPRO_CACHE_DIR``) and the artifacts persist *across processes* in a
content-addressed plan store -- see ``docs/planner-cache.md``.  New
schedulers plug in via ``@repro.api.register_strategy("name")`` -- see
:mod:`repro.api.strategies`.

See ``examples/`` for full scenarios and ``benchmarks/`` for the scripts
regenerating every table and figure of the paper.

``import repro`` loads only the planning path.  The subpackages a plan
does not use -- ``baselines``, ``emulation``, ``experiments``,
``fleet``, ``stragglers`` and ``viz`` -- load on first attribute access
(``repro.fleet``) or on an explicit ``import repro.fleet``; the
baselines also load when the strategy registry is first consulted.
"""

from __future__ import annotations

from . import api, core, gpu, models, obs
from . import partition as partitioning
# service stays eager: perfbench/launch.py traces only modules that
# ``import repro.cli`` loaded (pinned by tests/test_import_surface.py).
from . import pipeline, profiler, runtime, service, sim
from .api import (
    PlanReport,
    PlanResult,
    PlanSpec,
    Planner,
    default_planner,
    list_strategies,
    register_strategy,
    sweep,
)
from .core.frontier import Frontier
from .core.optimizer import PerseusOptimizer
from .gpu.specs import GPUSpec, get_gpu
from .models.layers import ModelSpec
from .models.registry import build_model
from .partition.algorithms import PartitionResult, partition_model
from .pipeline.dag import ComputationDag, build_pipeline_dag
from .pipeline.schedules import schedule_1f1b
from .profiler.measurement import PipelineProfile
from .profiler.online import profile_pipeline

__version__ = "1.4.0"

#: Subpackages off the planning path, imported on first attribute access.
_LAZY_SUBPACKAGES = frozenset(
    {"baselines", "emulation", "experiments", "fleet", "stragglers", "viz"}
)


def __getattr__(name: str):
    if name in _LAZY_SUBPACKAGES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ComputationDag",
    "Frontier",
    "GPUSpec",
    "ModelSpec",
    "PartitionResult",
    "PerseusOptimizer",
    "PipelineProfile",
    "PlanReport",
    "PlanResult",
    "PlanSpec",
    "Planner",
    "api",
    "baselines",
    "build_model",
    "build_pipeline_dag",
    "core",
    "default_planner",
    "emulation",
    "experiments",
    "fleet",
    "get_gpu",
    "gpu",
    "list_strategies",
    "models",
    "partition_model",
    "partitioning",
    "pipeline",
    "profile_pipeline",
    "profiler",
    "register_strategy",
    "runtime",
    "schedule_1f1b",
    "sim",
    "stragglers",
    "sweep",
    "viz",
]
