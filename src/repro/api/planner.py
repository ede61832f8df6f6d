"""The :class:`Planner`: one front door for the staged planning pipeline.

The pipeline is always the same five stages --

    build model -> partition -> profile -> DAG -> optimize/plan

-- but before this API each caller (the experiment runner, the CLI,
the server) re-assembled it by hand.  The planner owns
the assembly and memoizes every stage on the sub-key of the
:class:`~repro.api.spec.PlanSpec` that actually determines it, so a
sweep over strategies or microbatch counts profiles each unique
(model, gpu, partition) exactly once and characterizes each unique
(dag, profile, tau) frontier exactly once -- through
:meth:`Planner.frontier_at`, the one path every frontier takes.  The
plan itself (strategy output plus its simulation) is the last memoized
stage, so a warm :meth:`Planner.plan` is a lookup.

Memoization lives behind a pluggable
:class:`~repro.core.store.CacheBackend`: the default is the in-process
:class:`~repro.core.store.MemoryCache`; pass a directory (or a
:class:`~repro.core.store.PlanStore`) and partitions, profiles,
per-stage sweeps, taus and characterized frontiers additionally persist
across processes, content-addressed by stable hashes of the spec
sub-keys.  Setting ``REPRO_CACHE_DIR`` attaches such a store to the
process-wide :func:`default_planner`, so the CLI, the experiment runner
and the benchmarks all warm-start from the same artifacts.

:func:`sweep` batches specs through a shared planner -- optionally on a
process pool over a persistent store (``jobs``) -- with per-spec error
isolation and returns comparable :class:`PlanReport` rows;
:func:`auto_tau` derives the frontier granularity from the achievable
time span (moved here from ``repro.experiments.runner`` so the package
root no longer reaches into the experiments layer).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..core.frontier import Frontier
from ..core.optimizer import PerseusOptimizer
from ..core.store import MISS, CacheBackend, PlanStore, as_backend, stable_key
from ..obs.provenance import ProvenanceBuilder, provenance_path
from ..obs.trace import current_trace_id, set_trace_id
from ..obs.trace import span as obs_span
from ..exceptions import ConfigurationError, ReproError
from ..gpu.specs import GPULike, GPUSpec, get_gpu, is_homogeneous, resolve_gpus
from ..models.layers import ModelSpec
from ..models.registry import build_model
from ..partition.algorithms import PartitionResult, partition_model
from ..pipeline.dag import ComputationDag, build_pipeline_dag
from ..pipeline.schedules import schedule_1f1b
from ..profiler.measurement import OpProfile, PipelineProfile
from ..profiler.online import (
    profile_pipeline,
    profile_stage_measurements,
    stage_works,
)
from ..sim.executor import (
    PipelineExecution,
    execute_frequency_plan,
    max_frequency_plan,
    min_energy_plan,
)
from .spec import PlanSpec
from .strategies import FrequencyPlan, PlanContext, get_strategy

#: Target number of frontier steps when tau is derived automatically.
DEFAULT_STEP_TARGET = 250

#: Environment variable naming the persistent plan-store directory the
#: process-wide :func:`default_planner` attaches (unset = memory only).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _canonical_gpu_key(gpus: Tuple[GPUSpec, ...]):
    """Cache-key GPU component: the single spec, or the tuple if mixed.

    Collapsing homogeneous tuples to the single spec is what makes a
    homogeneous per-stage list hit exactly the caches (and therefore
    reproduce exactly the plans) of the equivalent single-name spec.
    The one collapse rule shared by the planner's key construction and
    ``PlanResult.canonical_gpu``'s key reconstruction.
    """
    return gpus[0] if is_homogeneous(gpus) else tuple(gpus)


def auto_tau(
    dag: ComputationDag,
    profile: PipelineProfile,
    steps: int = DEFAULT_STEP_TARGET,
) -> float:
    """Pick tau so the frontier crawl takes ~``steps`` iterations.

    The crawl walks from the all-min-energy iteration time down to the
    all-max one, so tau = achievable span / steps.
    """
    fast = execute_frequency_plan(dag, max_frequency_plan(dag, profile), profile)
    slow = execute_frequency_plan(dag, min_energy_plan(dag, profile), profile)
    span = max(slow.iteration_time - fast.iteration_time, 1e-6)
    return span / steps


class _Identity:
    """A memo-key part equal only to a wrapper of the same object.

    The plan stage is keyed on the registered strategy *instance*:
    compared with ``is``, a re-registered name never meets its
    predecessor's entries, and a plugin instance need not be hashable.
    The strong reference keeps the ``id`` from being reused while the
    key lives.
    """

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Identity) and other.obj is self.obj


@dataclass
class PlanResult:
    """The assembled planning stack for one spec.

    ``optimizer`` characterizes lazily, through
    :meth:`Planner.frontier_at` under ``keys["optimizer"]``.
    """

    model: ModelSpec
    gpu: GPUSpec
    partition: PartitionResult
    profile: PipelineProfile
    dag: ComputationDag
    optimizer: PerseusOptimizer
    #: One resolved spec per stage; ``gpu`` stays the first stage's device
    #: for legacy consumers (identical to it on homogeneous pipelines).
    gpus: Tuple[GPUSpec, ...] = ()
    #: The raw cache keys each stage was memoized under (namespace ->
    #: tuple key); what ties a stack back to its store entries.
    keys: Dict[str, tuple] = field(default_factory=dict, repr=False)

    @property
    def frontier(self) -> Frontier:
        return self.optimizer.frontier

    @property
    def tau(self) -> float:
        return self.optimizer.tau

    @property
    def canonical_gpu(self):
        """The memoization key's GPU component (spec, or tuple if mixed)."""
        if not self.gpus:
            return self.gpu
        return _canonical_gpu_key(self.gpus)

    @property
    def is_heterogeneous(self) -> bool:
        return bool(self.gpus) and not is_homogeneous(self.gpus)


@dataclass(frozen=True)
class PlanReport:
    """One comparable row of a strategy evaluation or sweep.

    Energies are Eq. 3 totals at each plan's own iteration horizon; the
    baseline is the all-max-frequency plan on the same profile, matching
    how every savings number in the paper is reported (§6.1).

    A row may instead record a per-spec *failure* (``error`` set, scalar
    fields NaN): sweeps isolate configuration errors so one bad spec
    does not abort a 200-spec batch.
    """

    spec: PlanSpec
    strategy: str
    iteration_time_s: float
    energy_j: float
    baseline_time_s: float
    baseline_energy_j: float
    plan: FrequencyPlan = field(repr=False, hash=False, compare=False,
                                default_factory=dict)
    #: The simulated execution behind the scalars (timeline rendering);
    #: carried so callers never re-simulate the same plan.  Shared
    #: read-only: every report of one memoized plan (and every
    #: baseline) hands out the same object, so never mutate it.
    execution: Optional[PipelineExecution] = field(
        default=None, repr=False, hash=False, compare=False
    )
    #: Why this spec failed (None on success).
    error: Optional[str] = None
    #: The frontier crawl's instrumentation (``Frontier.stats["timings"]``:
    #: kernel name, time in event passes / instance builds / max-flow
    #: solves / schedule assembly, cut and repair counts) when this
    #: plan's stack has a characterized frontier; ``None`` otherwise.
    #: Diagnostics only -- excluded from :meth:`to_dict` and comparisons
    #: so exported rows stay reproducible across runs.
    timings: Optional[dict] = field(
        default=None, repr=False, hash=False, compare=False
    )
    #: Where this plan actually came from
    #: (:class:`repro.obs.provenance.ProvenanceBuilder` record: cache
    #: source + wall time per stage, content digests, kernel, trace id,
    #: store paths).  Diagnostics only, like ``timings`` -- excluded
    #: from :meth:`to_dict`, comparisons and the service wire format.
    provenance: Optional[dict] = field(
        default=None, repr=False, hash=False, compare=False
    )

    @classmethod
    def failure(cls, spec: PlanSpec, error: BaseException) -> "PlanReport":
        """An error row: same shape as a report, scalars NaN."""
        nan = float("nan")
        return cls(
            spec=spec,
            strategy=spec.strategy,
            iteration_time_s=nan,
            energy_j=nan,
            baseline_time_s=nan,
            baseline_energy_j=nan,
            error=f"{type(error).__name__}: {error}",
        )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def energy_savings_pct(self) -> float:
        return 100.0 * (1.0 - self.energy_j / self.baseline_energy_j)

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.iteration_time_s / self.baseline_time_s - 1.0)

    def to_dict(self) -> dict:
        """Flat JSON-ready row (spec inlined, plan omitted).

        Failure rows carry NaN scalars, which strict JSON cannot
        represent -- they serialize as ``None``/``null`` here.
        """
        def num(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "model": self.spec.model,
            "gpu": (self.spec.gpu if isinstance(self.spec.gpu, str)
                    else ",".join(self.spec.gpu)),
            "stages": self.spec.stages,
            "microbatches": self.spec.microbatches,
            "strategy": self.strategy,
            "iteration_time_s": num(self.iteration_time_s),
            "energy_j": num(self.energy_j),
            "baseline_time_s": num(self.baseline_time_s),
            "baseline_energy_j": num(self.baseline_energy_j),
            "energy_savings_pct": num(self.energy_savings_pct),
            "slowdown_pct": num(self.slowdown_pct),
            "error": self.error,
        }


class Planner:
    """Runs the staged planning pipeline with per-stage memoization.

    Every ``_build_*`` stage is keyed on exactly the spec fields it
    depends on; ``stats`` counts the cache *misses* per stage -- i.e.
    the expensive work actually performed in this process -- which is
    what tests, the §6.5-style overhead accounting and the CI
    persistence guard observe.  ``stats["frontier"]`` counts frontier
    crawls (:meth:`frontier_at` misses); a warm persistent store keeps
    every counter at zero on a repeat run.

    ``cache`` is ``None`` (private in-memory tier), a directory path
    (content-addressed persistent :class:`~repro.core.store.PlanStore`)
    or any :class:`~repro.core.store.CacheBackend` (shared stores).
    """

    def __init__(self, cache: Union[None, str, os.PathLike,
                                    CacheBackend] = None) -> None:
        self._cache = as_backend(cache)
        #: Guards the ``stats`` bumps: server and daemon threads resolve
        #: stages (frontiers above all) concurrently.
        self._stats_lock = threading.Lock()
        #: The in-flight plan's provenance builder, one per thread
        #: (:meth:`plan` installs it; ``_memo`` reports to it).
        self._prov = threading.local()
        #: (namespace, key) -> hex digest memo: content hashing is not
        #: free, and provenance asks for the same digests every plan.
        self._digests: Dict[tuple, str] = {}
        self.stats: Dict[str, int] = {
            "model": 0, "partition": 0, "profile": 0, "stage_profile": 0,
            "dag": 0, "tau": 0, "optimizer": 0, "frontier": 0,
        }

    @property
    def cache(self) -> CacheBackend:
        """The backend behind the memo tables (counters, store root)."""
        return self._cache

    def clear(self) -> None:
        """Drop every memoized stage, plans included (long-lived
        processes: call between unrelated job batches to release
        profiles, frontiers and plans).  On a
        persistent store this drops the memory tier only; disk entries
        are durable by design."""
        self._cache.clear()

    # -- staged builders (each memoized on its own key) ----------------------
    @staticmethod
    def _resolve(gpu: GPULike, stages: int) -> Tuple[GPUSpec, ...]:
        """Per-stage resolved specs (aliases collapse, lists validate)."""
        return resolve_gpus(gpu, stages)

    @staticmethod
    def _canonical(gpus: Tuple[GPUSpec, ...]):
        """See :func:`_canonical_gpu_key` (the one collapse rule)."""
        return _canonical_gpu_key(gpus)

    def _memo(self, namespace: str, key, stat: Optional[str], build):
        """One staged build: backend lookup, else compute and store.

        ``stat`` names the miss counter to bump when the build actually
        runs (a *disk* hit therefore bumps nothing: no work was done).
        When a provenance builder is installed (one per in-flight
        :meth:`plan`), each stage additionally reports where it resolved
        from (built / memory / disk) and, for builds, how long it took.
        """
        value, source = self._cache.get_with_source(namespace, key)
        seconds = None
        if value is MISS:
            if stat is not None:
                with self._stats_lock:
                    self.stats[stat] += 1
            started = time.perf_counter()
            value = build()
            seconds = time.perf_counter() - started
            self._cache.put(namespace, key, value)
            source = "built"
        builder = getattr(self._prov, "builder", None)
        if builder is not None:
            builder.note(namespace, source, seconds,
                         digest=self._digest(namespace, key))
        return value

    def _digest(self, namespace: str, key) -> Optional[str]:
        """Memoized content digest for provenance (cheap namespaces only)."""
        if namespace in ("baseline", "plan"):
            return None
        memo_key = (namespace, key)
        digest = self._digests.get(memo_key)
        if digest is None:
            digest = stable_key(key)
            self._digests[memo_key] = digest
        return digest

    def _build_model(
        self, name: str, microbatch_size: Optional[int]
    ) -> ModelSpec:
        key = (name, microbatch_size)
        return self._memo("model", key, "model",
                          lambda: build_model(name, microbatch_size))

    def _build_partition(
        self,
        model: ModelSpec,
        stages: int,
        canonical_gpu,
        gpus: Tuple[GPUSpec, ...],
        microbatch_size: Optional[int],
    ) -> PartitionResult:
        # Keyed on the ModelSpec and GPUSpec *values* (frozen
        # dataclasses), not their names: a custom spec reusing a registry
        # name must not collide, and an edited model-zoo definition must
        # invalidate persisted partitions/profiles rather than serve
        # stale ones.  The canonical GPU form collapses homogeneous
        # per-stage tuples, so a homogeneous list shares the single-name
        # spec's cache entry.
        key = (model, microbatch_size, stages, canonical_gpu)
        return self._memo(
            "partition", key, "partition",
            lambda: partition_model(
                model, stages,
                gpus[0] if isinstance(canonical_gpu, GPUSpec) else gpus,
            ),
        )

    def _build_profile(
        self,
        model: ModelSpec,
        partition_key: tuple,
        partition: PartitionResult,
        gpus: Tuple[GPUSpec, ...],
        tensor_parallel: int,
        freq_stride: int,
        noise: float,
        seed: int,
    ) -> PipelineProfile:
        key = partition_key + (tensor_parallel, freq_stride, noise, seed)

        def build() -> PipelineProfile:
            if is_homogeneous(gpus):
                return profile_pipeline(
                    model,
                    partition,
                    gpus[0],
                    tensor_parallel=tensor_parallel,
                    freq_stride=freq_stride,
                    noise=noise,
                    seed=seed,
                )
            if noise:
                # Noisy sweeps draw from one shared RNG stream; per-stage
                # caching would replay it, so profile the pipeline whole.
                return profile_pipeline(
                    model,
                    partition,
                    gpus,
                    tensor_parallel=tensor_parallel,
                    freq_stride=freq_stride,
                    noise=noise,
                    seed=seed,
                )
            return self._compose_hetero_profile(
                model, partition, gpus, tensor_parallel, freq_stride
            )

        return self._memo("profile", key, "profile", build)

    def _compose_hetero_profile(
        self,
        model: ModelSpec,
        partition: PartitionResult,
        gpus: Tuple[GPUSpec, ...],
        tensor_parallel: int,
        freq_stride: int,
    ) -> PipelineProfile:
        """Assemble a mixed-cluster profile from per-stage cached sweeps.

        The sweep cache is keyed on ``(gpu, stage work, stride)`` -- the
        content of a (model, gpu, partition-slice) triple -- so stages
        sharing a device *and* a workload hit the cache, across specs and
        even across models.  ``stats["stage_profile"]`` counts the sweeps
        actually run.
        """
        sharded = model.shard(tensor_parallel) if tensor_parallel > 1 else model
        profile = PipelineProfile.for_devices(gpus)
        for stage, (fwd, bwd) in enumerate(stage_works(sharded, partition)):
            for kind, work in (("forward", fwd), ("backward", bwd)):
                sweep_key = (gpus[stage], work, freq_stride)
                measurements = self._memo(
                    "stage_sweep", sweep_key, "stage_profile",
                    lambda gpu=gpus[stage], work=work:
                        profile_stage_measurements(
                            gpu, work, freq_stride=freq_stride
                        ),
                )
                op = (stage, kind)
                profile.ops[op] = OpProfile(
                    op=op, measurements=list(measurements)
                )
        profile.validate()
        return profile

    def _build_dag(self, stages: int, microbatches: int) -> ComputationDag:
        key = (stages, microbatches)
        return self._memo(
            "dag", key, "dag",
            lambda: build_pipeline_dag(schedule_1f1b(stages, microbatches)),
        )

    def _baseline_for(
        self,
        dag_key: tuple,
        profile_key: tuple,
        dag: ComputationDag,
        profile: PipelineProfile,
    ) -> Tuple[PipelineExecution, float]:
        """The all-max-frequency execution and its Eq. 3 energy."""

        def build() -> Tuple[PipelineExecution, float]:
            execution = execute_frequency_plan(
                dag, max_frequency_plan(dag, profile), profile)
            return execution, execution.total_energy()

        return self._memo("baseline", (dag_key, profile_key), None, build)

    def _resolve_tau(
        self,
        tau: Optional[float],
        dag_key: tuple,
        profile_key: tuple,
        dag: ComputationDag,
        profile: PipelineProfile,
        step_target: int,
    ) -> float:
        if tau is not None:
            return tau
        key = (dag_key, profile_key, step_target)

        def build() -> float:
            # Same span computation as auto_tau(), but the max-frequency
            # endpoint comes from (and warms) the shared baseline cache.
            fast, _ = self._baseline_for(dag_key, profile_key, dag, profile)
            slow = execute_frequency_plan(
                dag, min_energy_plan(dag, profile), profile
            )
            span = max(slow.iteration_time - fast.iteration_time, 1e-6)
            return span / step_target

        return self._memo("tau", key, "tau", build)

    def _build_optimizer(
        self,
        dag_key: tuple,
        profile_key: tuple,
        tau: float,
        dag: ComputationDag,
        profile: PipelineProfile,
        exactness: str = "exact",
    ) -> PerseusOptimizer:
        # exactness is part of the key: fast-mode frontiers are within
        # tolerance of exact but not bit-identical, so the two modes
        # must never alias in memory or in a persistent store.
        key = (dag_key, profile_key, tau, exactness)
        return self._memo(
            "optimizer", key, "optimizer",
            lambda: PerseusOptimizer(
                dag=dag, profile=profile, tau=tau, exactness=exactness,
                memo=lambda crawl: self.frontier_at(key, crawl),
            ),
        )

    def frontier_at(self, key: tuple, crawl: Callable[[], Frontier]
                    ) -> Frontier:
        """The frontier filed under ``key``; ``crawl()`` only on a miss.

        The one path every frontier takes -- a planner stack's lazy
        optimizer and the server's raw-profile and drift re-plan paths
        alike: memory, then the persistent store, else crawl, count in
        ``stats["frontier"]``, persist and note provenance.
        """
        return self._memo("frontier", key, "frontier", crawl)

    # -- assembly ------------------------------------------------------------
    def build_stack(
        self,
        model: str,
        gpu: GPULike = "a100",
        stages: int = 4,
        microbatches: int = 8,
        microbatch_size: Optional[int] = None,
        tensor_parallel: int = 1,
        freq_stride: int = 4,
        tau: Optional[float] = None,
        noise: float = 0.0,
        seed: int = 0,
        step_target: int = DEFAULT_STEP_TARGET,
        exactness: str = "exact",
    ) -> PlanResult:
        """The raw staged pipeline, for callers not speaking ``PlanSpec``.

        ``repro.experiments.runner.prepare`` (which adds profiling noise
        for robustness studies) lands here; spec-based planning goes
        through :meth:`result`.
        ``gpu`` accepts a single device or a per-stage sequence (mixed
        cluster); homogeneous sequences share the single-device caches.
        """
        gpus = self._resolve(gpu, stages)
        gpu_key = self._canonical(gpus)
        model_spec = self._build_model(model, microbatch_size)
        partition_key = (model_spec, microbatch_size, stages, gpu_key)
        partition = self._build_partition(
            model_spec, stages, gpu_key, gpus, microbatch_size
        )
        profile_key = partition_key + (tensor_parallel, freq_stride, noise,
                                       seed)
        profile = self._build_profile(
            model_spec, partition_key, partition, gpus,
            tensor_parallel, freq_stride, noise, seed,
        )
        dag_key = (stages, microbatches)
        dag = self._build_dag(stages, microbatches)
        tau = self._resolve_tau(
            tau, dag_key, profile_key, dag, profile, step_target
        )
        optimizer = self._build_optimizer(
            dag_key, profile_key, tau, dag, profile, exactness
        )
        return PlanResult(
            model=model_spec,
            gpu=gpus[0],
            partition=partition,
            profile=profile,
            dag=dag,
            optimizer=optimizer,
            gpus=gpus,
            keys={
                "partition": partition_key,
                "profile": profile_key,
                "dag": dag_key,
                "optimizer": (dag_key, profile_key, tau, exactness),
            },
        )

    def result(self, spec: PlanSpec) -> PlanResult:
        """Assemble (or reuse) the full planning stack for a spec."""
        return self.build_stack(
            model=spec.model,
            gpu=spec.gpu,
            stages=spec.stages,
            microbatches=spec.microbatches,
            microbatch_size=spec.microbatch_size,
            tensor_parallel=spec.tensor_parallel,
            freq_stride=spec.effective_freq_stride,
            tau=spec.tau,
            exactness=spec.exactness,
        )

    def cache_keys(self, spec: PlanSpec) -> Dict[str, str]:
        """The spec's content-addressed cache keys (hex digests).

        ``partition``, ``profile`` and ``frontier`` are the addresses a
        :class:`PlanStore` files this spec's artifacts under
        (``<root>/<namespace>/<digest>.json``); ``dag`` is memoized in
        memory only and included for completeness.  (Auto-derived taus
        and mixed-cluster per-stage sweeps persist too, but under keys
        that are not 1:1 with a spec.)  Equal specs -- v1 vs v2
        payloads, a homogeneous GPU tuple vs the single name -- map to
        equal keys, which is the property that guarantees bit-for-bit
        plan reuse.  Builds the stack as a side effect (memoized like
        any other call).
        """
        stack = self.result(spec)
        named = dict(stack.keys)
        # The frontier is filed under the optimizer's (dag, profile,
        # tau) key -- surface it by its on-disk namespace.
        named["frontier"] = named.pop("optimizer")
        return {ns: stable_key(key) for ns, key in named.items()}

    def context(
        self, spec: PlanSpec, straggler_time: Optional[float] = None
    ) -> PlanContext:
        """The strategy-facing view of a spec's planning stack."""
        return self._context(self.result(spec), spec, straggler_time)

    @staticmethod
    def _context(stack: PlanResult, spec: PlanSpec,
                 straggler_time: Optional[float]) -> PlanContext:
        return PlanContext(
            dag=stack.dag,
            profile=stack.profile,
            tau=stack.optimizer.tau,
            target_time=straggler_time,
            exactness=spec.exactness,
            _optimizer_factory=lambda: stack.optimizer,
        )

    def baseline_execution(self, spec: PlanSpec) -> PipelineExecution:
        """All-max-frequency execution (the §6.1 savings reference).

        Memoized per stack; callers rendering timelines or computing
        custom savings should use this instead of re-simulating the
        max-frequency plan themselves.
        """
        stack = self.result(spec)
        execution, _ = self._baseline_for(
            stack.keys["dag"], stack.keys["profile"], stack.dag,
            stack.profile)
        return execution

    def frontier_for(self, spec: PlanSpec) -> Frontier:
        """The spec's characterized frontier (computed or store-loaded).

        Forces characterization through :meth:`frontier_at`, so with a
        persistent store the crawl happens in exactly one process ever.
        """
        return self.result(spec).optimizer.frontier

    # -- planning ------------------------------------------------------------
    def plan(
        self, spec: PlanSpec, straggler_time: Optional[float] = None
    ) -> PlanReport:
        """Run ``spec.strategy`` over the (memoized) stack and report.

        ``straggler_time`` is the anticipated straggler iteration time
        ``T'`` handed to straggler-aware strategies (Perseus clamps it to
        ``[T_min, T*]``; frontier-free baselines ignore it).

        The plan itself is the last memoized stage: ``(frequencies,
        execution, energy)`` under ``(optimizer key, strategy,
        straggler_time)``, held in memory only.  ``strategy`` is the
        registered *instance* (compared by identity), so re-registering
        a name never serves the old strategy's plan; a registered
        instance is treated as immutable -- re-register it to change its
        configuration.  A warm call runs neither the strategy nor the
        simulator, and sums no energy.
        """
        strategy = get_strategy(spec.strategy)
        # One provenance builder per in-flight plan on this thread;
        # nested/previous builders are restored on the way out so a
        # plan-inside-a-plan (warmers, drift re-plans) stays correct.
        previous = getattr(self._prov, "builder", None)
        builder = ProvenanceBuilder(spec)
        self._prov.builder = builder
        try:
            with obs_span("planner.plan", model=spec.model,
                          strategy=spec.strategy, exactness=spec.exactness):
                stack = self.result(spec)
                optimizer = stack.optimizer

                def build() -> Tuple[FrequencyPlan, PipelineExecution,
                                     float]:
                    frequencies = strategy.plan(
                        self._context(stack, spec, straggler_time))
                    with obs_span("planner.simulate"):
                        execution = execute_frequency_plan(
                            stack.dag, frequencies, stack.profile)
                    return frequencies, execution, execution.total_energy()

                frequencies, execution, energy_j = self._memo(
                    "plan",
                    (stack.keys["optimizer"], _Identity(strategy),
                     straggler_time),
                    None, build)
                baseline, baseline_energy_j = self._baseline_for(
                    stack.keys["dag"], stack.keys["profile"],
                    stack.dag, stack.profile)
                # Surface the crawl instrumentation when the stack holds
                # a frontier; frontier-free baselines on a fresh stack
                # stay None.
                timings = (
                    dict(optimizer.frontier.stats.get("timings") or {})
                    if optimizer.is_characterized else None
                ) or None
                provenance = self._finish_provenance(
                    builder, spec, stack, timings)
        finally:
            self._prov.builder = previous
        return PlanReport(
            spec=spec,
            strategy=spec.strategy,
            iteration_time_s=execution.iteration_time,
            energy_j=energy_j,
            baseline_time_s=baseline.iteration_time,
            baseline_energy_j=baseline_energy_j,
            plan=dict(frequencies),
            execution=execution,
            timings=timings,
            provenance=provenance,
        )

    def _finish_provenance(
        self,
        builder: ProvenanceBuilder,
        spec: PlanSpec,
        stack: PlanResult,
        timings: Optional[dict],
    ) -> dict:
        """Seal one plan's provenance record (and persist it store-side).

        A frontier resolved during this plan was noted by ``_memo``
        (built / memory / disk); one the stack characterized before
        this plan never reached ``_memo`` again and is noted here as
        ``memory``.  Frontier-free baselines on an uncharacterized
        stack record no frontier stage at all.
        """
        opt_key = stack.keys["optimizer"]
        store = self._cache if isinstance(self._cache, PlanStore) else None
        if stack.optimizer.is_characterized:  # first note wins
            builder.note("frontier", "memory",
                         digest=self._digest("frontier", opt_key))
        frontier_digest = builder.digests.get("frontier")
        if store is not None:
            # The stage digests are the store's file names: no re-hash.
            for namespace in ("partition", "profile", "frontier"):
                digest = builder.digests.get(namespace)
                if digest is not None:
                    builder.note_path(
                        namespace, store.digest_path(namespace, digest))
        record = builder.finish(
            strategy=spec.strategy,
            exactness=spec.exactness,
            kernel=(timings or {}).get("kernel"),
            trace_id=current_trace_id(),
            store_root=store.root if store is not None else None,
        )
        if store is not None and frontier_digest is not None:
            # First writer wins: the persisted record describes how the
            # stored frontier was produced, not the latest warm read.
            path = provenance_path(store.root, frontier_digest)
            if not os.path.exists(path):
                try:
                    record["provenance_path"] = store.put_provenance(
                        frontier_digest, record)
                except OSError:
                    pass
        return record

    def _plan_row(self, spec: PlanSpec, errors: str) -> PlanReport:
        """One sweep row with per-spec error isolation.

        Expected failures (:class:`ReproError`: unknown model/GPU/
        strategy, invalid configuration) become error rows; anything
        else is a bug and propagates.
        """
        try:
            return self.plan(spec)
        except ReproError as exc:
            if errors == "raise":
                raise
            return PlanReport.failure(spec, exc)

    def sweep(
        self,
        specs: Iterable[PlanSpec],
        jobs: Optional[int] = None,
        errors: str = "report",
    ) -> List[PlanReport]:
        """Plan every spec, sharing all memoized stages, in input order.

        ``jobs`` parallelizes only over a persistent
        :class:`~repro.core.store.PlanStore`: with one attached and
        ``jobs > 1``, workers are separate *processes*, each planning
        its chunk against the shared store (true multi-core
        profiling/characterization, no GIL), and the parent then adopts
        every artifact from disk to assemble the report rows -- a pure
        warm-store pass that performs no expensive work.  Over the
        in-memory cache ``jobs`` is ignored and the batch plans
        serially: planning is CPU-bound Python, so a thread pool only
        adds contention.

        ``errors="report"`` (default) isolates per-spec failures as
        error rows (``report.error`` set, scalars NaN) instead of
        aborting the batch; ``errors="raise"`` restores fail-fast.
        """
        if errors not in ("report", "raise"):
            raise ConfigurationError(
                f"errors must be 'report' or 'raise', got {errors!r}"
            )
        spec_list = list(specs)
        with obs_span("planner.sweep", specs=len(spec_list),
                      jobs=jobs or 1):
            if (jobs is None or jobs <= 1 or len(spec_list) <= 1
                    or not isinstance(self._cache, PlanStore)):
                return [self._plan_row(spec, errors) for spec in spec_list]
            return self._sweep_processes(
                spec_list, self._sweep_chunks(spec_list, jobs), errors)

    @staticmethod
    def _stack_signature(spec: PlanSpec) -> tuple:
        """The profile-determining spec sub-key (the expensive stack).

        GPU names resolve to canonical specs so alias spellings (a
        homogeneous tuple vs the single name, ``"a100"`` vs
        ``"a100-pcie"``) group together; a spec whose GPUs cannot
        resolve keeps its raw spelling and errors inside its worker.
        ``exactness`` rides along even though it does not affect the
        profile: it keys the frontier artifacts, and the service's
        stack-flight key derives from this signature -- exact and fast
        planning for the same workload must never coalesce.
        """
        try:
            gpu = _canonical_gpu_key(resolve_gpus(spec.gpu, spec.stages))
        except ReproError:
            gpu = spec.gpu if isinstance(spec.gpu, str) else tuple(spec.gpu)
        return (spec.model, gpu, spec.stages, spec.microbatch_size,
                spec.tensor_parallel, spec.effective_freq_stride,
                spec.exactness)

    def _sweep_chunks(self, specs: List[PlanSpec], jobs: int) -> List[List[int]]:
        """Spec indices per worker, stacks never split across workers.

        Worker processes plan with isolated memory tiers, so two
        workers handed specs sharing a stack would each profile it.
        Group by the profile-determining sub-key and keep every group
        on one worker (largest groups placed first, onto the
        least-loaded worker): the expensive work parallelizes across
        *stacks* and is never duplicated within one.
        """
        groups: Dict[tuple, List[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(self._stack_signature(spec), []).append(index)
        chunks: List[List[int]] = [[] for _ in range(min(jobs, len(groups)))]
        for indices in sorted(groups.values(), key=len, reverse=True):
            min(chunks, key=len).extend(indices)
        return chunks

    def _sweep_processes(
        self, specs: List[PlanSpec], chunks: List[List[int]], errors: str
    ) -> List[PlanReport]:
        """Multi-process sweep over a shared persistent store.

        Workers publish via the store, the parent adopts: each worker
        process plans its chunk with a private ``Planner`` rooted at the
        same store directory, persisting every partition / profile /
        stage sweep / tau / frontier it computes.  The parent then plans
        all specs serially -- every expensive stage is a disk hit, so
        that pass only assembles report rows (and is where per-spec
        error rows are produced, keeping ``errors`` semantics identical
        to the serial path).  Worker stats merge into this planner's, so
        the sweep's "work" accounting still reflects the profiling and
        characterization actually performed.

        A worker that dies (OOM, interpreter crash) costs nothing but
        warmth: the parent pass recomputes whatever its chunk failed to
        persist.
        """
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)

        store: PlanStore = self._cache  # type: ignore[assignment]
        payload_chunks = [
            [specs[i].to_dict() for i in chunk] for chunk in chunks
        ]
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                # contextvars cannot cross processes: the trace id rides
                # as an explicit argument instead.
                futures = [
                    pool.submit(_sweep_store_worker, store.root, payloads,
                                current_trace_id())
                    for payloads in payload_chunks
                ]
                for future in futures:
                    worker_stats, worker_counters = future.result()
                    for stat, count in worker_stats.items():
                        self.stats[stat] = self.stats.get(stat, 0) + count
                    for name, count in worker_counters.items():
                        store.counters[name] = \
                            store.counters.get(name, 0) + count
        except (BrokenProcessPool, OSError):
            # A dead pool (or a platform that cannot fork/spawn) leaves
            # the store partially warm; the serial pass below still
            # produces every row correctly.
            pass
        return [self._plan_row(spec, errors) for spec in specs]


def _sweep_store_worker(
    root: str, spec_payloads: List[dict], trace_id: Optional[str] = None
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One sweep worker process: warm the shared store with its chunk.

    Returns the worker planner's (stats, cache counters) so the parent
    can account the expensive work where it actually happened.  Spec
    errors are swallowed -- the parent's adoption pass re-plans every
    spec and reports them with full ``errors`` semantics.
    """
    if trace_id is not None:
        set_trace_id(trace_id)
    # An explicit uncapped store: a capped one (REPRO_CACHE_MAX_BYTES is
    # inherited by worker processes) would run LRU eviction concurrently
    # with its siblings' writes and prune entries they are about to
    # read.  Only the parent's store garbage collects.
    planner = Planner(cache=PlanStore(root))
    for payload in spec_payloads:
        try:
            planner.plan(PlanSpec.from_dict(payload))
        except ReproError:
            pass
    return planner.stats, dict(planner.cache.counters)


_DEFAULT_PLANNER: Optional[Planner] = None


def default_planner() -> Planner:
    """The process-wide shared planner (what the shims and CLI use).

    Its caches live for the life of the process; long-running services
    planning many unrelated jobs should call :meth:`Planner.clear`
    between batches (or use private ``Planner()`` instances).  If
    ``REPRO_CACHE_DIR`` is set when the planner is first created, a
    persistent :class:`~repro.core.store.PlanStore` is attached there,
    so repeat runs (experiments, benchmarks, CLI invocations) reuse each
    other's partitions, profiles and frontiers.
    """
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        # An empty value disables persistence (memory-only planner).
        _DEFAULT_PLANNER = Planner(
            cache=os.environ.get(CACHE_DIR_ENV) or None
        )
    return _DEFAULT_PLANNER


def sweep(
    specs: Iterable[PlanSpec],
    planner: Optional[Planner] = None,
    jobs: Optional[int] = None,
    errors: str = "report",
) -> List[PlanReport]:
    """Batch-plan specs on a shared planner; one comparable row each.

    Specs differing only in strategy (or microbatch count, or tau) share
    profiling work; mixed-GPU specs additionally share per-stage sweeps
    wherever a stage's (device, workload) pair repeats.  Pass an explicit
    ``planner`` to isolate caches, ``jobs`` for a process pool over a
    persistent store, and ``errors="raise"`` to fail fast instead of
    reporting per-spec errors.
    """
    return (planner or default_planner()).sweep(specs, jobs=jobs,
                                                errors=errors)


def mixed_cluster_specs(
    base: PlanSpec,
    stage_gpus: Union[Sequence[str], Sequence[Sequence[str]]],
) -> List[PlanSpec]:
    """Cartesian mixed-cluster expansion of one spec: one spec per GPU mix.

    ``stage_gpus`` is either a flat pool of GPU names (every stage may
    take any of them) or one candidate list per stage.  Every name is
    validated eagerly against the device registry -- a typo fails here,
    listing the known specs, rather than deep inside ``resolve_gpus``
    after part of the sweep already ran.  The result enumerates the
    cartesian product in stage order; feed it straight to :func:`sweep`,
    which shares per-stage profiling across mixes::

        specs = mixed_cluster_specs(PlanSpec("gpt3-xl"), ["a100", "a40"])
        rows = sweep(specs)   # 2**4 mixes, far fewer unique stage sweeps
    """
    if isinstance(stage_gpus, str):
        raise ConfigurationError(
            "stage_gpus must be a sequence of GPU names (or per-stage "
            f"candidate lists), not the single name {stage_gpus!r}"
        )
    if not stage_gpus:
        raise ConfigurationError("stage_gpus must name at least one GPU")
    if all(isinstance(g, str) for g in stage_gpus):
        per_stage: List[Sequence[str]] = [list(stage_gpus)] * base.stages
    else:
        # A bare name among the per-stage entries means "this stage is
        # fixed" -- wrap it so it does not iterate into characters.
        per_stage = [
            [choices] if isinstance(choices, str) else list(choices)
            for choices in stage_gpus
        ]
        if len(per_stage) != base.stages:
            raise ConfigurationError(
                f"need one GPU candidate list per stage: got "
                f"{len(per_stage)} for {base.stages} stages"
            )
    for stage, choices in enumerate(per_stage):
        for name in choices:
            try:
                get_gpu(name)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"stage {stage} candidate {name!r}: {exc}"
                ) from exc
    return [
        base.replace(gpu=mix)
        for mix in itertools.product(*per_stage)
    ]
