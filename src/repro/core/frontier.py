"""Iterative time-energy frontier discovery (Algorithm 1, Figure 5).

Start from the minimum-energy schedule (every computation at the duration
of its min-energy clock -- trivially Pareto-optimal), then repeatedly shave
``tau`` off the iteration time with minimal effective-energy increase via
:func:`~repro.core.nextschedule.next_schedule_flat`, collecting every
intermediate schedule.  The crawl ends at ``T_min`` (everything at the
maximum clock), which is appended explicitly so both endpoints of §3.1 are
always present.

The crawl runs on the compiled flat-array kernel
(:class:`~repro.graph.compiled.CompiledDag` + one
:class:`~repro.graph.maxflow.FlowArena` reused across every min-cut):
durations travel as ``array('d')`` indexed by computation id, and each
accepted move reuses the kernel's event pass for every makespan check.
Exact and fast mode share the one crawl loop (:func:`_crawl`) and differ
only in how each step solves its min cuts (see
:mod:`repro.core.nextschedule`).  ``Frontier.stats["timings"]`` records
where the crawl's time went (event passes, instance builds, max-flow
solves, schedule assembly) plus cut/repair counts, which is what
``repro plan --timings`` and the hot-path benchmark surface.  The seed's
dict-of-float crawl lives in ``tests/reference/`` as the bit-identity
oracle for exact mode.
"""

from __future__ import annotations

import time as _time
from array import array
from bisect import bisect_right
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from ..exceptions import OptimizationError
from ..graph.edgecentric import to_edge_centric
from ..obs.trace import add_stage_spans
from ..obs.trace import span as obs_span
from ..graph.maxflow import FlowArena
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import OpKey, PipelineProfile
from ..units import TIME_EPS, ms
from .costmodel import OpCostModel, build_cost_models
from .nextschedule import (
    CostTable,
    FastState,
    compiled_kernel,
    next_schedule_fast,
    next_schedule_flat,
)
from .schedule import EnergySchedule, make_schedule

#: Default planning granularity (1 ms, Appendix B.4).
DEFAULT_TAU = ms(1.0)


class Frontier:
    """The characterized time-energy frontier of one training pipeline.

    Points are sorted by increasing iteration time; the first point is the
    ``T_min`` schedule and the last the ``T*`` (minimum-energy) schedule.
    ``points`` is a list (sorted here) or, from
    :func:`~repro.core.serialization.frontier_from_dict`, a lazy sequence
    of sorted points with a ``times`` column: a lookup then builds only
    the point it returns, and :attr:`points` is built on first access.
    """

    def __init__(self, points: Sequence[EnergySchedule], tau: float,
                 optimizer_runtime_s: float = 0.0, steps: int = 0,
                 stats: Optional[dict] = None) -> None:
        if not len(points):
            raise OptimizationError("a frontier needs at least one point")
        if isinstance(points, list):
            points.sort(key=lambda p: p.iteration_time)
            self.points = points
            self._times = [p.iteration_time for p in points]
        else:
            self._times = points.times
        self._lookup = points
        self.tau = tau
        self.optimizer_runtime_s = optimizer_runtime_s
        self.steps = steps
        self.stats = {} if stats is None else stats

    @cached_property
    def points(self) -> List[EnergySchedule]:
        # setdefault: racing first accesses all get the list stored first.
        return vars(self).setdefault("points", list(self._lookup))

    @property
    def t_min(self) -> float:
        """Fastest achievable iteration time."""
        return self._times[0]

    @property
    def t_star(self) -> float:
        """Minimum-energy iteration time (``T*`` of §3.1)."""
        return self._times[-1]

    @property
    def min_time_schedule(self) -> EnergySchedule:
        return self._lookup[0]

    @property
    def min_energy_schedule(self) -> EnergySchedule:
        return self._lookup[-1]

    def index_for(self, target_time: Optional[float]) -> int:
        """Index of the slowest schedule whose iteration time <= the target.

        Times within ``TIME_EPS`` of the target count as meeting it.
        ``None`` (no straggler) selects the ``T_min`` schedule.  The lookup
        clamps to the frontier ends, implementing ``T_opt = min(T*, T')``
        together with the Figure 3a case.  Every straggler consumer --
        server, fleet ladder, drift runner -- resolves its point here.
        """
        if target_time is None:
            return 0
        return max(bisect_right(self._times, target_time + TIME_EPS) - 1, 0)

    def schedule_for(self, target_time: Optional[float]) -> EnergySchedule:
        """The schedule at :meth:`index_for` ``(target_time)``."""
        return self._lookup[self.index_for(target_time)]


def characterize_frontier(
    dag: ComputationDag,
    profile: PipelineProfile,
    tau: float = DEFAULT_TAU,
    exactness: str = "exact",
) -> Frontier:
    """Run Algorithm 1: enumerate the whole frontier for one pipeline.

    Args:
        dag: Computation DAG of one training iteration.
        profile: Profiled time/energy measurements + ``P_blocking``.
        tau: Unit time reduction per step (trades runtime vs. granularity).
        exactness: ``"exact"`` (bit-identical to the seed oracle in
            ``tests/reference/``) or ``"fast"`` (warm-started min-cuts
            and SP contraction; every point stays within
            :data:`~repro.core.nextschedule.FAST_TOLERANCE` of the exact
            crawl's cost).
    """
    if exactness not in ("exact", "fast"):
        raise OptimizationError(
            f"exactness must be 'exact' or 'fast', got {exactness!r}"
        )
    started = _time.perf_counter()
    cost_models = build_cost_models(profile)
    node_cost: Dict[int, OpCostModel] = {}
    for node in dag.nodes:
        op: OpKey = dag.nodes[node].op_key
        if op not in cost_models:
            raise OptimizationError(f"profile missing op {op}")
        node_cost[node] = cost_models[op]

    ecd = to_edge_centric(dag)

    # Endpoint schedules (§3.1): all-fastest and all-min-energy.
    fastest = {n: node_cost[n].t_min for n in dag.nodes}
    slowest = {n: node_cost[n].t_max for n in dag.nodes}
    t_min_schedule = make_schedule(dag, fastest, cost_models)

    # Safety bound on steps: a generous multiple of the Appendix-F bound
    # ``O((t_max - t_min) / tau)``.
    span = max(
        t_min_schedule.iteration_time,
        dag.iteration_time(slowest) - t_min_schedule.iteration_time,
    )
    max_steps = int(span / tau * 4) + 64

    # One span for the whole crawl; the timings aggregates the crawl
    # already keeps become synthetic child spans (add_stage_spans), so
    # tracing adds zero instrumentation to the inner loops and exact
    # frontiers stay bit-identical with tracing enabled.
    with obs_span("optimize.crawl", exactness=exactness,
                  num_computations=dag.num_computations, tau=tau):
        points, steps, timings = _crawl(
            dag, ecd, node_cost, cost_models, t_min_schedule, slowest,
            tau, max_steps, exactness,
        )
        add_stage_spans(timings)

    # Guarantee a T_min endpoint exists: if the crawl stalled more than one
    # tau short of T_min, fall back to the all-fastest schedule for the gap.
    if points[-1].iteration_time > t_min_schedule.iteration_time + tau:
        points.append(t_min_schedule)

    # Keep only Pareto-optimal points (later steps can dominate earlier
    # ones when clamping makes a step land on a better-energy time).  In
    # ascending time order, surviving points must strictly decrease in
    # effective energy; points within tau/4 of each other in time collapse
    # to the cheaper one.
    points.sort(key=lambda p: (p.iteration_time, p.effective_energy))
    pruned: List[EnergySchedule] = []
    best = float("inf")
    for p in points:
        if p.effective_energy >= best - 1e-12:
            continue
        if pruned and p.iteration_time - pruned[-1].iteration_time < tau / 4:
            pruned[-1] = p  # same time bucket, strictly cheaper
        else:
            pruned.append(p)
        best = p.effective_energy

    runtime = _time.perf_counter() - started
    return Frontier(
        points=pruned,
        tau=tau,
        optimizer_runtime_s=runtime,
        steps=steps,
        stats={
            "num_computations": dag.num_computations,
            "num_stages": dag.num_stages,
            "num_microbatches": dag.num_microbatches,
            "raw_points": len(points),
            "exactness": exactness,
            "timings": timings,
        },
    )


def _new_timings(kernel: str) -> dict:
    """The crawl's instrumentation record (``stats["timings"]``)."""
    return {
        "kernel": kernel,
        "event_times_s": 0.0,
        "instance_build_s": 0.0,
        "contract_s": 0.0,
        "maxflow_s": 0.0,
        "schedule_s": 0.0,
        "cuts": 0,
        "chain_cuts": 0,
        "repairs": 0,
    }


class _PointBuilder:
    """Memoized :class:`EnergySchedule` assembly for the kernel crawl.

    Per-computation energy / effective-energy terms and realized clocks
    are pure functions of the computation's duration; between
    consecutive crawl points only the cut computations change, so the
    per-``(comp, duration)`` memo turns point assembly from ~4 fit
    evaluations per computation into a dict hit.  Accumulation iterates
    computations in id order -- the same order ``make_schedule`` sums --
    and memoized floats are the values the direct calls produce, so
    points stay bit-identical to the oracle's.
    """

    def __init__(self, dag, cost_models):
        self._models = [
            cost_models[dag.nodes[n].op_key] for n in sorted(dag.nodes)
        ]
        self._memo = {}

    def point(self, durations, iteration_time) -> EnergySchedule:
        memo = self._memo
        models = self._models
        effective = 0.0
        compute = 0.0
        freqs = {}
        for comp, t in enumerate(durations):
            entry = memo.get((comp, t))
            if entry is None:
                cm = models[comp]
                e = cm.energy(t)
                if cm.fixed:
                    freq = cm.profile.measurements[0].freq_mhz
                else:
                    freq = cm.profile.frequency_for_time(t).freq_mhz
                entry = (e, e - cm.p_blocking_w * t, freq)
                memo[(comp, t)] = entry
            e, eta_term, freq = entry
            compute += e
            effective += eta_term
            freqs[comp] = freq
        return EnergySchedule(
            durations=dict(enumerate(durations)),
            iteration_time=iteration_time,
            effective_energy=effective,
            compute_energy=compute,
            frequencies=freqs,
        )


def _crawl(
    dag, ecd, node_cost, cost_models, t_min_schedule, slowest, tau, max_steps,
    exactness,
):
    """The Algorithm-1 loop; returns ``(points, steps, timings)``.

    Fast mode shares warm cuts and its stage counters across steps
    through one :class:`~repro.core.nextschedule.FastState`; the
    counters are merged into the timings record at the end.
    """
    fast = FastState() if exactness == "fast" else None
    timings = _new_timings("flat" if fast is None else "fast")
    kern = compiled_kernel(ecd, node_cost)
    costs = [node_cost[c] for c in range(kern.num_comps)]
    table = CostTable(costs, tau)
    arena = FlowArena()
    builder = _PointBuilder(dag, cost_models)
    durations = array("d", (slowest[c] for c in range(kern.num_comps)))

    start = _time.perf_counter()
    earliest, makespan = kern.forward_pass(durations)
    timings["event_times_s"] += _time.perf_counter() - start

    points: List[EnergySchedule] = []
    steps = 0
    t_min_time = t_min_schedule.iteration_time
    while True:
        start = _time.perf_counter()
        points.append(builder.point(durations, makespan))
        timings["schedule_s"] += _time.perf_counter() - start
        if points[-1].iteration_time <= t_min_time + TIME_EPS:
            break
        if steps >= max_steps:
            break
        step = next_schedule_flat if fast is None else next_schedule_fast
        nxt = step(
            kern, durations, tau, timings, arena=arena,
            start_makespan=makespan, start_earliest=earliest,
            cost_table=table, fast=fast,
        )
        if nxt is None:
            break
        if nxt.makespan >= points[-1].iteration_time - TIME_EPS:
            break  # no forward progress; stop rather than loop
        durations, makespan, earliest = nxt
        steps += 1
    if fast is not None:
        fast.export(timings)
    return points, steps, timings
