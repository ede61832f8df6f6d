"""The seed optimizer, kept verbatim as the oracle the kernel must match.

The production crawl (:func:`repro.core.frontier.characterize_frontier`)
runs Algorithms 1-3 on flat arrays.  This module is the seed's
dict-of-float interpreter of the same algorithms -- per-call
topological sorts, :class:`~.maxflow.BoundedEdge`
instances, a fresh ``FlowNetwork`` and reference ``Dinic`` per solve --
plus the seed's work profile: cost models refit on every crawl and Pareto
fronts re-filtered on every call.  Exact-mode frontiers must equal the
oracle's bit for bit (``tests/test_compiled.py``,
``tests/test_fast_mode.py``, ``benchmarks/bench_optimizer_hotpath.py``).

Run a crawl on the oracle with::

    with seed_oracle():
        frontier = characterize_frontier(dag, profile, tau=tau)
"""

from __future__ import annotations

import time as _time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import repro.core.frontier as frontier_mod
from repro.core.costmodel import OpCostModel, build_cost_model
from repro.core.nextschedule import CAPACITY_FLOOR, MAX_REPAIRS
from repro.core.schedule import EnergySchedule, make_schedule
from repro.exceptions import (
    InfeasibleFlowError,
    OptimizationError,
    ProfilingError,
)
from repro.graph.edgecentric import EdgeCentricDag
from repro.graph.maxflow import INF
from repro.profiler.measurement import OpProfile, pareto_filter
from repro.units import TIME_EPS

from .critical import critical_subgraph, event_times
from .maxflow import BoundedEdge, max_flow_with_lower_bounds_reference


@dataclass
class _StepInstance:
    """The bounded min-cut instance for one Critical DAG (oracle form)."""

    bounded: List[BoundedEdge]
    edge_of_bounded: List[int]  # critical-edge index per bounded edge
    node_index: Dict[int, int]
    s: int
    t: int


def _has_unspeedable_path(
    ecd: EdgeCentricDag,
    crit_edges: List[int],
    speedable: Set[int],
) -> bool:
    """True if s reaches t through critical edges that cannot speed up.

    Such a path pins the iteration time: any s-t cut would need to cut an
    infinite-capacity edge, so time reduction is impossible.
    """
    adj: Dict[int, List[int]] = {}
    for idx in crit_edges:
        if idx in speedable:
            continue
        e = ecd.edges[idx]
        adj.setdefault(e.u, []).append(e.v)
    seen = {ecd.s}
    queue = deque([ecd.s])
    while queue:
        u = queue.popleft()
        if u == ecd.t:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def _build_instance(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    node_cost: Dict[int, OpCostModel],
    tau: float,
) -> Optional[_StepInstance]:
    """Critical DAG -> Eq. 8 capacities; None if time is irreducible."""
    crit_edges, crit_nodes, _ = critical_subgraph(ecd, durations)

    speedable: Set[int] = set()
    slowable: Set[int] = set()
    for idx in crit_edges:
        comp = ecd.edges[idx].comp
        if comp is None:
            continue
        cm = node_cost[comp]
        t = durations[comp]
        if cm.can_speed_up(t, tau):
            speedable.add(idx)
        if cm.can_slow_down(t, tau):
            slowable.add(idx)

    if _has_unspeedable_path(ecd, crit_edges, speedable):
        return None

    node_index = {n: i for i, n in enumerate(sorted(crit_nodes))}
    bounded: List[BoundedEdge] = []
    edge_of_bounded: List[int] = []
    for idx in crit_edges:
        e = ecd.edges[idx]
        comp = e.comp
        if comp is None:
            lb, ub = 0.0, INF
        else:
            cm = node_cost[comp]
            t = durations[comp]
            ub = (
                max(cm.speedup_cost(t, tau), CAPACITY_FLOOR)
                if idx in speedable
                else INF
            )
            lb = max(cm.slowdown_gain(t, tau), 0.0) if idx in slowable else 0.0
            if lb > ub:
                # Convexity guarantees e- <= e+ for exact fits; float dust
                # can still invert them by a hair.
                lb = ub
        bounded.append(BoundedEdge(node_index[e.u], node_index[e.v], lb, ub))
        edge_of_bounded.append(idx)
    return _StepInstance(
        bounded=bounded,
        edge_of_bounded=edge_of_bounded,
        node_index=node_index,
        s=node_index[ecd.s],
        t=node_index[ecd.t],
    )


def _apply_repair(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    node_cost: Dict[int, OpCostModel],
    tau: float,
    inst: _StepInstance,
    violating: Set[int],
) -> Optional[Dict[int, float]]:
    """Apply the negative cut exposed by an infeasible lower-bound flow.

    ``violating`` is a node set (compact ids) whose cut value
    ``sum(e+) - sum(e-)`` is negative: speeding its outgoing critical edges
    and slowing its incoming ones strictly reduces energy while the
    makespan cannot increase.  Returns the repaired durations, or ``None``
    if the move is not actually improving (float-edge cases).
    """
    delta = 0.0
    speed: List[int] = []
    slow: List[int] = []
    for i, be in enumerate(inst.bounded):
        u_in = be.u in violating
        v_in = be.v in violating
        comp = ecd.edges[inst.edge_of_bounded[i]].comp
        if u_in and not v_in:
            if comp is None or be.ub is INF:
                return None  # cut crosses an unspeedable edge: not a move
            delta += be.ub
            speed.append(comp)
        elif v_in and not u_in:
            if comp is not None and be.lb > 0.0:
                delta -= be.lb
                slow.append(comp)
    if delta >= -1e-12 or not speed:
        return None

    new_durations = dict(durations)
    for comp in speed:
        new_durations[comp] = max(new_durations[comp] - tau, node_cost[comp].t_min)
    for comp in slow:
        new_durations[comp] = min(new_durations[comp] + tau, node_cost[comp].t_max)
    return new_durations


def _solve_one_cut(
    ecd: EdgeCentricDag,
    current: Dict[int, float],
    node_cost: Dict[int, OpCostModel],
    tau: float,
) -> Optional[Dict[int, float]]:
    """One min-cut move (with energy repairs); None if time is irreducible."""
    for _ in range(MAX_REPAIRS):
        inst = _build_instance(ecd, current, node_cost, tau)
        if inst is None:
            return None
        try:
            result = max_flow_with_lower_bounds_reference(
                len(inst.node_index), inst.bounded, inst.s, inst.t
            )
        except InfeasibleFlowError as err:
            repaired = None
            if err.violating_set:
                repaired = _apply_repair(
                    ecd, current, node_cost, tau, inst, err.violating_set
                )
            if repaired is not None:
                old_makespan = event_times(ecd, current).makespan
                if event_times(ecd, repaired).makespan <= old_makespan + 1e-12:
                    current = repaired
                    continue
            # Repair unavailable: drop the slowdown credits for this step.
            bounded = [BoundedEdge(e.u, e.v, 0.0, e.ub) for e in inst.bounded]
            result = max_flow_with_lower_bounds_reference(
                len(inst.node_index), bounded, inst.s, inst.t
            )
            inst = _StepInstance(
                bounded, inst.edge_of_bounded, inst.node_index, inst.s, inst.t
            )
        return _apply_cut(ecd, current, node_cost, tau, inst, result)
    return _fallback_speedup_only(ecd, current, node_cost, tau)


def get_next_schedule_dict(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    node_cost: Dict[int, OpCostModel],
    tau: float,
) -> Optional[Dict[int, float]]:
    """One Algorithm-2 step on the seed's dict-of-float interpreter."""
    if tau <= 0:
        raise OptimizationError("tau must be positive")
    start_makespan = event_times(ecd, durations).makespan
    current = durations
    max_inner = max(32, len(durations))
    for _ in range(max_inner):
        nxt = _solve_one_cut(ecd, current, node_cost, tau)
        if nxt is None:
            break
        current = nxt
        if start_makespan - event_times(ecd, current).makespan >= 0.9 * tau:
            break
    if current is durations:
        return None
    if start_makespan - event_times(ecd, current).makespan < 1e-12:
        return None
    return current


def _apply_cut(ecd, current, node_cost, tau, inst, result):
    """Apply a solved min cut: speed S->T edges, slow T->S edges."""
    forward, backward = result.cut_edges(inst.bounded)
    if not forward:
        return None

    new_durations = dict(current)
    for i in forward:
        comp = ecd.edges[inst.edge_of_bounded[i]].comp
        if comp is None:
            raise OptimizationError(
                "min cut crossed an infinite-capacity dependency edge"
            )
        new_durations[comp] = max(new_durations[comp] - tau, node_cost[comp].t_min)
    speedup_only = dict(new_durations)
    for i in backward:
        comp = ecd.edges[inst.edge_of_bounded[i]].comp
        if comp is None or inst.bounded[i].lb <= 0.0:
            continue  # nothing to gain from slowing this edge
        cm = node_cost[comp]
        new_durations[comp] = min(new_durations[comp] + tau, cm.t_max)

    # Slowing T->S cut edges is exact on the Critical DAG, but a slowed
    # computation may sit on a *non-critical* path whose slack is < tau
    # (and partially sped forward edges shorten paths by less than tau),
    # eating into (or negating) the reduction.  Verify and fall back to
    # the speedup-only schedule, which always shortens the critical paths.
    if backward:
        old_makespan = event_times(ecd, current).makespan
        if event_times(ecd, new_durations).makespan >= old_makespan - 1e-12:
            return speedup_only
    return new_durations


def _fallback_speedup_only(ecd, current, node_cost, tau):
    """Last resort after repair ping-pong: pure speedup min cut."""
    inst = _build_instance(ecd, current, node_cost, tau)
    if inst is None:
        return None
    bounded = [BoundedEdge(e.u, e.v, 0.0, e.ub) for e in inst.bounded]
    result = max_flow_with_lower_bounds_reference(
        len(inst.node_index), bounded, inst.s, inst.t
    )
    inst = _StepInstance(
        bounded, inst.edge_of_bounded, inst.node_index, inst.s, inst.t
    )
    return _apply_cut(ecd, current, node_cost, tau, inst, result)


def crawl_dict(
    dag, ecd, node_cost, cost_models, t_min_schedule, slowest, tau, max_steps,
    exactness="exact",
):
    """The seed's Algorithm-1 crawl (the seed had no fast mode).

    Same signature and result as :func:`repro.core.frontier._crawl`, so
    :func:`seed_oracle` can swap it in.
    """
    del exactness
    timings = frontier_mod._new_timings("dict")
    points: List[EnergySchedule] = []
    durations = slowest
    steps = 0
    while True:
        start = _time.perf_counter()
        points.append(make_schedule(dag, durations, cost_models))
        timings["schedule_s"] += _time.perf_counter() - start
        if points[-1].iteration_time <= t_min_schedule.iteration_time + TIME_EPS:
            break
        if steps >= max_steps:
            break
        nxt = get_next_schedule_dict(ecd, durations, node_cost, tau)
        if nxt is None:
            break
        new_time = dag.iteration_time(nxt)
        if new_time >= points[-1].iteration_time - TIME_EPS:
            break  # no forward progress; stop rather than loop
        durations = nxt
        steps += 1
    return points, steps, timings


def refit_cost_models(profile) -> Dict[tuple, OpCostModel]:
    """The seed's ``build_cost_models``: a fresh fit on every call."""
    profile.validate()
    return {
        op: build_cost_model(op_profile, profile.blocking_power(op[0]))
        for op, op_profile in profile.ops.items()
    }


def pareto_uncached(self: OpProfile):
    """The seed's ``OpProfile.pareto``: re-filtered on every call."""
    front = pareto_filter(self.measurements)
    if not front:
        raise ProfilingError(f"op {self.op} has no measurements")
    return front


@contextmanager
def seed_oracle():
    """Run :func:`~repro.core.frontier.characterize_frontier` on the seed.

    Swaps in :func:`crawl_dict`, :func:`refit_cost_models` and
    :func:`pareto_uncached` for the duration of the block (the fitted
    values are identical either way; the swap restores the seed's work
    profile for honest timing comparisons).  Not thread-safe.
    """
    patches = [
        (frontier_mod, "_crawl", crawl_dict),
        (frontier_mod, "build_cost_models", refit_cost_models),
        (OpProfile, "pareto", pareto_uncached),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
