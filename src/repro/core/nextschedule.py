"""GetNextSchedule: one frontier step (Algorithm 2 + Appendix E).

Given the current energy schedule, reduce iteration time by exactly ``tau``
with minimal effective-energy increase:

1. compute earliest/latest event times on the edge-centric DAG and keep
   only zero-slack (critical) edges -- the *Critical DAG*;
2. annotate each critical edge with Phillips-Dessouky flow capacities
   (Eq. 8): ``(0, e+)`` if the computation cannot slow down, ``(e-, inf)``
   if it cannot speed up, ``(e-, e+)`` otherwise; dependency edges are
   ``(0, inf)``;
3. find the minimum s-t cut via max-flow-with-lower-bounds (Algorithm 3);
4. speed up the forward (S->T) cut computations by ``tau`` and slow down
   the backward (T->S) ones by ``tau`` -- every critical path shortens by
   exactly ``tau``.

Two robustness extensions beyond the paper's pseudocode:

* **Negative cuts.**  The hard lower bounds make the flow infeasible
  exactly when some cut has ``sum(e+) - sum(e-) < 0`` (Hoffman's
  condition) -- i.e. the schedule admits an *energy-improving move at
  unchanged iteration time* (speed the cut's forward edges, slow its
  backward edges).  We apply that repair and retry, implementing the
  penalty form of the LP dual instead of failing.
* **Non-critical slack.**  Slowing T->S cut edges is exact on the Critical
  DAG but can eat slack of non-critical paths; if the step's time
  reduction falls below ``tau/2`` we fall back to the speedup-only move,
  which always shortens every critical path by ``tau``.

Returns ``None`` when the iteration time cannot be reduced further (an
unspeedable critical path exists).

The step runs on a :class:`~repro.graph.compiled.CompiledDag`:
durations travel as ``array('d')`` indexed by computation id, min cuts
reuse one :class:`~repro.graph.maxflow.FlowArena`, and each accepted move
re-times only the event-time cone below the computations it changed.
The two optimizer modes differ in one decision only -- how a bounded
min cut is solved:

* ``exactness="exact"`` (:func:`next_schedule_flat`) solves every
  instance directly; frontiers are bit-identical to the seed oracle in
  ``tests/reference/`` (enforced by ``tests/test_compiled.py``).
* ``exactness="fast"`` (:func:`next_schedule_fast`) replays the previous
  cut while it provably stays within :data:`FAST_WARM_SLACK` of minimal,
  and otherwise solves the series-parallel-contracted instance; every
  frontier point stays within :data:`FAST_TOLERANCE` of the exact crawl.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..exceptions import InfeasibleFlowError, OptimizationError
from ..graph.compiled import CompiledDag
from ..graph.edgecentric import EdgeCentricDag
from ..graph.lowerbounds import (
    SPContraction,
    chain_min_cut,
    contract_series_parallel,
    relaxed_min_cut,
    solve_bounded_arrays,
)
from ..graph.maxflow import INF, FlowArena, WarmCutCache
from .costmodel import OpCostModel

#: Floor for positive arc capacities; keeps zero-cost arcs from being cut
#: "for free" due to float dust in the fits.
CAPACITY_FLOOR = 1e-9

#: Bound on energy-repair moves per step (each strictly decreases energy,
#: so this only guards float-noise ping-pong).
MAX_REPAIRS = 25

#: Stated tolerance of fast mode: every fast-mode frontier point's
#: effective energy is within ``(1 + FAST_TOLERANCE)`` of the exact
#: crawl's cost at the same (or smaller) iteration-time budget.
FAST_TOLERANCE = 0.05

#: Warm-cut relative slack: the fraction of the recorded cut's value a
#: replayed cut may be suboptimal by, per reuse.  Between adjacent
#: partial moves capacities drift by the second-order curvature of
#: ``eta`` (O(tau) relative), so 1% buys reuse runs at small tau while
#: staying far inside FAST_TOLERANCE for the crawl as a whole.
FAST_WARM_SLACK = 0.01


def compiled_kernel(
    ecd: EdgeCentricDag, node_cost: Dict[int, OpCostModel]
) -> CompiledDag:
    """The compiled kernel for ``ecd`` (cached on the DAG instance).

    The cache is keyed on the cost-model mapping's identity: the baked
    ``t_min``/``t_max`` vectors must match the models the caller plans
    with, and one DAG is characterized against one profile at a time.
    """
    cached = getattr(ecd, "_compiled", None)
    if cached is not None and cached[1] is node_cost:
        return cached[0]
    kern = CompiledDag.from_edge_centric(ecd, node_cost)
    ecd._compiled = (kern, node_cost)
    return kern


# ---------------------------------------------------------------------------
# The step kernel
# ---------------------------------------------------------------------------


@dataclass
class _FlatInstance:
    """The bounded min-cut instance for one Critical DAG (flat form).

    ``crit`` doubles as the critical-edge index per bounded edge (the
    instance's edges are exactly the critical edges, in order); ``binf``
    marks upper bounds that were *assigned* infinite (mirrors the
    oracle's ``ub is INF`` identity test).  Compact node ids follow the
    DAG's topological order, so ``range(num_compact)`` is the order
    that warm-starts the bounded solve.  ``path`` is set when the
    Critical DAG is a single ``s -> t`` path: ``path[p]`` is the edge
    from compact node ``p`` to ``p + 1`` (its min cuts have closed
    forms, :func:`~repro.graph.lowerbounds.chain_min_cut`).
    """

    bu: List[int]
    bv: List[int]
    blb: List[float]
    bub: List[float]
    binf: List[bool]
    crit: List[int]
    num_compact: int
    s: int
    t: int
    path: Optional[List[int]] = None

    def relaxed(self) -> "_FlatInstance":
        """The same instance with every slowdown credit (lower bound)
        dropped: the speedup-only cut problem."""
        return replace(self, blb=[0.0] * len(self.blb))


class FlatStep(NamedTuple):
    """One accepted Algorithm-2 move on the compiled kernel."""

    durations: array
    makespan: float
    #: Earliest event times of ``durations`` (reusable by the next
    #: step's critical pass).
    earliest: List[float]


class CostTable:
    """Memoized Eq. 8 quantities per ``(comp, duration)`` pair.

    A frontier crawl re-evaluates ``speedup_cost``/``slowdown_gain`` --
    two exponential-fit evaluations each -- for every critical edge on
    every step, yet between consecutive steps only the cut computations
    change duration.  ``tau`` is fixed per crawl, so the quadruple
    ``(can_speed_up, can_slow_down, e+, e-)`` is a pure function of
    ``(comp, t)`` and safely memoizable; cached entries are the same
    float objects the direct calls would produce, so bit-identity with
    the oracle is preserved.  Entries are bounded by (comps x distinct
    durations per crawl), a few thousand at most.
    """

    __slots__ = ("costs", "tau", "_memo")

    def __init__(self, costs: Sequence[OpCostModel], tau: float) -> None:
        self.costs = costs
        self.tau = tau
        self._memo: Dict[Tuple[int, float], tuple] = {}

    def entry(self, comp: int, t: float) -> tuple:
        key = (comp, t)
        cached = self._memo.get(key)
        if cached is None:
            cm = self.costs[comp]
            tau = self.tau
            cached = (
                cm.can_speed_up(t, tau),
                cm.can_slow_down(t, tau),
                cm.speedup_cost(t, tau),
                cm.slowdown_gain(t, tau),
            )
            self._memo[key] = cached
        return cached


class FastState:
    """Crawl-scoped scratch for fast mode.

    Holds the :class:`~repro.graph.maxflow.WarmCutCache` shared across
    steps plus the stage counters the fast mode reports back through
    ``Frontier.stats["timings"]`` (warm-start hits/misses, contraction
    ratio, incremental-pass node counts).
    """

    __slots__ = ("warm", "last_contraction", "stats")

    def __init__(self) -> None:
        self.warm = WarmCutCache()
        #: Contraction of the most recently solved instance (None when
        #: that instance did not reduce): what the arena holds, for the
        #: in-place relaxed re-solve of the same instance.
        self.last_contraction = None
        self.stats = {
            "contractions": 0,
            "contract_edges_before": 0,
            "contract_edges_after": 0,
            "incremental_passes": 0,
            "full_passes": 0,
            "nodes_recomputed": 0,
            "nodes_total": 0,
        }

    def export(self, timings: dict) -> None:
        """Merge the fast counters into a crawl's timings dict."""
        timings.update(self.stats)
        timings["warm_hits"] = self.warm.hits
        timings["warm_misses"] = self.warm.misses
        before = self.stats["contract_edges_before"]
        after = self.stats["contract_edges_after"]
        timings["contraction_ratio"] = (after / before) if before else 1.0


def next_schedule_flat(
    kern: CompiledDag,
    durations: array,
    tau: float,
    timings: dict,
    *,
    arena: FlowArena,
    start_makespan: float,
    start_earliest: List[float],
    cost_table: CostTable,
    fast: Optional[FastState],
) -> Optional[FlatStep]:
    """One Algorithm-2 step on the compiled kernel.

    A single min-cut move can shave less than ``tau`` when cut edges hit
    their fastest duration mid-step (partial speed-ups), so moves are
    accumulated until the iteration time has dropped by ~``tau``.  Each
    partial move retires at least one computation to its bound, so the
    inner loop is finite.

    Args:
        kern: Compiled DAG (with baked ``t_min``/``t_max`` vectors).
        durations: Current durations, ``array('d')`` indexed by comp id.
        tau: Unit time to shave off the iteration (seconds).
        timings: The crawl's accumulator; bumps ``event_times_s`` /
            ``instance_build_s`` / ``contract_s`` / ``maxflow_s`` /
            ``cuts`` / ``chain_cuts`` / ``repairs``.
        arena: Reusable max-flow buffers (one per crawl).
        start_makespan: Makespan of ``durations``.
        start_earliest: Earliest event times of ``durations`` (the
            crawl's first forward pass, then each step's
            :attr:`FlatStep.earliest`).
        cost_table: Crawl-scoped :class:`CostTable` (its ``tau`` is
            ``tau``).
        fast: Crawl-scoped :class:`FastState` selecting fast mode's cut
            solve (see :func:`next_schedule_fast`); ``None`` is exact.

    Returns:
        A :class:`FlatStep` (fresh duration array; the input is never
        mutated) or ``None`` when time is irreducible.
    """
    if tau <= 0:
        raise OptimizationError("tau must be positive")
    if kern.t_min is None or kern.t_max is None:
        raise OptimizationError(
            "kernel was compiled without cost models; use "
            "CompiledDag.from_edge_centric(ecd, node_cost)"
        )
    current = durations
    cur_makespan = start_makespan
    cur_earliest = start_earliest
    moved = False
    max_inner = max(32, kern.num_comps)
    for _ in range(max_inner):
        nxt = _solve_one_cut(
            kern, current, cur_makespan, cur_earliest, cost_table, tau,
            arena, timings, fast,
        )
        if nxt is None:
            break
        current, cur_makespan, cur_earliest = nxt
        moved = True
        if start_makespan - cur_makespan >= 0.9 * tau:
            break
    if not moved:
        return None
    if start_makespan - cur_makespan < 1e-12:
        return None
    return FlatStep(current, cur_makespan, cur_earliest)


def next_schedule_fast(
    kern: CompiledDag,
    durations: array,
    tau: float,
    timings: dict,
    *,
    arena: FlowArena,
    start_makespan: float,
    start_earliest: List[float],
    cost_table: CostTable,
    fast: FastState,
) -> Optional[FlatStep]:
    """One Algorithm-2 step in fast mode (tolerance-validated).

    Same contract as :func:`next_schedule_flat` -- the returned
    durations still shave ~``tau`` off the makespan and every move is a
    genuine cut move -- but the cut may be up to the warm-cut slack away
    from minimal and min-cut solves run on the SP-contracted core, so
    the resulting frontier is *not* bit-identical to the oracle.  The
    crawl-scoped :class:`FastState` shares warm cuts across steps.
    """
    return next_schedule_flat(
        kern, durations, tau, timings, arena=arena,
        start_makespan=start_makespan, start_earliest=start_earliest,
        cost_table=cost_table, fast=fast,
    )


def _forward(
    kern, durations, timings, fast, base_earliest, changed
) -> Tuple[List[float], float]:
    """Earliest event times + makespan of ``durations``.

    ``base_earliest`` holds the earliest times of durations that differ
    from ``durations`` only on the ``changed`` computations, so just the
    cone below the changed computations is recomputed, which is
    bit-identical to a full :meth:`CompiledDag.forward_pass`.
    """
    start = perf_counter()
    ear, makespan, recomputed = kern.forward_pass_incremental(
        durations, base_earliest, kern.min_affected_pos(changed)
    )
    timings["event_times_s"] += perf_counter() - start
    if fast is not None:
        st = fast.stats
        if recomputed >= kern.num_nodes:
            st["full_passes"] += 1
        else:
            st["incremental_passes"] += 1
        st["nodes_recomputed"] += recomputed
        st["nodes_total"] += kern.num_nodes
    return ear, makespan


def _critical_instance(
    kern, current, cur_earliest, table, timings
) -> Optional[_FlatInstance]:
    """Critical pass + Eq. 8 instance; None if time is irreducible."""
    t0 = perf_counter()
    info = kern.critical_pass(current, forward=cur_earliest)
    t1 = perf_counter()
    inst = _build_instance(kern, current, table, info.critical)
    timings["event_times_s"] += t1 - t0
    timings["instance_build_s"] += perf_counter() - t1
    return inst


def _solve_one_cut(
    kern, current, cur_makespan, cur_earliest, table, tau, arena, timings,
    fast,
) -> Optional[FlatStep]:
    """One min-cut move (with energy repairs); None if time is irreducible."""
    for _ in range(MAX_REPAIRS):
        inst = _critical_instance(kern, current, cur_earliest, table, timings)
        if inst is None:
            return None

        if fast is not None:
            mask = fast.warm.try_reuse(
                inst.num_compact, inst.bu, inst.bv, inst.blb, inst.bub,
                FAST_WARM_SLACK,
            )
            if mask is not None:
                step = _apply_cut(
                    kern, current, cur_earliest, cur_makespan, tau, inst,
                    mask, timings, fast,
                )
                if step is not None:
                    return step
                # The replayed cut no longer moves anything; solve fresh.
                fast.warm.invalidate()

        mask, violating = _min_cut(inst, arena, timings, fast)
        if mask is None:
            repair = None
            if violating:
                repair = _apply_repair(kern, current, tau, inst, violating)
            if repair is not None:
                repaired, moved = repair
                rep_earliest, rep_makespan = _forward(
                    kern, repaired, timings, fast, cur_earliest, moved,
                )
                if rep_makespan <= cur_makespan + 1e-12:
                    current = repaired
                    cur_makespan = rep_makespan
                    cur_earliest = rep_earliest
                    timings["repairs"] += 1
                    continue
            # Repair unavailable: drop the slowdown credits for this step.
            inst = inst.relaxed()
            mask = _relaxed_cut(inst, arena, timings, fast)
        if fast is not None:
            fast.warm.record(
                inst.num_compact, inst.bu, inst.bv, inst.blb, inst.bub, mask
            )
        return _apply_cut(
            kern, current, cur_earliest, cur_makespan, tau, inst, mask,
            timings, fast,
        )
    return _fallback_speedup_only(
        kern, current, cur_makespan, cur_earliest, table, tau, arena,
        timings, fast,
    )


def _min_cut(
    inst: _FlatInstance, arena, timings, fast
) -> Tuple[Optional[bytearray], Optional[Set[int]]]:
    """Min cut of ``inst``: ``(mask, None)`` with its source-side mask,
    or ``(None, violating)`` when the instance is infeasible, with the
    violating set in ``inst``'s compact node ids.

    A chain instance is answered in closed form
    (:func:`~repro.graph.lowerbounds.chain_min_cut`) unless the answer
    sits near a float threshold; the closed forms give the generic
    solve's mask and violating set, so both modes take them (fast mode
    after its warm-cut replay, before contraction).  Otherwise exact
    mode solves the instance directly, and fast mode solves its
    series-parallel contraction (:func:`_contract`) when one exists:
    the contraction preserves feasibility and the min-cut value
    exactly, and the cut -- or the violating set, whose negative value
    the expansion preserves composite by composite -- is expanded back
    through the composition trees.  A flow solve is warm-started along
    the topological node order and leaves its instance in ``arena`` for
    :func:`_relaxed_cut`.  Contraction and expansion are timed as
    ``contract_s``; the solve, closed form or not, as ``maxflow_s``.
    """
    if inst.path is not None:
        cut = _chain_cut(inst, timings)
        if cut is not None:
            return cut
    t0 = perf_counter()
    con = None if fast is None else _contract(inst, fast)
    t1 = perf_counter()
    solved = None
    try:
        if con is None:
            return solve_bounded_arrays(
                inst.num_compact, inst.bu, inst.bv, inst.blb, inst.bub,
                inst.s, inst.t, arena=arena, order=range(inst.num_compact),
            ), None
        cmask = solve_bounded_arrays(
            con.num_nodes, con.edge_u, con.edge_v, con.lower,
            con.upper, con.s, con.t, arena=arena, order=range(con.num_nodes),
        )
        solved = perf_counter()
        return con.expand_mask(cmask), None
    except InfeasibleFlowError as err:
        solved = perf_counter()
        violating = err.violating_set
        if con is not None:
            vmask = bytearray(con.num_nodes)
            for n in violating:
                vmask[n] = 1
            full = con.expand_mask(vmask)
            violating = {n for n in range(inst.num_compact) if full[n]}
        return None, violating
    finally:
        end = perf_counter()
        if solved is None:
            solved = end
        if fast is not None:
            timings["contract_s"] += (t1 - t0) + (end - solved)
        timings["maxflow_s"] += solved - t1
        timings["cuts"] += 1


def _chain_cut(inst: _FlatInstance, timings):
    """:func:`~repro.graph.lowerbounds.chain_min_cut` of a chain
    instance, timed as ``maxflow_s`` and, when it decides, counted in
    ``cuts`` and ``chain_cuts``."""
    t0 = perf_counter()
    cut = chain_min_cut(inst.blb, inst.bub, inst.path)
    timings["maxflow_s"] += perf_counter() - t0
    if cut is not None:
        timings["cuts"] += 1
        timings["chain_cuts"] += 1
    return cut


def _relaxed_cut(inst: _FlatInstance, arena, timings, fast) -> bytearray:
    """Min cut of ``inst`` (already relaxed) re-solved in place.

    A chain takes the closed form, which always decides once the lower
    bounds are dropped.  Otherwise the arena still holds the infeasible
    solve :func:`_min_cut` just made of the same instance -- of its
    contraction in fast mode, which keeps the same structure and upper
    bounds with its lower bounds dropped -- so :func:`relaxed_min_cut`
    only resets capacities.
    """
    if inst.path is not None:
        return _chain_cut(inst, timings)[0]
    t0 = perf_counter()
    con = None if fast is None else fast.last_contraction
    if con is None:
        mask = relaxed_min_cut(arena, inst.bub, inst.s, inst.t)
    else:
        mask = relaxed_min_cut(arena, con.upper, con.s, con.t)
    t1 = perf_counter()
    if con is not None:
        mask = con.expand_mask(mask)
    if fast is not None:
        timings["contract_s"] += perf_counter() - t1
    timings["maxflow_s"] += t1 - t0
    timings["cuts"] += 1
    return mask


def _contract(inst: _FlatInstance,
              fast: FastState) -> Optional[SPContraction]:
    """Fast mode's SP contraction of ``inst`` (None if nothing reduces)."""
    st = fast.stats
    st["contract_edges_before"] += len(inst.bu)
    con = contract_series_parallel(
        inst.num_compact, inst.bu, inst.bv, inst.blb, inst.bub,
        inst.s, inst.t,
    )
    fast.last_contraction = con
    if con is not None:
        st["contractions"] += 1
        st["contract_edges_after"] += len(con.edge_u)
    else:
        st["contract_edges_after"] += len(inst.bu)
    return con


def _build_instance(
    kern, current, table: CostTable, crit: List[int]
) -> Optional[_FlatInstance]:
    """Critical DAG -> Eq. 8 capacities; None if time is irreducible."""
    eu, ev, ecomp = kern.edge_u, kern.edge_v, kern.edge_comp

    entries: List[Optional[tuple]] = [None] * len(crit)
    speedable = [False] * len(crit)
    for j, idx in enumerate(crit):
        comp = ecomp[idx]
        if comp < 0:
            continue
        entry = table.entry(comp, current[comp])
        entries[j] = entry
        speedable[j] = entry[0]

    path = _chain_path(kern, crit)
    if path is not None:
        if not any(speedable):
            return None  # the one s -> t path cannot speed up
        # A path's topological order is its own: node p is position p,
        # so each edge's tail is its position (the inverse of ``path``).
        bu = sorted(range(len(crit)), key=path.__getitem__)
        bv = [p + 1 for p in bu]
        num_compact, s, t = len(crit) + 1, 0, len(crit)
    else:
        if _has_unspeedable_path(kern, crit, speedable):
            return None
        # Compact node ids over the critical subgraph's nodes (plus s
        # and t), assigned in topological order.
        crit_nodes = {kern.s, kern.t}
        for idx in crit:
            crit_nodes.add(eu[idx])
            crit_nodes.add(ev[idx])
        compact = {
            node: i
            for i, node in enumerate(
                sorted(crit_nodes, key=kern.pos.__getitem__))
        }
        bu = [compact[eu[idx]] for idx in crit]
        bv = [compact[ev[idx]] for idx in crit]
        num_compact, s, t = len(compact), compact[kern.s], compact[kern.t]

    blb: List[float] = []
    bub: List[float] = []
    binf: List[bool] = []
    for entry in entries:
        if entry is None:  # dependency edge
            lb, ub, is_inf = 0.0, INF, True
        else:
            can_up, can_down, e_plus, e_minus = entry
            if can_up:
                ub = max(e_plus, CAPACITY_FLOOR)
                is_inf = False
            else:
                ub, is_inf = INF, True
            lb = max(e_minus, 0.0) if can_down else 0.0
            if lb > ub:
                # Convexity guarantees e- <= e+ for exact fits; float dust
                # can still invert them by a hair.
                lb = ub
        blb.append(lb)
        bub.append(ub)
        binf.append(is_inf)
    return _FlatInstance(bu, bv, blb, bub, binf, crit, num_compact, s, t,
                         path)


def _chain_path(kern, crit) -> Optional[List[int]]:
    """Critical-edge index per path position when the critical edges
    form one ``s -> t`` path (each tail once, walked from ``s``), else
    None."""
    eu, ev = kern.edge_u, kern.edge_v
    out_edge = {eu[idx]: j for j, idx in enumerate(crit)}
    if len(out_edge) != len(crit):
        return None
    path: List[int] = []
    node, t = kern.s, kern.t
    while node != t:
        j = out_edge.get(node)
        if j is None:
            return None
        path.append(j)
        node = ev[crit[j]]
    return path if len(path) == len(crit) else None


def _has_unspeedable_path(kern, crit, speedable) -> bool:
    """True if s reaches t through critical edges that cannot speed up."""
    eu, ev = kern.edge_u, kern.edge_v
    adj: Dict[int, List[int]] = {}
    for j, idx in enumerate(crit):
        if speedable[j]:
            continue
        adj.setdefault(eu[idx], []).append(ev[idx])
    seen = {kern.s}
    queue = deque([kern.s])
    target = kern.t
    while queue:
        u = queue.popleft()
        if u == target:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def _apply_repair(
    kern, current, tau, inst: _FlatInstance, violating: Set[int]
) -> Optional[Tuple[array, List[int]]]:
    """Apply the negative cut exposed by an infeasible lower-bound flow.

    ``violating`` is a compact-id node set whose cut value
    ``sum(e+) - sum(e-)`` is negative: speeding its outgoing critical
    edges and slowing its incoming ones strictly reduces energy while the
    makespan cannot increase.  Returns the repaired durations and the
    computations the move touched (a superset of those whose duration
    changed), or ``None`` if the move is not actually improving
    (float-edge cases).
    """
    ecomp = kern.edge_comp
    crit = inst.crit
    delta = 0.0
    speed: List[int] = []
    slow: List[int] = []
    for i in range(len(inst.bu)):
        u_in = inst.bu[i] in violating
        v_in = inst.bv[i] in violating
        comp = ecomp[crit[i]]
        if u_in and not v_in:
            if comp < 0 or inst.binf[i]:
                return None  # cut crosses an unspeedable edge: not a move
            delta += inst.bub[i]
            speed.append(comp)
        elif v_in and not u_in:
            if comp >= 0 and inst.blb[i] > 0.0:
                delta -= inst.blb[i]
                slow.append(comp)
    if delta >= -1e-12 or not speed:
        return None

    new_durations = array("d", current)
    t_min, t_max = kern.t_min, kern.t_max
    for comp in speed:
        new_durations[comp] = max(new_durations[comp] - tau, t_min[comp])
    for comp in slow:
        new_durations[comp] = min(new_durations[comp] + tau, t_max[comp])
    return new_durations, speed + slow


def _apply_cut(
    kern, current, cur_earliest, cur_makespan, tau, inst: _FlatInstance,
    mask, timings, fast,
) -> Optional[FlatStep]:
    """Apply a solved (or replayed) min cut: speed S->T edges, slow T->S
    edges."""
    bu, bv = inst.bu, inst.bv
    forward: List[int] = []
    backward: List[int] = []
    for i in range(len(bu)):
        u_in = mask[bu[i]]
        v_in = mask[bv[i]]
        if u_in and not v_in:
            forward.append(i)
        elif v_in and not u_in:
            backward.append(i)
    if not forward:
        return None

    ecomp = kern.edge_comp
    crit = inst.crit
    t_min, t_max = kern.t_min, kern.t_max
    new_durations = array("d", current)
    fwd_comps: List[int] = []
    for i in forward:
        comp = ecomp[crit[i]]
        if comp < 0:
            raise OptimizationError(
                "min cut crossed an infinite-capacity dependency edge"
            )
        new_durations[comp] = max(new_durations[comp] - tau, t_min[comp])
        fwd_comps.append(comp)
    speedup_only = array("d", new_durations)
    slow_comps: List[int] = []
    for i in backward:
        comp = ecomp[crit[i]]
        if comp < 0 or inst.blb[i] <= 0.0:
            continue  # nothing to gain from slowing this edge
        new_durations[comp] = min(new_durations[comp] + tau, t_max[comp])
        slow_comps.append(comp)

    # Slowing T->S cut edges is exact on the Critical DAG, but a slowed
    # computation may sit on a *non-critical* path whose slack is < tau
    # (and partially sped forward edges shorten paths by less than tau),
    # eating into (or negating) the reduction.  Verify and fall back to
    # the speedup-only schedule, which always shortens the critical paths.
    if slow_comps:
        new_earliest, new_makespan = _forward(
            kern, new_durations, timings, fast, cur_earliest,
            fwd_comps + slow_comps,
        )
        if new_makespan >= cur_makespan - 1e-12:
            so_earliest, so_makespan = _forward(
                kern, speedup_only, timings, fast, cur_earliest, fwd_comps
            )
            return FlatStep(speedup_only, so_makespan, so_earliest)
        return FlatStep(new_durations, new_makespan, new_earliest)
    earliest, makespan = _forward(
        kern, new_durations, timings, fast, cur_earliest, fwd_comps
    )
    return FlatStep(new_durations, makespan, earliest)


def _fallback_speedup_only(
    kern, current, cur_makespan, cur_earliest, table, tau, arena, timings,
    fast,
) -> Optional[FlatStep]:
    """Last resort after repair ping-pong: pure speedup min cut."""
    inst = _critical_instance(kern, current, cur_earliest, table, timings)
    if inst is None:
        return None
    inst = inst.relaxed()
    mask = _min_cut(inst, arena, timings, fast)[0]
    return _apply_cut(
        kern, current, cur_earliest, cur_makespan, tau, inst, mask,
        timings, fast,
    )
