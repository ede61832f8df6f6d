"""Max-flow / min-cut with edge lower bounds (Algorithm 3, Appendix E.2).

The Capacity DAG built from Eq. 8 has arcs with *flow lower bounds*
(a computation that can be slowed down must carry at least its
slowdown-gain worth of flow), which vanilla max-flow cannot handle.
Following the paper, we:

1. add a dummy source/sink pair and an infinite ``t -> s`` arc, turning the
   bounded-flow problem into a plain feasibility max-flow,
2. check the dummy arcs saturate (otherwise the instance is infeasible),
3. remove the ``t -> s`` arc and augment ``s -> t`` in the residual to reach
   a maximum feasible flow,
4. read the minimum cut as the residual-reachable side.

There is exactly one implementation of this transform,
:func:`solve_bounded_arrays`, operating on parallel flat arrays over a
reusable :class:`~.maxflow.FlowArena` (the optimizer hot path passes a
long-lived arena so the thousands of min-cut calls per frontier crawl
reuse one set of buffers).  It returns what the crawl reads: the
source-side mask of the minimum cut.  :func:`chain_min_cut` returns the
same outcome in closed form when the instance is a single path.

Called without ``order`` the solve is *cold*: it replicates the seed's
per-call solve (``tests/reference/maxflow.py``) bit for bit.  Given a
topological ``order`` of the instance's nodes (the optimizer's critical
DAGs are numbered topologically), step 1 is warm-started: a greedy
preflow routes the lower-bound excesses along that order before Dinic
finishes the feasibility flow from it, which cuts Dinic's phases from
several to about one on pipeline instances.
Dinic then reaches a different maximum flow, but the residual-reachable
set step 4 (and the infeasible case's violating set) reads is the same
for *every* maximum flow -- the unique minimal min cut -- so masks and
violating sets stay the cold solve's.

:func:`relaxed_min_cut` re-solves an instance the arena still holds
with its lower bounds dropped, in place (the optimizer's fallback after
an infeasible solve it cannot repair).
"""

from __future__ import annotations

from operator import sub
from typing import List, Optional, Sequence, Set, Tuple

from ..exceptions import GraphError, InfeasibleFlowError
from .maxflow import FLOW_EPS, INF, FlowArena


def solve_bounded_arrays(
    num_nodes: int,
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    lower: Sequence[float],
    upper: Sequence[float],
    s: int,
    t: int,
    arena: Optional[FlowArena] = None,
    order: Optional[Sequence[int]] = None,
) -> bytearray:
    """Core bounded min cut over parallel edge arrays.

    Returns the source-side mask of the minimum cut; it covers the
    ``num_nodes + 2`` transformed nodes (the two dummies are the last
    slots).  Raises :class:`InfeasibleFlowError` -- with
    ``violating_set`` populated -- when no feasible flow exists.
    ``arena`` supplies reusable buffers; a private one is created per
    call when omitted (identical results either way).  ``order`` --
    every node of a DAG instance, tails before heads -- warm-starts the
    feasibility flow with :func:`_preflow`: the mask and violating set
    are unchanged.  The arena keeps the solved network, arc layout
    included, for :func:`relaxed_min_cut`.
    """
    if not (0 <= s < num_nodes and 0 <= t < num_nodes) or s == t:
        raise GraphError("bad source/sink")

    net = (arena if arena is not None else FlowArena()).reset(num_nodes + 2)
    s2, t2 = num_nodes, num_nodes + 1

    # Reduced-capacity arcs for the original edges, appended straight
    # into the arena buffers (same arc-pair layout as ``add_edge``, with
    # per-call method dispatch hoisted out of the loop).  ``touched``
    # records nodes in first-appearance order (v then u per edge) -- the
    # same order dict insertion gave the node-excess table historically,
    # so the dummy arcs below are added in the same sequence.
    num_edges = len(edge_u)
    excess = [0.0] * num_nodes
    seen = bytearray(num_nodes)
    touched: List[int] = []
    touch = touched.append
    to, cap, head = net.to, net.cap, net.head
    to_append, cap_append = to.append, cap.append
    arc = 0
    for u, v, lb, ub in zip(edge_u, edge_v, lower, upper):
        reduced = ub - lb
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise GraphError(f"arc ({u}, {v}) out of range")
        if reduced < 0:
            raise GraphError("capacity must be non-negative")
        to_append(v)
        cap_append(reduced)
        head[u].append(arc)
        to_append(u)
        cap_append(0.0)
        head[v].append(arc + 1)
        arc += 2
        if not seen[v]:
            seen[v] = 1
            touch(v)
        excess[v] += lb
        if not seen[u]:
            seen[u] = 1
            touch(u)
        excess[u] -= lb

    # Dummy arcs forcing the lower bounds (node-excess formulation,
    # equivalent to Algorithm 3's per-node sums).
    head_s2, head_t2 = head[s2], head[t2]
    required = 0.0
    supply: List[int] = []  # s2 -> v arcs
    drain = [-1] * num_nodes  # v -> t2 arc per node
    for v in touched:
        ex = excess[v]
        if ex > FLOW_EPS:
            supply.append(arc)
            to_append(v)
            cap_append(ex)
            head_s2.append(arc)
            to_append(s2)
            cap_append(0.0)
            head[v].append(arc + 1)
            arc += 2
            required += ex
        elif ex < -FLOW_EPS:
            drain[v] = arc
            to_append(t2)
            cap_append(-ex)
            head[v].append(arc)
            to_append(v)
            cap_append(0.0)
            head_t2.append(arc + 1)
            arc += 2

    # Allow circulation through the original source/sink.
    ts_arc = net.add_edge(t, s, INF)

    if required > 0.0:
        # (With no positive excess the dummy source has no arcs: the
        # feasibility solve is a no-op and is skipped outright.)
        feasibility_flow = 0.0
        if order is not None:
            feasibility_flow = _preflow(
                net, order, num_edges, supply, drain, s, t, ts_arc)
        feasibility_flow += net.max_flow(s2, t2)
        if feasibility_flow < required - 1e-6 * max(1.0, required):
            # Expose the violating side: nodes reachable from the dummy
            # source in the residual form a set whose mandatory in-flow
            # exceeds its out-capacity (Hoffman's condition).  Callers can
            # turn this into an energy-improving repair move (see
            # core.nextschedule).  The solver's final BFS (from s2) is
            # exactly that reachability.
            mask = net.level_mask()
            violating = {n for n in range(num_nodes) if mask[n]}
            err = InfeasibleFlowError(
                f"no feasible flow: pushed {feasibility_flow:.6g} of "
                f"{required:.6g}"
            )
            err.violating_set = violating
            try:
                raise err
            finally:
                # Unbind it: a local holding the error would tie this
                # frame to its traceback in a cycle only the GC frees.
                del err

    # Remove the circulation arc and augment s -> t on the residual.
    net.zero_arc(ts_arc)
    net.max_flow(s, t)
    return net.level_mask()


def _push_forward(nodes, excess, to, cap, head, num_arcs, drain,
                  pushed=None) -> float:
    """One greedy sweep: each node in ``nodes`` with excess fills its
    dummy-sink arc, then its out-arcs among the first ``num_arcs`` (the
    edge arcs), in adjacency order.  ``pushed`` records the flow put on
    each arc.  Returns the flow absorbed by dummy-sink arcs."""
    eps = FLOW_EPS
    absorbed = 0.0
    for u in nodes:
        e = excess[u]
        if e <= eps:
            continue
        a = drain[u]
        if a >= 0:
            r = cap[a]
            if r > eps:
                d = e if e < r else r
                cap[a] = r - d
                cap[a ^ 1] += d
                absorbed += d
                e -= d
        if e > eps:
            for a in head[u]:
                if a >= num_arcs:
                    break  # dummy and t -> s arcs follow the edge arcs
                if a & 1:
                    continue
                r = cap[a]
                if r > eps:
                    d = e if e < r else r
                    cap[a] = r - d
                    cap[a ^ 1] += d
                    excess[to[a]] += d
                    if pushed is not None:
                        pushed[a] = d
                    e -= d
                    if e <= eps:
                        break
        excess[u] = e
    return absorbed


def _preflow(net: FlowArena, order: Sequence[int], num_edges: int,
             supply: List[int], drain: List[int], s: int, t: int,
             ts_arc: int) -> float:
    """Route lower-bound excesses greedily; returns the flow placed.

    Every dummy supply is injected at once and pushed forward along the
    topological ``order`` (:func:`_push_forward`); what reaches ``t``
    goes once through the ``t -> s`` arc and is swept forward again.
    Excess left stuck anywhere is then returned backward along the arcs
    it came in by -- the second lap's first, to ``s`` and back through
    ``t -> s``; then the first lap's, each node cancelling its own
    injection before its in-arcs -- and the dummy supply arcs carry only
    what stayed placed.  The result is a valid ``s2 -> t2`` flow, so
    Dinic finishes the feasibility solve from it.
    """
    to, cap, head = net.to, net.cap, net.head
    num_arcs = 2 * num_edges
    excess = [0.0] * len(drain)
    for a in supply:
        excess[to[a]] = cap[a]
    placed = _push_forward(order, excess, to, cap, head, num_arcs, drain)

    lap = excess[t]
    pushed: dict = {}  # second-lap flow per edge arc
    if lap > FLOW_EPS:
        excess[t] = 0.0
        cap[ts_arc ^ 1] += lap
        second = [0.0] * len(drain)
        second[s] = lap
        placed += _push_forward(order, second, to, cap, head, num_arcs,
                                drain, pushed)
        for v in reversed(order):
            e = second[v]
            if e <= 0.0 or v == s:
                continue
            for r in head[v]:
                a = r ^ 1
                f = pushed.get(a) if r & 1 and r < num_arcs else None
                if not f:
                    continue
                d = e if e < f else f
                cap[r] -= d
                cap[a] += d
                pushed[a] = f - d
                second[to[r]] += d
                e -= d
                if e <= 0.0:
                    break
        back = second[s]
        cap[ts_arc ^ 1] -= back
        excess[t] += back

    supplied = [0.0] * len(drain)
    for a in supply:
        supplied[to[a]] = cap[a]
    for v in reversed(order):
        e = excess[v]
        if e <= 0.0:
            continue
        own = supplied[v]
        if own > 0.0:
            d = e if e < own else own
            supplied[v] = own - d
            e -= d
        for r in head[v]:
            if e <= 0.0:
                break
            if not (r & 1 and r < num_arcs):
                continue
            f = cap[r] - pushed.get(r ^ 1, 0.0)
            if f > 0.0:
                d = e if e < f else f
                cap[r] -= d
                cap[r ^ 1] += d
                excess[to[r]] += d
                e -= d
    for a in supply:
        d = supplied[to[a]]
        cap[a] -= d
        cap[a ^ 1] += d
    return placed


def relaxed_min_cut(arena: FlowArena, upper: Sequence[float], s: int,
                    t: int) -> bytearray:
    """Source-side mask of the instance ``arena`` holds, lower bounds
    dropped, solved in place.

    ``arena`` must hold what the last :func:`solve_bounded_arrays` call
    built -- typically an instance it found infeasible -- and ``upper``
    that instance's upper bounds.  Edge arcs (the first ``2 *
    len(upper)``) go back to ``(ub, 0)`` and every dummy arc and the
    ``t -> s`` arc to zero capacity.  Dinic never traverses a
    zero-capacity arc, so the result is bit-identical to a fresh
    ``solve_bounded_arrays`` call with every ``lower`` bound ``0.0``.
    """
    cap = arena.cap
    num_arcs = 2 * len(upper)
    cap[0:num_arcs:2] = upper
    cap[1:num_arcs:2] = [0.0] * len(upper)
    cap[num_arcs:] = [0.0] * (len(cap) - num_arcs)
    arena.max_flow(s, t)
    return arena.level_mask()


def chain_min_cut(
    lower: Sequence[float], upper: Sequence[float], path: Sequence[int],
) -> Optional[Tuple[Optional[bytearray], Optional[Set[int]]]]:
    """Closed-form :func:`solve_bounded_arrays` outcome on a path.

    The instance is a single ``s -> t`` path over nodes ``0 .. m`` (``s
    = 0``, ``t = m``); edge ``path[p]`` of ``lower``/``upper`` runs from
    node ``p`` to node ``p + 1``.  Returns ``(mask, None)`` with the
    source-side mask of the min cut, ``(None, violating)`` with the
    violating set an infeasible solve would raise, or ``None`` when the
    answer sits too close to a float threshold to decide without the
    flow network.

    * **No lower bound above** ``FLOW_EPS``: no dummy arc is built and
      Dinic makes one augmentation of ``U = min(ub - lb)``; the mask is
      nodes ``0 .. p`` for the first ``p`` whose residual ``cap - U``
      (or ``cap``, when ``U <= FLOW_EPS``) is ``<= FLOW_EPS`` -- the
      solver's own float operations, so this case always decides.
    * **Otherwise** a node set ``X`` violates Hoffman's condition by
      ``D(X) = sum(lb into X) - sum(ub out of X)`` (leaving through an
      infinite edge, or ``t`` in ``X`` without ``s``, is barred), and
      the feasibility max flow is ``required - max D``.  ``max lb <=
      min ub`` means ``max D == 0``: the mask is nodes ``0 .. p`` for
      the first edge ``p`` with ``ub == min ub``.  ``max D`` above the
      solver's ``1e-6 * max(1, required)`` tolerance means infeasible:
      the violating set is the nodes every maximiser of ``D`` contains
      (the residual-reachable side of the unique minimal min cut), from
      a forward and a backward max-plus pass over the speed/slow edges.

    When to defer: a ``FLOW_EPS``-thresholded max flow stops once every
    arc crossing its reachable set ``R`` has residual (or reverse flow)
    ``<= FLOW_EPS``, so ``D(R)`` is within ``k * FLOW_EPS`` of ``max D``
    for the ``k <= 2m + 2`` arcs of the path network (``m`` edges, a
    dummy per node, ``t -> s``).  ``margin = 4 (m + 1) FLOW_EPS`` covers
    that twice over.  The answer defers when

    * two distinct values among ``0``, the lower bounds and the finite
      upper bounds are within ``margin`` of each other: a lower bound
      or node excess near zero (a dummy arc dropped or barely kept), an
      ``ub`` near the minimum ``ub`` (the cut's edge in doubt), or a
      piece ``lb_i - ub_j`` near zero -- so every set's ``D`` is then
      exactly 0 or ``margin`` away from it;
    * ``max D`` is positive but not ``margin`` above the tolerance;
    * a node's exclusion gap (``max D`` minus the best ``D`` without
      it) is in ``(0, margin]``.
    """
    eps = FLOW_EPS
    m = len(path)
    lbs = list(map(lower.__getitem__, path))
    ubs = list(map(upper.__getitem__, path))
    top = max(lbs)
    if top <= eps:
        caps = list(map(sub, ubs, lbs)) if top > 0.0 else ubs
        low = min(caps)
        if low == INF:
            return None  # no finite cut: the solver's INF - INF is NaN
        if low <= eps:
            cut = next(p for p, c in enumerate(caps) if c <= eps)
        else:
            cut = caps.index(low)
            # Subtraction is monotone, so checking the smallest earlier
            # capacity tells whether any earlier edge also saturates.
            if cut and min(caps[:cut]) - low <= eps:
                cut = next(p for p, c in enumerate(caps) if c - low <= eps)
        return _prefix_mask(cut, m), None

    margin = 4.0 * (m + 1) * eps
    values = set(lbs)
    values.update(ubs)
    values.discard(INF)
    values.add(0.0)
    values = sorted(values)
    if min(map(sub, values[1:], values[:-1])) <= margin:
        return None
    low = min(ubs)
    if top <= low:
        return _prefix_mask(ubs.index(low), m), None

    # Infeasible side: max-plus passes over the edges that change D --
    # an entry gains ``lb`` (lb > 0), an exit costs ``ub`` (finite).
    # Zero-gain entries are dropped: a piece they open never raises D.
    # Two runs in lockstep: ``a`` with s out of X (so t out), ``b``
    # with s in X.  ``*0``/``*1``: the current node out of / in X.
    act = [p for p in range(m) if lbs[p] > 0.0 or ubs[p] != INF]
    neg = -INF
    a0, a1, b0, b1 = 0.0, neg, neg, 0.0
    fa0, fb0 = [a0], [b0]
    for p in act:
        lb, ub = lbs[p], ubs[p]
        if ub != INF:
            x = a1 - ub
            n_a0 = a0 if a0 >= x else x
            x = b1 - ub
            n_b0 = b0 if b0 >= x else x
        else:
            n_a0, n_b0 = a0, b0
        if lb > 0.0:
            x = a0 + lb
            if x > a1:
                a1 = x
            x = b0 + lb
            if x > b1:
                b1 = x
        a0, b0 = n_a0, n_b0
        fa0.append(a0)
        fb0.append(b0)
    best = a0 if a0 >= b0 else b0
    if b1 > best:
        best = b1
    required = sum(e for e in map(sub, lbs, lbs[1:]) if e > 0.0) + lbs[-1]
    if best <= 1e-6 * max(1.0, required) + margin:
        return None

    # Backward pass, segment by segment (segment k: the nodes between
    # the k-th and (k+1)-th active edge), combined with the forward
    # values there into the best D with the segment out of X.  A gap of
    # exactly 0 means some maximiser leaves the segment out, and so
    # does the minimal one the flow network's residual BFS reaches.
    a0, a1, b0, b1 = 0.0, neg, 0.0, 0.0
    violating: Set[int] = set()
    hi = m + 1
    for k in range(len(act), -1, -1):
        x = fa0[k] + a0
        y = fb0[k] + b0
        out_gap = best - (x if x >= y else y)
        lo = act[k - 1] + 1 if k else 0
        if out_gap > margin:
            violating.update(range(lo, hi))
        elif out_gap > 0.0:
            return None
        hi = lo
        if not k:
            break
        p = act[k - 1]
        lb, ub = lbs[p], ubs[p]
        if lb > 0.0:
            x = a1 + lb
            n_a0 = a0 if a0 >= x else x
            x = b1 + lb
            n_b0 = b0 if b0 >= x else x
        else:
            n_a0, n_b0 = a0, b0
        if ub != INF:
            x = a0 - ub
            if x > a1:
                a1 = x
            x = b0 - ub
            if x > b1:
                b1 = x
        a0, b0 = n_a0, n_b0
    return None, violating


def _prefix_mask(cut: int, m: int) -> bytearray:
    """Mask of nodes ``0 .. cut`` out of ``0 .. m``."""
    return bytearray(b"\x01") * (cut + 1) + bytearray(m - cut)


# -- series-parallel contraction (fast mode) ---------------------------------
#
# The crawl's flow instances are overwhelmingly series-parallel at the
# fringes: chains of dependency edges and single-successor computations,
# plus parallel bundles between the same endpoints.  Both reductions
# preserve the bounded max-flow exactly:
#
# * series (interior node with in-degree == out-degree == 1): flow
#   conservation forces one flow value through both edges, so the pair
#   behaves as one edge with ``lb = max(lb1, lb2)``, ``ub = min(ub1,
#   ub2)``;
# * parallel (same ordered endpoints): any total in the Minkowski sum
#   ``[lb1 + lb2, ub1 + ub2]`` splits across the pair.
#
# Dinic then runs on the contracted core; the recorded composition
# trees expand the contracted cut mask back to original nodes, picking
# the bottleneck child on every crossed series composite (smallest
# ``ub`` forward, largest ``lb`` backward) so the expanded cut has
# exactly the contracted cut's value.

#: Fixpoint sweeps cap; chains collapse in one or two sweeps in
#: practice, the cap only guards pathological inputs.
_SP_MAX_SWEEPS = 64


class SPContraction:
    """A series-parallel-contracted bounded-flow instance.

    ``edge_u``/``edge_v``/``lower``/``upper`` describe the contracted
    instance over ``num_nodes`` renumbered nodes (``s``/``t`` included,
    numbered in their original relative order, so a topologically
    numbered instance contracts to a topologically numbered one);
    :meth:`expand_mask` lifts a contracted source-side mask back onto
    the ``orig_num_nodes`` original nodes.
    """

    __slots__ = ("num_nodes", "edge_u", "edge_v", "lower", "upper",
                 "s", "t", "orig_num_nodes", "_node_of",
                 "_old_u", "_old_v", "_trees")

    def __init__(self, num_nodes, edge_u, edge_v, lower, upper, s, t,
                 orig_num_nodes, node_of, old_u, old_v, trees):
        self.num_nodes = num_nodes
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.lower = lower
        self.upper = upper
        self.s = s
        self.t = t
        self.orig_num_nodes = orig_num_nodes
        self._node_of = node_of
        self._old_u = old_u
        self._old_v = old_v
        self._trees = trees

    def expand_mask(self, mask) -> bytearray:
        """Original-node source-side mask from a contracted-solve mask.

        Surviving nodes copy their contracted side; interior nodes of
        each composition tree are assigned by walking the tree with the
        composite's endpoint sides, cutting every crossed series
        composite at its bottleneck child.
        """
        full = bytearray(self.orig_num_nodes)
        for old, new in self._node_of.items():
            if mask[new]:
                full[old] = 1
        for j, tree in enumerate(self._trees):
            if tree[0] == 0:  # leaf: no interior nodes
                continue
            stack = [(tree, full[self._old_u[j]], full[self._old_v[j]])]
            push = stack.append
            while stack:
                node, a, b = stack.pop()
                kind = node[0]
                if kind == 0:  # leaf
                    continue
                if kind == 2:  # parallel: both children share endpoints
                    push((node[1], a, b))
                    push((node[2], a, b))
                    continue
                _, c1, c2, mid, ub1, ub2, lb1, lb2 = node
                if a == b:
                    side = a
                elif a:  # forward crossing: cut the smaller-ub child
                    side = 0 if ub1 <= ub2 else 1
                else:  # backward crossing: cut the larger-lb child
                    side = 1 if lb1 >= lb2 else 0
                full[mid] = side
                push((c1, a, side))
                push((c2, side, b))
        return full


def contract_series_parallel(
    num_nodes: int,
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    lower: Sequence[float],
    upper: Sequence[float],
    s: int,
    t: int,
) -> Optional[SPContraction]:
    """Contract SP-reducible structure; ``None`` when nothing reduces.

    Series pairs whose composite would be infeasible (``max(lb) >
    min(ub)``) are left uncontracted so the full solver reports the
    exact violating set.  Tree nodes are tuples tagged ``0`` (leaf),
    ``1`` (series: ``(1, c1, c2, mid, ub1, ub2, lb1, lb2)``) and ``2``
    (parallel: ``(2, c1, c2)``).
    """
    m = len(edge_u)
    eu = list(edge_u)
    ev = list(edge_v)
    lb = list(lower)
    ub = list(upper)
    tree = [(0, i) for i in range(m)]
    alive = bytearray([1]) * m
    killed = 0

    for _ in range(_SP_MAX_SWEEPS):
        changed = False

        # Parallel phase: fold same-endpoint edges into the first seen.
        first = {}
        for e in range(m):
            if not alive[e]:
                continue
            key = (eu[e], ev[e])
            k = first.get(key)
            if k is None:
                first[key] = e
            else:
                lb[k] += lb[e]
                ub[k] = ub[k] + ub[e]
                tree[k] = (2, tree[k], tree[e])
                alive[e] = 0
                killed += 1
                changed = True

        # Series phase: fold every *maximal* chain of degree-(1,1)
        # interior nodes in one pass.  Only chain heads (a degree-(1,1)
        # node whose predecessor is not one) start a fold, so each
        # chain is walked exactly once per sweep regardless of node
        # numbering.
        indeg = [0] * num_nodes
        outdeg = [0] * num_nodes
        in_id = [-1] * num_nodes
        out_id = [-1] * num_nodes
        for e in range(m):
            if not alive[e]:
                continue
            u = eu[e]
            v = ev[e]
            outdeg[u] += 1
            out_id[u] = e
            indeg[v] += 1
            in_id[v] = e
        for w in range(num_nodes):
            if w == s or w == t or indeg[w] != 1 or outdeg[w] != 1:
                continue
            u = eu[in_id[w]]
            if (u != s and u != t and indeg[u] == 1 and outdeg[u] == 1):
                continue  # interior of a chain; its head folds it
            e1 = in_id[w]
            wcur = w
            while (wcur != s and wcur != t
                    and indeg[wcur] == 1 and outdeg[wcur] == 1):
                e2 = out_id[wcur]
                if e2 == e1 or not alive[e2]:
                    break
                nlb = lb[e1] if lb[e1] >= lb[e2] else lb[e2]
                nub = ub[e1] if ub[e1] <= ub[e2] else ub[e2]
                if nlb > nub:  # genuinely infeasible pair: leave visible
                    e1 = e2
                    wcur = ev[e2]
                    continue
                tree[e1] = (1, tree[e1], tree[e2], wcur,
                            ub[e1], ub[e2], lb[e1], lb[e2])
                lb[e1] = nlb
                ub[e1] = nub
                ev[e1] = ev[e2]
                alive[e2] = 0
                killed += 1
                indeg[wcur] = outdeg[wcur] = 0
                wcur = ev[e1]
                if in_id[wcur] == e2:
                    in_id[wcur] = e1
                changed = True

        if not changed:
            break

    if killed == 0:
        return None

    kept = [e for e in range(m) if alive[e]]
    survivors = {s, t}
    for e in kept:
        survivors.add(eu[e])
        survivors.add(ev[e])
    node_of = {old: new for new, old in enumerate(sorted(survivors))}
    old_u = [eu[e] for e in kept]
    old_v = [ev[e] for e in kept]
    cu = [node_of[u] for u in old_u]
    cv = [node_of[v] for v in old_v]
    clb = [lb[e] for e in kept]
    cub = [ub[e] for e in kept]
    trees = [tree[e] for e in kept]
    return SPContraction(
        num_nodes=len(node_of),
        edge_u=cu, edge_v=cv, lower=clb, upper=cub,
        s=node_of[s], t=node_of[t],
        orig_num_nodes=num_nodes, node_of=node_of,
        old_u=old_u, old_v=old_v, trees=trees,
    )
