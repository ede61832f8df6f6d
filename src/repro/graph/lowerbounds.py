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
reuse one set of buffers).  :func:`max_flow_with_lower_bounds` is the
object-level wrapper over the same core.  Both replicate the seed's
per-call solve (``tests/reference/maxflow.py``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..exceptions import GraphError, InfeasibleFlowError
from .maxflow import FLOW_EPS, INF, FlowArena


@dataclass(frozen=True)
class BoundedEdge:
    """Directed edge with flow bounds ``lb <= f <= ub``."""

    u: int
    v: int
    lb: float
    ub: float

    def __post_init__(self) -> None:
        if self.lb < 0:
            raise GraphError("lower bound must be non-negative")
        if self.ub < self.lb - FLOW_EPS:
            raise GraphError(f"upper bound {self.ub} below lower bound {self.lb}")


@dataclass
class MinCutResult:
    """Outcome of a bounded min-cut solve."""

    max_flow: float
    flows: List[float]  # per input edge, including the lower bound
    source_side: Set[int]  # residual-reachable nodes (S of the min cut)

    def cut_edges(self, edges: List[BoundedEdge]) -> Tuple[List[int], List[int]]:
        """Indices of forward (S->T) and backward (T->S) cut edges."""
        forward, backward = [], []
        for i, e in enumerate(edges):
            u_in = e.u in self.source_side
            v_in = e.v in self.source_side
            if u_in and not v_in:
                forward.append(i)
            elif v_in and not u_in:
                backward.append(i)
        return forward, backward


def solve_bounded_arrays(
    num_nodes: int,
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    lower: Sequence[float],
    upper: Sequence[float],
    s: int,
    t: int,
    arena: Optional[FlowArena] = None,
    need_flows: bool = True,
) -> Tuple[float, Optional[List[float]], bytearray]:
    """Core bounded max-flow over parallel edge arrays.

    Returns ``(max_flow, per-edge flows, source-side mask)``; the mask
    covers the ``num_nodes + 2`` transformed nodes (the two dummies are
    the last slots).  Raises :class:`InfeasibleFlowError` -- with
    ``violating_set`` populated -- when no feasible flow exists.
    ``arena`` supplies reusable buffers; a private one is created per
    call when omitted (identical results either way).  Callers that only
    read the cut (the optimizer applies the S/T side membership, never
    the per-edge flows) pass ``need_flows=False`` to skip flow
    extraction; ``max_flow`` and ``flows`` are then ``0.0`` / ``None``.
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
    for v in touched:
        ex = excess[v]
        if ex > FLOW_EPS:
            to_append(v)
            cap_append(ex)
            head_s2.append(arc)
            to_append(s2)
            cap_append(0.0)
            head[v].append(arc + 1)
            arc += 2
            required += ex
        elif ex < -FLOW_EPS:
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
        feasibility_flow = net.max_flow(s2, t2)
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
            raise err

    # Remove the circulation arc and augment s -> t on the residual.
    net.zero_arc(ts_arc)
    extra = net.max_flow(s, t)

    mask = net.level_mask()
    if not need_flows:
        return 0.0, None, mask

    # Edge i's arc pair starts at 2*i (edges were appended first).
    flows = [lower[i] + cap[2 * i + 1] for i in range(num_edges)]
    total = sum(flows[i] for i in range(num_edges) if edge_u[i] == s) - sum(
        flows[i] for i in range(num_edges) if edge_v[i] == s
    )
    return max(total, extra), flows, mask


def max_flow_with_lower_bounds(
    num_nodes: int,
    edges: List[BoundedEdge],
    s: int,
    t: int,
    arena: Optional[FlowArena] = None,
) -> MinCutResult:
    """Maximum feasible ``s -> t`` flow under per-edge lower bounds.

    Object-level wrapper over :func:`solve_bounded_arrays`.  Raises
    :class:`InfeasibleFlowError` when no feasible flow exists (the
    paper's Algorithm 3 returns nil in that case).
    """
    flow, flows, mask = solve_bounded_arrays(
        num_nodes,
        [e.u for e in edges],
        [e.v for e in edges],
        [e.lb for e in edges],
        [e.ub for e in edges],
        s,
        t,
        arena=arena,
    )
    source_side = {n for n in range(num_nodes) if mask[n]}
    return MinCutResult(max_flow=flow, flows=flows, source_side=source_side)


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
    instance over ``num_nodes`` renumbered nodes (``s``/``t`` included);
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

    def with_zero_lower(self) -> "SPContraction":
        """The same contraction with every lower bound dropped to zero.

        The optimizer's repair-unavailable fallback re-solves the same
        instance with the slowdown credits removed; the contracted
        structure is unchanged (series keep ``min(ub)``, parallel keep
        ``sum(ub)``, and with all-zero lower bounds the backward
        bottleneck choice is value-free), so the composition trees are
        reused instead of re-contracting.
        """
        return SPContraction(
            num_nodes=self.num_nodes, edge_u=self.edge_u,
            edge_v=self.edge_v, lower=[0.0] * len(self.lower),
            upper=self.upper, s=self.s, t=self.t,
            orig_num_nodes=self.orig_num_nodes, node_of=self._node_of,
            old_u=self._old_u, old_v=self._old_v, trees=self._trees,
        )

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

    node_of: dict = {}
    cu: List[int] = []
    cv: List[int] = []
    clb: List[float] = []
    cub: List[float] = []
    old_u: List[int] = []
    old_v: List[int] = []
    trees: List[tuple] = []
    for e in range(m):
        if not alive[e]:
            continue
        u = eu[e]
        v = ev[e]
        nu = node_of.get(u)
        if nu is None:
            nu = node_of[u] = len(node_of)
        nv = node_of.get(v)
        if nv is None:
            nv = node_of[v] = len(node_of)
        cu.append(nu)
        cv.append(nv)
        clb.append(lb[e])
        cub.append(ub[e])
        old_u.append(u)
        old_v.append(v)
        trees.append(tree[e])
    for endpoint in (s, t):
        if endpoint not in node_of:
            node_of[endpoint] = len(node_of)
    return SPContraction(
        num_nodes=len(node_of),
        edge_u=cu, edge_v=cv, lower=clb, upper=cub,
        s=node_of[s], t=node_of[t],
        orig_num_nodes=num_nodes, node_of=node_of,
        old_u=old_u, old_v=old_v, trees=trees,
    )
