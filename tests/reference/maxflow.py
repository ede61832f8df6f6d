"""Seed max-flow solvers, the reference the production arena must match.

* :class:`Dinic` over :class:`FlowNetwork` -- the original
  object-per-network solver.  :class:`~repro.graph.maxflow.FlowArena`
  replicates its arc layout, visit order and epsilon handling, so both
  produce bit-identical flows (``tests/test_compiled.py``).
* :func:`edmonds_karp` -- the solver named in the paper (§4.3); a slow
  cross-checking reference.
* :func:`max_flow_with_lower_bounds_reference` -- the seed's bounded
  min-cut transform (Algorithm 3), one fresh network per call, over
  :class:`BoundedEdge` lists; it returns a :class:`MinCutResult` with the
  per-edge flows the production solve never extracts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.graph.maxflow import FLOW_EPS, INF


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


class FlowNetwork:
    """Residual network: arcs stored in pairs (arc ``i`` reverses ``i^1``)."""

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise GraphError("network needs at least one node")
        self.num_nodes = num_nodes
        self.head: List[List[int]] = [[] for _ in range(num_nodes)]
        self.to: List[int] = []
        self.cap: List[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed arc ``u -> v``; returns its arc index."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise GraphError(f"arc ({u}, {v}) out of range")
        if capacity < 0:
            raise GraphError("capacity must be non-negative")
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0.0)
        self.head[v].append(idx + 1)
        return idx

    def arc_flow(self, idx: int) -> float:
        """Flow currently pushed through arc ``idx``.

        The reverse arc starts at zero capacity and accumulates exactly
        the pushed flow, which stays finite even for infinite-capacity
        arcs.
        """
        return self.cap[idx ^ 1]

    def residual(self, idx: int) -> float:
        return self.cap[idx]

    def zero_arc(self, idx: int) -> None:
        """Remove an arc pair from the network (capacity to zero)."""
        self.cap[idx] = 0.0
        self.cap[idx ^ 1] = 0.0

    def reachable_from(self, s: int) -> Set[int]:
        """Nodes reachable from ``s`` in the residual graph (the S cut side)."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if v not in seen and self.cap[idx] > FLOW_EPS:
                    seen.add(v)
                    queue.append(v)
        return seen


class Dinic:
    """Dinic's algorithm over a :class:`FlowNetwork` (reference form)."""

    def __init__(self, network: FlowNetwork):
        self.net = network

    def max_flow(self, s: int, t: int) -> float:
        if s == t:
            raise GraphError("source equals sink")
        net = self.net
        total = 0.0
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return total
            it = [0] * net.num_nodes
            while True:
                pushed = self._dfs(s, t, INF, level, it)
                if pushed <= FLOW_EPS:
                    break
                total += pushed

    def _bfs_levels(self, s: int, t: int) -> List[int]:
        net = self.net
        level = [-1] * net.num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in net.head[u]:
                v = net.to[idx]
                if level[v] < 0 and net.cap[idx] > FLOW_EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs(self, s: int, t: int, limit: float, level: List[int], it: List[int]) -> float:
        # Iterative DFS with an explicit stack (pipeline DAGs can be deep).
        net = self.net
        path: List[int] = []  # arc indices taken
        u = s
        while True:
            if u == t:
                pushed = limit if limit is not INF else INF
                for idx in path:
                    pushed = min(pushed, net.cap[idx])
                for idx in path:
                    net.cap[idx] -= pushed
                    net.cap[idx ^ 1] += pushed
                return pushed
            advanced = False
            while it[u] < len(net.head[u]):
                idx = net.head[u][it[u]]
                v = net.to[idx]
                if net.cap[idx] > FLOW_EPS and level[v] == level[u] + 1:
                    path.append(idx)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return 0.0
            level[u] = -1  # dead end: prune
            u_arc = path.pop()
            u = net.to[u_arc ^ 1]
            it[u] += 1


def edmonds_karp(network: FlowNetwork, s: int, t: int) -> float:
    """BFS-augmenting-path max flow; the paper's reference solver."""
    if s == t:
        raise GraphError("source equals sink")
    total = 0.0
    while True:
        parent_arc = [-1] * network.num_nodes
        parent_arc[s] = -2
        queue = deque([s])
        while queue and parent_arc[t] == -1:
            u = queue.popleft()
            for idx in network.head[u]:
                v = network.to[idx]
                if parent_arc[v] == -1 and network.cap[idx] > FLOW_EPS:
                    parent_arc[v] = idx
                    queue.append(v)
        if parent_arc[t] == -1:
            return total
        bottleneck = INF
        v = t
        while v != s:
            idx = parent_arc[v]
            bottleneck = min(bottleneck, network.cap[idx])
            v = network.to[idx ^ 1]
        v = t
        while v != s:
            idx = parent_arc[v]
            network.cap[idx] -= bottleneck
            network.cap[idx ^ 1] += bottleneck
            v = network.to[idx ^ 1]
        total += bottleneck


def max_flow_with_lower_bounds_reference(
    num_nodes: int, edges: List[BoundedEdge], s: int, t: int
) -> MinCutResult:
    """The seed implementation, verbatim: object-per-call solve.

    Builds a fresh :class:`FlowNetwork` and runs the reference
    :class:`Dinic` -- no arenas, no buffer reuse.  This is the solver the
    seed oracle runs, so the oracle remains the untouched seed algorithm
    end to end; it doubles as the cross-check that
    :func:`~repro.graph.lowerbounds.solve_bounded_arrays` is
    bit-identical (``tests/test_compiled.py``).
    """
    if not (0 <= s < num_nodes and 0 <= t < num_nodes) or s == t:
        raise GraphError("bad source/sink")

    s2, t2 = num_nodes, num_nodes + 1
    net = FlowNetwork(num_nodes + 2)

    # Reduced-capacity arcs for the original edges.
    arc_of_edge: List[int] = []
    excess: dict = {}
    for e in edges:
        arc_of_edge.append(net.add_edge(e.u, e.v, e.ub - e.lb))
        excess[e.v] = excess.get(e.v, 0.0) + e.lb
        excess[e.u] = excess.get(e.u, 0.0) - e.lb

    # Dummy arcs forcing the lower bounds (node-excess formulation,
    # equivalent to Algorithm 3's per-node sums).
    required = 0.0
    for v, ex in excess.items():
        if ex > FLOW_EPS:
            net.add_edge(s2, v, ex)
            required += ex
        elif ex < -FLOW_EPS:
            net.add_edge(v, t2, -ex)

    # Allow circulation through the original source/sink.
    ts_arc = net.add_edge(t, s, INF)

    solver = Dinic(net)
    feasibility_flow = solver.max_flow(s2, t2)
    if feasibility_flow < required - 1e-6 * max(1.0, required):
        violating = net.reachable_from(s2)
        violating.discard(s2)
        violating.discard(t2)
        err = InfeasibleFlowError(
            f"no feasible flow: pushed {feasibility_flow:.6g} of {required:.6g}"
        )
        err.violating_set = violating
        raise err

    # Remove the circulation arc and augment s -> t on the residual.
    net.zero_arc(ts_arc)
    extra = solver.max_flow(s, t)

    flows = []
    for e, arc in zip(edges, arc_of_edge):
        flows.append(e.lb + net.arc_flow(arc))

    source_side = net.reachable_from(s)
    source_side.discard(s2)
    source_side.discard(t2)
    total = sum(f for e, f in zip(edges, flows) if e.u == s) - sum(
        f for e, f in zip(edges, flows) if e.v == s
    )
    return MinCutResult(max_flow=max(total, extra), flows=flows, source_side=source_side)
