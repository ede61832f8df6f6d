"""Maximum-flow / minimum-cut solver.

:class:`FlowArena` is a reusable scratch network whose
``to``/``cap``/``head`` buffers and Dinic level/iterator arrays persist
across solves, so the optimizer's thousands of min-cut calls per
frontier crawl stop paying network construction from scratch.  Dinic's
level graph lives in a reused buffer and dead ends are gap-pruned
(``level[u] = -1``) instead of re-discovered.  The seed's
object-per-network ``Dinic`` and the paper's Edmonds-Karp live in
``tests/reference/maxflow.py``, where the arena is checked against them
bit for bit.

Capacities are floats (joules); residual comparisons use an absolute
epsilon to keep augmentation terminating under float arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import List

from ..exceptions import GraphError

INF = float("inf")
FLOW_EPS = 1e-9


class FlowArena:
    """Reusable max-flow scratch: network buffers + Dinic state.

    One arena serves an arbitrary sequence of solves: :meth:`reset`
    re-initializes it as an empty network of ``num_nodes`` nodes while
    keeping every underlying buffer (arc lists, per-node adjacency
    lists, Dinic's level/iterator arrays) allocated.  The arc layout,
    traversal order and epsilon handling are exactly those of the seed's
    ``Dinic`` over a fresh ``FlowNetwork``, so a solve through an arena
    is bit-identical to the seed solve.

    Not thread-safe: use one arena per worker.
    """

    def __init__(self) -> None:
        self.num_nodes = 0
        self.to: List[int] = []
        self.cap: List[float] = []
        self.head: List[List[int]] = []
        self._head_pool: List[List[int]] = []
        self._level: List[int] = []
        self._iter: List[int] = []
        # Slice-assignment templates for O(n) C-speed resets.
        self._neg: List[int] = []
        self._zero: List[int] = []

    def reset(self, num_nodes: int) -> "FlowArena":
        """Become an empty network of ``num_nodes`` nodes (buffers kept)."""
        if num_nodes <= 0:
            raise GraphError("network needs at least one node")
        pool = self._head_pool
        while len(pool) < num_nodes:
            pool.append([])
        for i in range(num_nodes):
            del pool[i][:]
        # head aliases the pool's first lists; rebind only on resize (the
        # pool only ever grows, so the prefix view stays valid).
        if len(self.head) != num_nodes:
            self.head = pool[:num_nodes]
        del self.to[:]
        del self.cap[:]
        if len(self._level) < num_nodes:
            grow = num_nodes - len(self._level)
            self._level.extend([-1] * grow)
            self._iter.extend([0] * grow)
            self._neg.extend([-1] * grow)
            self._zero.extend([0] * grow)
        self.num_nodes = num_nodes
        return self

    # -- network construction (arc ``i`` reverses arc ``i ^ 1``) --------------
    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed arc ``u -> v``; returns its arc index."""
        to, cap = self.to, self.cap
        idx = len(to)
        to.append(v)
        cap.append(capacity)
        self.head[u].append(idx)
        to.append(u)
        cap.append(0.0)
        self.head[v].append(idx + 1)
        return idx

    def arc_flow(self, idx: int) -> float:
        """Flow currently pushed through arc ``idx`` (reverse-arc cap)."""
        return self.cap[idx ^ 1]

    def residual(self, idx: int) -> float:
        return self.cap[idx]

    def zero_arc(self, idx: int) -> None:
        """Remove an arc pair from the network (capacity to zero)."""
        self.cap[idx] = 0.0
        self.cap[idx ^ 1] = 0.0

    def reachable_mask(self, s: int) -> bytearray:
        """Residual-reachable nodes from ``s`` as a membership mask."""
        to, cap, head = self.to, self.cap, self.head
        mask = bytearray(self.num_nodes)
        mask[s] = 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in head[u]:
                v = to[idx]
                if not mask[v] and cap[idx] > FLOW_EPS:
                    mask[v] = 1
                    queue.append(v)
        return mask

    # -- Dinic ---------------------------------------------------------------
    def max_flow(self, s: int, t: int) -> float:
        """Dinic's algorithm; identical arc choices to the seed's ``Dinic``.

        One fused loop per level phase: the augmenting path persists
        across pushes and only retreats to the first saturated arc.
        This visits exactly the arcs the reference implementation's
        restart-from-source DFS would (unsaturated prefix arcs keep
        their level and ``it`` pointer, so a restart retraces them), it
        just skips the retrace -- a real saving on deep pipeline DAGs.
        """
        if s == t:
            raise GraphError("source equals sink")
        n = self.num_nodes
        to, cap, head = self.to, self.cap, self.head
        level, it = self._level, self._iter
        eps = FLOW_EPS
        total = 0.0
        while True:
            # BFS level graph, one level at a time (reused buffer,
            # slice-assignment reset).  It stops once the sink's level is
            # complete: an augmenting path climbs one level per arc and
            # ends at t, so the nodes a full BFS labels beyond level[t]
            # are dead ends the DFS would only prune.  The final BFS never
            # reaches t and runs to the end, so level_mask() is unchanged.
            level[:n] = self._neg[:n]
            level[s] = 0
            frontier = [s]
            depth = 0
            while frontier and level[t] < 0:
                depth += 1
                reached = []
                push = reached.append
                for u in frontier:
                    for idx in head[u]:
                        v = to[idx]
                        if level[v] < 0 and cap[idx] > eps:
                            level[v] = depth
                            push(v)
                frontier = reached
            if level[t] < 0:
                return total
            it[:n] = self._zero[:n]
            # Blocking flow: iterative DFS, dead ends gap-pruned via
            # level[u] = -1, path kept alive across augmentations.
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    pushed = INF
                    for idx in path:
                        c = cap[idx]
                        if c < pushed:
                            pushed = c
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    total += pushed
                    k = 0
                    while cap[path[k]] > eps:
                        k += 1
                    u = to[path[k] ^ 1]  # tail of the first saturated arc
                    del path[k:]
                    continue
                arcs = head[u]
                i = it[u]
                na = len(arcs)
                lvl = level[u] + 1
                advanced = False
                while i < na:
                    idx = arcs[i]
                    v = to[idx]
                    if cap[idx] > eps and level[v] == lvl:
                        it[u] = i
                        path.append(idx)
                        u = v
                        advanced = True
                        break
                    i += 1
                if advanced:
                    continue
                it[u] = i
                if u == s:
                    break  # phase exhausted; rebuild levels
                level[u] = -1  # dead end: prune
                u_arc = path.pop()
                u = to[u_arc ^ 1]
                it[u] += 1

    def level_mask(self) -> bytearray:
        """Residual-reachable mask from the last :meth:`max_flow` source.

        Valid immediately after :meth:`max_flow` returns: its final BFS
        (the one that failed to reach the sink) labeled exactly the
        residual-reachable nodes and ran no blocking flow afterwards, so
        no level was pruned.  Equivalent to -- and cheaper than --
        :meth:`reachable_mask` on that source.
        """
        level = self._level
        return bytearray(
            1 if level[i] >= 0 else 0 for i in range(self.num_nodes)
        )


class WarmCutCache:
    """Cross-solve min-cut reuse for the fast crawl (``exactness="fast"``).

    The frontier crawl solves a long run of *nearly identical* flow
    instances: between adjacent partial moves only the capacities of the
    computations the previous cut touched drift (by the second-order
    curvature of ``eta``), while the edge structure is unchanged.  A
    min cut's value is ``sum(ub)`` over forward-crossing edges minus
    ``sum(lb)`` over backward-crossing edges, so when capacities move
    from ``(lb, ub)`` to ``(lb', ub')``:

    * the previous cut's value changes by exactly
      ``delta_prev = sum(dub) - sum(dlb)`` over its own crossings;
    * *any* cut's value changes by at least
      ``floor = sum(min(0, dub_i, -dlb_i))`` (each edge contributes one
      of ``+ub``, ``-lb`` or nothing).

    If ``delta_prev <= floor + slack`` the previous cut is still within
    ``slack`` of minimal -- the solve (and the series-parallel
    contraction feeding it) can be skipped and the stored side mask
    replayed.  With ``slack = 0`` the reuse is provably optimal; the
    fast mode spends a small relative slack (second-order in ``tau``)
    and lets the tolerance validation police the accumulated cost.
    Reuse is always *valid* (the mask still speeds a genuine
    forward-crossing set), only its optimality is slack-bounded.

    Any structural change -- edge list, node count, a capacity flipping
    to/from infinity -- is an automatic miss.
    """

    __slots__ = ("_num_nodes", "_bu", "_bv", "_lb", "_ub", "_mask",
                 "_value", "hits", "misses")

    def __init__(self) -> None:
        self._num_nodes = -1
        self._bu = self._bv = self._lb = self._ub = self._mask = None
        self._value = INF
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        self._num_nodes = -1
        self._mask = None

    def try_reuse(self, num_nodes, edge_u, edge_v, lower, upper,
                  rel_slack: float):
        """Previous side mask if it provably (mod ``rel_slack``) remains
        a min cut for these capacities, else ``None``."""
        mask = self._mask
        if (mask is None or num_nodes != self._num_nodes
                or edge_u != self._bu or edge_v != self._bv):
            self.misses += 1
            return None
        plb, pub = self._lb, self._ub
        delta_prev = 0.0
        floor = 0.0
        for i in range(len(edge_u)):
            nu = upper[i]
            ou = pub[i]
            if nu == ou:
                dub = 0.0
            elif nu == INF or ou == INF:
                self.misses += 1
                return None
            else:
                dub = nu - ou
            dlb = lower[i] - plb[i]
            worst = dub if dub < 0.0 else 0.0
            if -dlb < worst:
                worst = -dlb
            floor += worst
            if mask[edge_u[i]]:
                if not mask[edge_v[i]]:
                    delta_prev += dub
            elif mask[edge_v[i]]:
                delta_prev -= dlb
        slack = rel_slack * max(1.0, abs(self._value))
        if delta_prev <= floor + slack:
            self.hits += 1
            return mask
        self.misses += 1
        return None

    def record(self, num_nodes, edge_u, edge_v, lower, upper, mask) -> None:
        """Remember a freshly solved instance and its cut side mask."""
        value = 0.0
        for i in range(len(edge_u)):
            if mask[edge_u[i]]:
                if not mask[edge_v[i]]:
                    value += upper[i]
            elif mask[edge_v[i]]:
                value -= lower[i]
        if value == INF:  # degenerate cut; never a safe baseline
            self.invalidate()
            return
        self._num_nodes = num_nodes
        self._bu = list(edge_u)
        self._bv = list(edge_v)
        self._lb = list(lower)
        self._ub = list(upper)
        self._mask = [bool(mask[n]) for n in range(num_nodes)]
        self._value = value
