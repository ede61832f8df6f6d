"""Flat-array Critical-DAG kernel (the optimizer's compiled hot path).

:func:`~repro.core.frontier.characterize_frontier` spends almost all of
its time in two inner loops: longest-path event times over the
edge-centric DAG (recomputed a few times per Algorithm-2 step) and the
min-cut solves.  The seed's dict-of-float event passes (kept as the
reference in ``tests/reference/critical.py``) re-derive the topological
order on *every* call and pay a hash lookup per edge endpoint; on a few
thousand steps that interpreter overhead dominates the crawl.

:class:`CompiledDag` compiles an :class:`~.edgecentric.EdgeCentricDag`
once into immutable flat arrays:

* ``edge_u`` / ``edge_v`` / ``edge_comp`` -- the edge list in original
  index order (``edge_comp`` is ``-1`` for dependency edges), so the
  critical-edge indices it produces are directly comparable with the
  reference ``critical_edge_indices``;
* ``topo`` and ``pos`` -- a topological node order and each node's
  position in it;
* two edge permutations -- edges sorted by the topological position of
  their tail (forward relaxation) and, reversed, of their head
  (backward relaxation) -- so an event pass is a single flat loop with
  no adjacency-dict walking and no per-call topological sort;
* per-computation ``t_min`` / ``t_max`` vectors (when built with the
  cost models), the clamp bounds of Algorithm 2's duration moves.

:meth:`CompiledDag.critical_pass` fuses the backward pass and
critical-edge extraction over :meth:`CompiledDag.forward_pass`'s
earliest times, replacing the reference ``event_times`` +
``critical_edge_indices`` pair.  When numpy is
importable and the DAG is large enough (:data:`NUMPY_MIN_EDGES`), the
extraction runs vectorized (numpy is imported on that first use, not
with this module); the relaxations stay scalar because
pipeline DAGs are deep and narrow (level widths of a handful of edges),
where per-level numpy dispatch costs more than the loop it replaces.

Bit-identity with the dict path is a hard invariant (the seed oracle
in ``tests/reference/`` checks it): every float here is produced by the
same operations on the same values -- ``max``/``min`` are
order-independent for totally ordered floats, ``x + 0.0 == x`` for the
non-negative times involved, and the fused/vectorized slack is the same
``(latest[v] - earliest[u]) - dur`` expression -- so frontiers from
either path compare equal bit for bit.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..units import TIME_EPS
from .edgecentric import EdgeCentricDag

#: Edge count above which critical extraction uses numpy (when
#: available).  Below it, numpy's per-call dispatch overhead loses to
#: the plain loop.
NUMPY_MIN_EDGES = 2048


@lru_cache(maxsize=None)
def _numpy():
    """numpy, imported by the first extraction above
    :data:`NUMPY_MIN_EDGES` (a plan on a smaller DAG never loads it);
    ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free installs
        return None
    return numpy


class FlatTimes:
    """Event times of one :meth:`CompiledDag.critical_pass` (flat form).

    ``earliest``/``latest`` are lists indexed by edge-centric node id;
    ``critical`` is the ascending list of zero-slack edge indices (same
    indices as :attr:`CompiledDag.edge_u` and ``EdgeCentricDag.edges``).
    """

    __slots__ = ("earliest", "latest", "makespan", "critical")

    def __init__(self, earliest, latest, makespan, critical):
        self.earliest = earliest
        self.latest = latest
        self.makespan = makespan
        self.critical = critical


class CompiledDag:
    """Immutable flat-array form of an edge-centric DAG.

    Build once per frontier characterization via
    :meth:`from_edge_centric`; every event/critical pass then runs on
    preallocated flat arrays keyed by dense ids.  Durations are passed
    as any sequence indexed by computation id (``array('d')`` in the
    optimizer hot path).
    """

    __slots__ = (
        "num_nodes", "num_edges", "num_comps", "s", "t",
        "edge_u", "edge_v", "edge_comp",
        "topo", "t_min", "t_max",
        "_eu", "_ev", "_ec",
        "_fu", "_fv", "_fc",
        "_bu", "_bv", "_bc", "_bidx",
        "_np_eu", "_np_ev", "_np_ec",
        "pos", "_ie", "_istart", "_comp_min_head",
    )

    def __init__(self, ecd: EdgeCentricDag,
                 t_min: Optional[Sequence[float]] = None,
                 t_max: Optional[Sequence[float]] = None) -> None:
        self.num_nodes = ecd.num_nodes
        self.num_edges = len(ecd.edges)
        self.s = ecd.s
        self.t = ecd.t

        eu = [e.u for e in ecd.edges]
        ev = [e.v for e in ecd.edges]
        ec = [-1 if e.comp is None else e.comp for e in ecd.edges]
        self.num_comps = max((c for c in ec if c >= 0), default=-1) + 1
        # Dependency edges index the 0.0 slot appended to each per-pass
        # duration vector (comp ids are dense, so slot num_comps is free).
        zero_slot = self.num_comps
        ec_dense = [zero_slot if c < 0 else c for c in ec]

        self.edge_u = array("l", eu)
        self.edge_v = array("l", ev)
        self.edge_comp = array("l", ec)
        self.topo = array("l", ecd.topological_nodes())

        pos = [0] * self.num_nodes
        for i, n in enumerate(self.topo):
            pos[n] = i
        fwd = sorted(range(self.num_edges), key=lambda k: pos[eu[k]])
        bwd = sorted(range(self.num_edges), key=lambda k: pos[ev[k]],
                     reverse=True)

        # Hot-loop views: plain lists (no int boxing on access), edges
        # pre-permuted so each pass is one zip() scan.
        self._eu, self._ev, self._ec = eu, ev, ec_dense
        self._fu = [eu[k] for k in fwd]
        self._fv = [ev[k] for k in fwd]
        self._fc = [ec_dense[k] for k in fwd]
        self._bu = [eu[k] for k in bwd]
        self._bv = [ev[k] for k in bwd]
        self._bc = [ec_dense[k] for k in bwd]
        self._bidx = list(bwd)  # original edge index per backward slot
        self._np_eu = self._np_ev = self._np_ec = None
        # Incremental-pass structures are built lazily by
        # _ensure_incremental, on the first incremental pass.
        self.pos = pos
        self._ie = None
        self._istart = None
        self._comp_min_head = None

        self.t_min = None if t_min is None else array("d", t_min)
        self.t_max = None if t_max is None else array("d", t_max)

    @classmethod
    def from_edge_centric(
        cls,
        ecd: EdgeCentricDag,
        node_cost: Optional[Dict[int, object]] = None,
    ) -> "CompiledDag":
        """Compile ``ecd``; ``node_cost`` bakes the per-comp duration
        bounds (``OpCostModel.t_min``/``t_max``) into flat vectors."""
        t_min = t_max = None
        if node_cost is not None:
            comps = sorted(node_cost)
            t_min = [node_cost[c].t_min for c in comps]
            t_max = [node_cost[c].t_max for c in comps]
        return cls(ecd, t_min=t_min, t_max=t_max)

    # -- passes --------------------------------------------------------------
    def _extended(self, durations: Sequence[float]) -> List[float]:
        """Durations with the trailing 0.0 slot dependency edges index."""
        d = list(durations)
        if len(d) != self.num_comps:
            raise ValueError(
                f"expected {self.num_comps} durations, got {len(d)}"
            )
        d.append(0.0)
        return d

    def forward_pass(
        self, durations: Sequence[float]
    ) -> Tuple[List[float], float]:
        """Earliest event times + makespan (forward relaxation only).

        The returned list is what :meth:`critical_pass` takes as
        ``forward=`` for the *same* durations.
        """
        d = self._extended(durations)
        ear = [0.0] * self.num_nodes
        for u, v, c in zip(self._fu, self._fv, self._fc):
            cand = ear[u] + d[c]
            if cand > ear[v]:
                ear[v] = cand
        return ear, ear[self.t]

    def critical_pass(
        self,
        durations: Sequence[float],
        forward: List[float],
    ) -> FlatTimes:
        """Fused event times + zero-slack (within ``TIME_EPS``) edge
        extraction.

        ``forward`` is the earliest-times list :meth:`forward_pass`
        computed for these exact durations (the optimizer threads it
        across step boundaries).
        """
        d = self._extended(durations)
        ear = forward
        makespan = ear[self.t]

        lat = [makespan] * self.num_nodes
        if self.num_edges >= NUMPY_MIN_EDGES and _numpy() is not None:
            for u, v, c in zip(self._bu, self._bv, self._bc):
                cand = lat[v] - d[c]
                if cand < lat[u]:
                    lat[u] = cand
            critical = self._extract_critical_np(ear, lat, d)
            return FlatTimes(ear, lat, makespan, critical)

        # Fused backward relaxation + critical extraction: when edge
        # (u, v) is relaxed (descending topological position of v),
        # lat[v] is already final, so its slack is computable in place.
        # Collected indices are sorted back to ascending edge order --
        # the order the oracle's extraction loop emits.
        eps = TIME_EPS
        critical = []
        append = critical.append
        for u, v, c, idx in zip(self._bu, self._bv, self._bc, self._bidx):
            dc = d[c]
            lat_v = lat[v]
            cand = lat_v - dc
            if cand < lat[u]:
                lat[u] = cand
            if lat_v - ear[u] - dc <= eps:
                append(idx)
        critical.sort()
        return FlatTimes(ear, lat, makespan, critical)

    # -- incremental forward pass --------------------------------------------
    def _ensure_incremental(self) -> None:
        """Build the head-sorted edge permutation used by
        :meth:`forward_pass_incremental` (lazily, on first use).

        ``_ie`` holds ``(u, v, comp)`` triples sorted by ascending
        topological position of the *head*; ``_istart[p]`` is the first
        slot whose head sits at topological position >= ``p``, so the
        edges that can influence nodes at positions ``>= p`` form
        exactly the suffix ``_ie[_istart[p]:]``.  ``_comp_min_head[c]``
        is the smallest head position among edges of computation ``c``:
        changing only that computation's duration leaves every node
        strictly before it untouched.
        """
        if self._ie is not None:
            return
        pos = self.pos
        eu, ev, ec = self._eu, self._ev, self._ec
        order = sorted(range(self.num_edges), key=lambda k: pos[ev[k]])
        self._ie = [(eu[k], ev[k], ec[k]) for k in order]
        istart = [self.num_edges] * (self.num_nodes + 1)
        for slot in range(self.num_edges - 1, -1, -1):
            istart[pos[ev[order[slot]]]] = slot
        for p in range(self.num_nodes - 1, -1, -1):
            if istart[p] > istart[p + 1]:
                istart[p] = istart[p + 1]
        self._istart = istart
        min_head = [self.num_nodes] * (self.num_comps + 1)
        for k in range(self.num_edges):
            c = self._ec[k]
            p = pos[ev[k]]
            if p < min_head[c]:
                min_head[c] = p
        self._comp_min_head = min_head

    def min_affected_pos(self, comps) -> int:
        """Smallest topological position whose earliest time can change
        when only ``comps``' durations change (``num_nodes`` if none)."""
        self._ensure_incremental()
        min_head = self._comp_min_head
        best = self.num_nodes
        for c in comps:
            p = min_head[c]
            if p < best:
                best = p
        return best

    def forward_pass_incremental(
        self,
        durations: Sequence[float],
        prev_earliest: Sequence[float],
        from_pos: int,
    ) -> Tuple[List[float], float, int]:
        """Earliest times recomputed only for topological positions
        ``>= from_pos``; positions before it are copied from
        ``prev_earliest`` (which must match ``durations`` on every
        computation feeding them).

        Returns ``(earliest, makespan, nodes_recomputed)``.  The result
        is bit-identical to :meth:`forward_pass`: every recomputed node
        takes the max over the same candidate set, and every candidate
        ``ear[u] + d[c]`` is built from tail values that are either
        recomputed earlier in the suffix or verbatim prefix copies.
        """
        self._ensure_incremental()
        n = self.num_nodes
        if from_pos <= 0:
            ear, makespan = self.forward_pass(durations)
            return ear, makespan, n
        d = self._extended(durations)
        ear = list(prev_earliest)
        for node in self.topo[from_pos:]:
            ear[node] = 0.0
        for u, v, c in self._ie[self._istart[from_pos]:]:
            cand = ear[u] + d[c]
            if cand > ear[v]:
                ear[v] = cand
        return ear, ear[self.t], n - from_pos

    def _extract_critical_np(self, ear, lat, d) -> List[int]:
        _np = _numpy()
        if self._np_eu is None:
            self._np_eu = _np.array(self._eu, dtype=_np.intp)
            self._np_ev = _np.array(self._ev, dtype=_np.intp)
            self._np_ec = _np.array(self._ec, dtype=_np.intp)
        earr = _np.asarray(ear)
        larr = _np.asarray(lat)
        darr = _np.asarray(d)
        slack = larr[self._np_ev] - earr[self._np_eu] - darr[self._np_ec]
        return _np.nonzero(slack <= TIME_EPS)[0].tolist()
