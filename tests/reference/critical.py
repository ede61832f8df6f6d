"""Seed critical-path analysis on edge-centric DAGs (§4.3, Figure 6 step 3).

The dict-of-float event-time passes the seed optimizer ran, kept as the
reference :class:`~repro.graph.compiled.CompiledDag` is checked against.
Annotates each event node with earliest/latest event times under a duration
assignment and extracts the *Critical DAG*: the subgraph of edges with zero
slack, i.e. edges lying on at least one critical (longest) path.  Only
these edges can change the iteration time, so the min-cut step operates on
this subgraph alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.edgecentric import ECEdge, EdgeCentricDag
from repro.units import TIME_EPS


@dataclass
class EventTimes:
    """Earliest/latest event times of every node; ``makespan`` = es[t]."""

    earliest: Dict[int, float]
    latest: Dict[int, float]
    makespan: float

    def slack(self, edge: ECEdge, duration: float) -> float:
        """Scheduling slack of one edge (0 for critical edges)."""
        return self.latest[edge.v] - self.earliest[edge.u] - duration


def edge_duration(edge: ECEdge, durations: Dict[int, float]) -> float:
    """Duration carried by an edge (0 for dependency edges)."""
    return 0.0 if edge.comp is None else durations[edge.comp]


def event_times(
    ecd: EdgeCentricDag, durations: Dict[int, float]
) -> EventTimes:
    """Longest-path earliest times and symmetric latest times.

    ``earliest[n]`` is the longest s->n path; ``latest[n]`` is
    ``makespan - (longest n->t path)``.  A node is on a critical path iff
    ``earliest == latest``.
    """
    order = ecd.topological_nodes()
    earliest = {n: 0.0 for n in range(ecd.num_nodes)}
    for u in order:
        for idx in ecd.out_edges[u]:
            e = ecd.edges[idx]
            cand = earliest[u] + edge_duration(e, durations)
            if cand > earliest[e.v]:
                earliest[e.v] = cand
    makespan = earliest[ecd.t]

    latest = {n: makespan for n in range(ecd.num_nodes)}
    for v in reversed(order):
        for idx in ecd.in_edges[v]:
            e = ecd.edges[idx]
            cand = latest[v] - edge_duration(e, durations)
            if cand < latest[e.u]:
                latest[e.u] = cand
    return EventTimes(earliest=earliest, latest=latest, makespan=makespan)


def critical_edge_indices(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    times: Optional[EventTimes] = None,
    eps: float = TIME_EPS,
) -> List[int]:
    """Indices of edges with zero slack (on some critical path)."""
    if times is None:
        times = event_times(ecd, durations)
    critical = []
    for idx, e in enumerate(ecd.edges):
        if times.slack(e, edge_duration(e, durations)) <= eps:
            critical.append(idx)
    return critical


def critical_subgraph(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    eps: float = TIME_EPS,
) -> Tuple[List[int], Set[int], EventTimes]:
    """Critical edge indices + the node set they touch (incl. s and t)."""
    times = event_times(ecd, durations)
    crit = critical_edge_indices(ecd, durations, times, eps)
    nodes: Set[int] = {ecd.s, ecd.t}
    for idx in crit:
        nodes.add(ecd.edges[idx].u)
        nodes.add(ecd.edges[idx].v)
    return crit, nodes, times


def critical_computations(
    ecd: EdgeCentricDag, durations: Dict[int, float], eps: float = TIME_EPS
) -> Set[int]:
    """Computation ids whose activity edge is critical."""
    crit = critical_edge_indices(ecd, durations, eps=eps)
    return {
        ecd.edges[idx].comp for idx in crit if ecd.edges[idx].comp is not None
    }


def as_event_times(flat) -> EventTimes:
    """The dict-of-float view of a :class:`~repro.graph.compiled.FlatTimes`."""
    return EventTimes(
        earliest=dict(enumerate(flat.earliest)),
        latest=dict(enumerate(flat.latest)),
        makespan=flat.makespan,
    )
