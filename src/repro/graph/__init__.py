"""Graph algorithms: edge-centric DAGs, event passes, bounded min-cut."""

from .compiled import CompiledDag, FlatTimes
from .edgecentric import ECEdge, EdgeCentricDag, to_edge_centric
from .lowerbounds import solve_bounded_arrays
from .maxflow import FLOW_EPS, INF, FlowArena

__all__ = [
    "CompiledDag",
    "ECEdge",
    "EdgeCentricDag",
    "FLOW_EPS",
    "FlatTimes",
    "FlowArena",
    "INF",
    "solve_bounded_arrays",
    "to_edge_centric",
]
