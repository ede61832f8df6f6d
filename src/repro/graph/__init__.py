"""Graph algorithms: edge-centric DAGs, event passes, bounded min-cut."""

from .compiled import CompiledDag, FlatTimes
from .edgecentric import ECEdge, EdgeCentricDag, to_edge_centric
from .lowerbounds import (
    BoundedEdge,
    MinCutResult,
    max_flow_with_lower_bounds,
    solve_bounded_arrays,
)
from .maxflow import FLOW_EPS, INF, FlowArena

__all__ = [
    "BoundedEdge",
    "CompiledDag",
    "ECEdge",
    "EdgeCentricDag",
    "FLOW_EPS",
    "FlatTimes",
    "FlowArena",
    "INF",
    "MinCutResult",
    "max_flow_with_lower_bounds",
    "solve_bounded_arrays",
    "to_edge_centric",
]
