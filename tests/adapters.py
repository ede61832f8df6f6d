"""Dict and edge-list adapters over the production kernel's flat entry points.

Not a test module: the seed references in ``tests/reference/`` speak
``{computation id: duration}`` dicts and :class:`~reference.maxflow.BoundedEdge`
lists, the production kernel parallel arrays.  These adapters let a
test compare the two without a second entry point in ``src/``.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set

from repro.core.costmodel import OpCostModel
from repro.core.frontier import _new_timings
from repro.core.nextschedule import (
    CostTable,
    compiled_kernel,
    next_schedule_flat,
)
from repro.graph.compiled import CompiledDag
from repro.graph.edgecentric import EdgeCentricDag
from repro.graph.lowerbounds import solve_bounded_arrays
from repro.graph.maxflow import FlowArena

from reference.maxflow import BoundedEdge


def durations_array(kern: CompiledDag, durations: Dict[int, float]) -> array:
    """``{comp id: duration}`` as the kernel's flat ``array('d')``."""
    return array("d", (durations[c] for c in range(kern.num_comps)))


def next_durations(
    ecd: EdgeCentricDag,
    durations: Dict[int, float],
    node_cost: Dict[int, OpCostModel],
    tau: float,
) -> Optional[Dict[int, float]]:
    """The exact kernel's next durations, or ``None`` at ``T_min``: one
    step from a fresh arena, cost table and forward pass, as a crawl's
    first step starts."""
    kern = compiled_kernel(ecd, node_cost)
    costs = [node_cost[c] for c in range(kern.num_comps)]
    flat = durations_array(kern, durations)
    earliest, makespan = kern.forward_pass(flat)
    step = next_schedule_flat(
        kern, flat, tau, _new_timings("flat"), arena=FlowArena(),
        start_makespan=makespan, start_earliest=earliest,
        cost_table=CostTable(costs, tau), fast=None,
    )
    return None if step is None else dict(enumerate(step.durations))


def source_side(
    num_nodes: int,
    edges: List[BoundedEdge],
    s: int,
    t: int,
    arena: Optional[FlowArena] = None,
    order: Optional[Sequence[int]] = None,
) -> Set[int]:
    """:func:`~repro.graph.lowerbounds.solve_bounded_arrays`'s min-cut
    source side over ``edges``, as the reference's ``source_side`` set."""
    mask = solve_bounded_arrays(
        num_nodes, [e.u for e in edges], [e.v for e in edges],
        [e.lb for e in edges], [e.ub for e in edges], s, t,
        arena=arena, order=order,
    )
    return {n for n in range(num_nodes) if mask[n]}
