"""Provable optimality bounds from exhaustive small-DAG enumeration.

The frontier crawl (exact or fast) is a heuristic search over a
continuous space; this module answers "how far from optimal can it
be?" with a *certificate* rather than another heuristic.  For DAGs
small enough to enumerate, :func:`oracle_bound` tries every duration
assignment from a per-computation candidate ladder, records the Pareto
staircase of (makespan, total effective energy) over all assignments,
and converts it into a provable lower bound on the continuous optimum:

* ``mode="grid"`` discretizes each flexible computation's feasible
  range ``[t_min, t_max]`` into ``grid_points`` evenly spaced
  durations.  Any continuous schedule meeting a deadline ``T`` can be
  *snapped down* cell-by-cell (each duration moved to the grid point
  just below it): the makespan can only shrink, so the snapped
  schedule still meets ``T``, and because effective energy ``eta`` is
  non-increasing on ``[t_min, t_max]`` (§5) each snap raises the total
  by at most that computation's largest single-cell eta drop.  Hence

      continuous_opt(T) >= enumerated_min(T) - sum_i max_cell_drop_i

  and the subtrahend is :attr:`OracleBound.slack`.

* ``mode="ladder"`` enumerates the *profiled* Pareto clock ladder
  instead -- the schedules a real GPU can actually realize.  The
  result is the exact discrete optimum (``slack == 0``): a floor for
  any planner restricted to realizable clocks, and the reference the
  hot-path benchmark's oracle-gap column cites.

Enumeration cost is the product of per-computation candidate counts,
guarded by ``max_assignments``; in practice this limits the oracle to
single-microbatch pipelines of a few stages, which is exactly the
regime the tolerance tests use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

from repro.core.costmodel import build_cost_models
from repro.exceptions import ConfigurationError, OptimizationError
from repro.pipeline.dag import SOURCE, ComputationDag
from repro.profiler.measurement import PipelineProfile
from repro.units import TIME_EPS

#: Default per-computation grid resolution (``mode="grid"``).
DEFAULT_GRID_POINTS = 6

#: Refuse to enumerate more than this many complete assignments.
DEFAULT_MAX_ASSIGNMENTS = 200_000

__all__ = [
    "OracleBound",
    "oracle_bound",
    "optimality_gap",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_MAX_ASSIGNMENTS",
]


@dataclass(frozen=True)
class OracleBound:
    """The enumerated staircase plus its provable slack.

    ``times`` ascend; ``energies[i]`` is the minimum enumerated total
    effective energy over every assignment whose makespan is at most
    ``times[i]`` (a non-increasing prefix minimum).
    """

    times: Tuple[float, ...]
    energies: Tuple[float, ...]
    #: Sum over flexible computations of the largest single-cell eta
    #: drop -- the snap-down certificate.  Zero in ladder mode.
    slack: float
    mode: str
    assignments: int

    def lower_bound(self, target_time: Optional[float] = None) -> float:
        """Provable floor on total effective energy at a deadline.

        ``None`` asks about the fastest enumerated makespan (the
        ``T_min`` endpoint).  A deadline faster than every enumerated
        assignment is infeasible and returns ``+inf``.
        """
        if target_time is None:
            idx = 0
        else:
            idx = bisect_right(self.times, target_time + TIME_EPS) - 1
            if idx < 0:
                return float("inf")
        return self.energies[idx] - self.slack

    @property
    def t_min(self) -> float:
        """Fastest enumerated makespan."""
        return self.times[0]

    @property
    def t_star(self) -> float:
        """Slowest makespan on the staircase (minimum-energy end)."""
        return self.times[-1]


def _candidates(model, grid_points: int, mode: str):
    """(durations, etas) candidate ladder of one computation."""
    if model.fixed or model.t_max - model.t_min <= TIME_EPS:
        return [model.t_min], [model.eta(model.t_min)]
    if mode == "ladder":
        durations = sorted({m.time_s for m in model.profile.pareto()})
    else:
        span = model.t_max - model.t_min
        step = span / (grid_points - 1)
        durations = [model.t_min + step * i for i in range(grid_points - 1)]
        durations.append(model.t_max)  # exact endpoint, no rounding drift
    return durations, [model.eta(t) for t in durations]


def oracle_bound(
    dag: ComputationDag,
    profile: PipelineProfile,
    grid_points: int = DEFAULT_GRID_POINTS,
    mode: str = "grid",
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> OracleBound:
    """Exhaustively enumerate a small DAG's duration assignments.

    Raises :class:`~repro.exceptions.ConfigurationError` when the
    assignment count would exceed ``max_assignments`` -- the oracle is
    a certificate device for small pipelines, not a planner.
    """
    if mode not in ("grid", "ladder"):
        raise ConfigurationError(
            f"oracle mode must be 'grid' or 'ladder', got {mode!r}"
        )
    if mode == "grid" and grid_points < 2:
        raise ConfigurationError(
            f"grid mode needs at least 2 grid points, got {grid_points}"
        )
    cost_models = build_cost_models(profile)
    nodes = sorted(dag.nodes)
    ladders: List[List[float]] = []
    etas: List[List[float]] = []
    slack = 0.0
    count = 1
    for node in nodes:
        op = dag.nodes[node].op_key
        if op not in cost_models:
            raise OptimizationError(f"profile missing op {op}")
        durations, node_etas = _candidates(cost_models[op], grid_points,
                                           mode)
        ladders.append(durations)
        etas.append(node_etas)
        count *= len(durations)
        if count > max_assignments:
            raise ConfigurationError(
                f"oracle enumeration needs more than {max_assignments} "
                f"assignments; shrink the DAG or the ladder"
            )
        if mode == "grid" and len(node_etas) > 1:
            # eta is non-increasing in duration; the worst single snap
            # is the largest drop across one cell (clamped at 0 so a
            # non-monotone fit can only loosen the bound, not break it).
            slack += max(
                max(node_etas[i] - node_etas[i + 1], 0.0)
                for i in range(len(node_etas) - 1)
            )

    # Dense forward-pass scaffolding: real predecessors per node, in
    # topological order (SOURCE contributes start time 0).
    index = {node: i for i, node in enumerate(nodes)}
    topo = [n for n in dag.topological_order() if n in index]
    order = [index[n] for n in topo]
    preds = [
        [index[p] for p in dag.pred[n] if p != SOURCE] for n in topo
    ]

    points: List[Tuple[float, float]] = []
    finish = [0.0] * len(nodes)
    for combo in product(*(range(len(l)) for l in ladders)):
        energy = 0.0
        makespan = 0.0
        for pos, i in enumerate(order):
            start = 0.0
            for p in preds[pos]:
                if finish[p] > start:
                    start = finish[p]
            t = start + ladders[i][combo[i]]
            finish[i] = t
            if t > makespan:
                makespan = t
            energy += etas[i][combo[i]]
        points.append((makespan, energy))

    points.sort()
    times: List[float] = []
    energies: List[float] = []
    best = float("inf")
    for makespan, energy in points:
        if energy >= best:
            continue
        best = energy
        if times and makespan - times[-1] <= TIME_EPS:
            energies[-1] = energy
        else:
            times.append(makespan)
            energies.append(energy)
    return OracleBound(
        times=tuple(times),
        energies=tuple(energies),
        slack=slack,
        mode=mode,
        assignments=count,
    )


def optimality_gap(frontier, bound: OracleBound) -> float:
    """Worst relative overshoot of a frontier above the oracle floor.

    For every frontier point, compares its total effective energy
    against ``bound.lower_bound(point time)`` and returns the largest
    ``(point - floor) / |floor|`` (clamped at zero).  Zero means every
    point is provably optimal to within the bound's slack.  Points
    *below* the floor indicate a bound violation; the tolerance tests
    assert per-point ``effective_energy >= lower_bound`` directly
    rather than through this summary.
    """
    worst = 0.0
    for point in frontier.points:
        floor = bound.lower_bound(point.iteration_time)
        if floor == float("inf"):
            continue  # deadline below the oracle's fastest assignment
        gap = (point.effective_energy - floor) / max(abs(floor), 1e-9)
        if gap > worst:
            worst = gap
    return worst
