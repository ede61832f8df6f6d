#!/usr/bin/env python
"""Frontier exploration: Perseus vs Zeus baselines (the Figure 9 study).

Characterizes the GPT-3 2.7B / eight-stage / A40 frontier and scans the
two Zeus-derived baselines over the same configuration, printing the
time-energy curves as aligned series plus an ASCII scatter -- who wins
where, and why ZeusPerStage cannot reach the fast end.

Run:  python examples/frontier_exploration.py
"""

from repro.api import PlanSpec, default_planner
from repro.baselines import zeus_global_frontier, zeus_per_stage_frontier
from repro.sim import execute_frequency_plan


def ascii_scatter(series, width=78, height=20):
    """Plot {label: [(x, y), ...]} as a character grid."""
    pts = [(x, y, label[0]) for label, xs in series.items() for x, y in xs]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for x, y, ch in pts:
        col = int((x - x0) / (x1 - x0 + 1e-12) * (width - 1))
        row = int((y1 - y) / (y1 - y0 + 1e-12) * (height - 1))
        grid[row][col] = ch
    lines = [f"{y1:9.0f}J |" + "".join(grid[0])]
    lines += ["           |" + "".join(row) for row in grid[1:-1]]
    lines.append(f"{y0:9.0f}J |" + "".join(grid[-1]))
    lines.append("           +" + "-" * width)
    lines.append(f"            {x0:.2f}s{' ' * (width - 14)}{x1:.2f}s")
    return "\n".join(lines)


def main() -> None:
    plan = default_planner().result(PlanSpec(
        "gpt3-2.7b", gpu="a40", stages=8, microbatches=16, freq_stride=6,
    ))
    frontier = plan.frontier

    perseus_pts = []
    step = max(1, len(frontier.points) // 12)
    for point in frontier.points[::step]:
        realized = execute_frequency_plan(
            plan.dag, point.frequencies, plan.profile
        )
        perseus_pts.append((realized.iteration_time, realized.energy_at()))

    zeus_g = [
        (p.iteration_time, p.energy_at())
        for p in zeus_global_frontier(plan.dag, plan.profile, freq_stride=3)
    ]
    zeus_p = [
        (p.iteration_time, p.energy_at())
        for p in zeus_per_stage_frontier(plan.dag, plan.profile, freq_stride=3)
    ]

    print("GPT-3 2.7B, eight-stage pipeline parallelism, A40 (Figure 9b)\n")
    print(ascii_scatter({
        "Perseus": perseus_pts, "Global (Zeus)": zeus_g, "Stage (Zeus)": zeus_p
    }))
    print("\nP = Perseus   G = ZeusGlobal   S = ZeusPerStage")

    t_fast = perseus_pts[0][0]
    print(f"\nAt the default iteration time ({t_fast:.2f}s):")
    print(f"  Perseus       {perseus_pts[0][1]:8.0f} J")
    g_fast = min(zeus_g, key=lambda p: p[0])
    print(f"  ZeusGlobal    {g_fast[1]:8.0f} J (at {g_fast[0]:.2f}s)")
    s_fast = min(zeus_p, key=lambda p: p[0])
    print(f"  ZeusPerStage  {s_fast[1]:8.0f} J (at {s_fast[0]:.2f}s -- cannot "
          "reach the fast end: balancing forwards slows critical backwards)")

    print(f"\nPerseus Pareto-dominates both: it slows only computations off "
          f"the critical path,\nenumerating {len(frontier.points)} schedules "
          f"between T_min={frontier.t_min:.2f}s and T*={frontier.t_star:.2f}s.")


if __name__ == "__main__":
    main()
