"""Figure 9: iteration time-energy frontiers vs the Zeus baselines.

Three parallelization configurations of GPT-3 as in the paper: (a) PP4 on
A100, (b) PP8 on A40, (c) DP2 x TP2 x PP4 on A40.  Perseus must
Pareto-dominate both ZeusGlobal and ZeusPerStage everywhere.
"""

from __future__ import annotations

from conftest import emit_table, setup_for

from repro.baselines.zeus_global import zeus_global_frontier
from repro.baselines.zeus_perstage import zeus_per_stage_frontier
from repro.sim.executor import execute_frequency_plan

CONFIGS = [
    ("gpt3-1.3b@a100-pp4", "Fig 9a: GPT-3 1.3B, PP4, A100"),
    ("gpt3-2.7b@a40-pp8", "Fig 9b: GPT-3 2.7B, PP8, A40"),
    ("gpt3-6.7b@a40-3d", "Fig 9c: GPT-3 6.7B, DP2xTP2xPP4, A40"),
]


def _frontier_rows(setup, samples=7):
    frontier = setup.optimizer.frontier
    pts = frontier.points
    idxs = [int(i * (len(pts) - 1) / (samples - 1)) for i in range(samples)]
    rows = []
    for i in sorted(set(idxs)):
        p = pts[i]
        realized = execute_frequency_plan(setup.dag, p.frequencies,
                                          setup.profile)
        rows.append(["Perseus", realized.iteration_time,
                     realized.energy_at()])
    for bp in zeus_global_frontier(setup.dag, setup.profile, freq_stride=2):
        rows.append(["ZeusGlobal", bp.iteration_time, bp.energy_at()])
    for bp in zeus_per_stage_frontier(setup.dag, setup.profile, freq_stride=2):
        rows.append(["ZeusPerStage", bp.iteration_time, bp.energy_at()])
    return rows


def _assert_dominance(setup, rows):
    frontier = setup.optimizer.frontier
    for method, t, e in rows:
        if method == "Perseus":
            continue
        sched = frontier.schedule_for(t * 1.0001)
        ours = execute_frequency_plan(setup.dag, sched.frequencies,
                                      setup.profile)
        sync = max(ours.iteration_time, t)
        assert ours.energy_at(sync) <= e * 1.03, (
            f"{method} point at t={t:.2f}s beats Perseus"
        )


def _bench_config(key, label):
    setup = setup_for(key)
    rows = _frontier_rows(setup)
    emit_table(
        ["method", "iteration time (s)", "energy (J)"],
        [[m, f"{t:.3f}", f"{e:.0f}"] for m, t, e in rows],
        title=f"[{label}] time-energy frontier points",
    )
    _assert_dominance(setup, rows)


def test_fig9a_pp4_a100():
    _bench_config(*CONFIGS[0])


def test_fig9b_pp8_a40():
    _bench_config(*CONFIGS[1])


def test_fig9c_3d_a40():
    _bench_config(*CONFIGS[2])
