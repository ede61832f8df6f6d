"""Figures 12 & 13 (Appendix H): frontiers for the remaining workloads.

BERT, T5, Bloom and Wide-ResNet on both testbeds (A40 PP8 = Figure 12,
A100 PP4 = Figure 13).  Checks the same dominance claim as Figure 9 plus
frontier sanity (monotone tradeoff, sensible span).
"""

from __future__ import annotations

from conftest import emit_table, setup_for

from repro.baselines.zeus_global import zeus_global_frontier
from repro.baselines.zeus_perstage import zeus_per_stage_frontier
from repro.sim.executor import execute_frequency_plan

FIG13_A100 = [
    "bert-1.3b@a100-pp4", "t5-3b@a100-pp4", "bloom-3b@a100-pp4",
    "wresnet-1.5b@a100-pp4",
]
FIG12_A40 = [
    "bert-1.3b@a40-pp8", "t5-3b@a40-pp8", "bloom-3b@a40-pp8",
    "wresnet-1.5b@a40-pp8",
]


def _summary_row(setup):
    frontier = setup.optimizer.frontier
    zg = zeus_global_frontier(setup.dag, setup.profile, freq_stride=4)
    zp = zeus_per_stage_frontier(setup.dag, setup.profile, freq_stride=4)
    # energy at the max-frequency iteration time, per method
    t0 = frontier.t_min
    ours = execute_frequency_plan(
        setup.dag, frontier.schedule_for(t0 * 1.0001).frequencies,
        setup.profile,
    ).energy_at()
    zg_best = min(
        (p.energy_at(t0)
         for p in zg if p.iteration_time <= t0 * 1.001),
        default=float("nan"),
    )
    zp_best = min(
        (p.energy_at(t0)
         for p in zp if p.iteration_time <= t0 * 1.001),
        default=float("nan"),
    )
    def fmt(value):
        # ZeusPerStage often cannot reach T_min at all: balancing forward
        # times slows the critical backwards (the §4.1/Appendix-H effect).
        return "n/a" if value != value else f"{value:.0f}"

    return [
        setup.workload.display,
        f"{frontier.t_min:.2f}-{frontier.t_star:.2f}s",
        len(frontier.points), f"{ours:.0f}", fmt(zg_best), fmt(zp_best),
    ]


def _check(setup):
    frontier = setup.optimizer.frontier
    times = [p.iteration_time for p in frontier.points]
    effs = [p.effective_energy for p in frontier.points]
    assert times == sorted(times)
    assert all(a > b for a, b in zip(effs, effs[1:]))
    for bp in zeus_global_frontier(setup.dag, setup.profile, freq_stride=4):
        sched = frontier.schedule_for(bp.iteration_time * 1.0001)
        ours = execute_frequency_plan(setup.dag, sched.frequencies,
                                      setup.profile)
        sync = max(ours.iteration_time, bp.iteration_time)
        assert ours.energy_at(sync) <= (
            bp.energy_at(sync) * 1.03
        )


def _bench(keys, title):
    def run():
        return [_summary_row(setup_for(key)) for key in keys]

    rows = run()
    emit_table(
        ["workload", "frontier span", "# points", "Perseus J @Tmin",
         "ZeusGlobal J", "ZeusPerStage J"],
        rows, title=title,
    )
    for key in keys:
        _check(setup_for(key))


def test_fig13_a100_pp4_frontiers():
    _bench(FIG13_A100,
           "[Figure 13] A100 PP4 frontiers (appendix workloads)")


def test_fig12_a40_pp8_frontiers():
    _bench(FIG12_A40,
           "[Figure 12] A40 PP8 frontiers (appendix workloads)")
