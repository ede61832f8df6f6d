"""§6.5: Perseus's own overhead -- profiling time, optimizer runtime, lookup.

Paper: ~13 min one-off profiling on A100 workloads; optimizer averages 6.5
min (peak 15.7 min, Bloom 3B); the largest 8192-GPU emulation took 87 s
(one pipeline suffices, §4.4); schedule lookup is instantaneous.

Our absolute numbers differ (interpreter vs their server; scaled M), but
the *relations* must hold: optimizer runtime is a negligible fraction of
training, emulation optimizes one pipeline only, and lookup is O(log n).
"""

from __future__ import annotations

import time

from conftest import emit, emit_table, setup_for

from repro.experiments.workloads import A100_PP4_WORKLOADS
from repro.profiler.online import estimated_profiling_overhead_s


def test_sec65_optimizer_runtime():
    def run():
        rows = []
        for wl in A100_PP4_WORKLOADS:
            setup = setup_for(wl.key)
            frontier = setup.optimizer.frontier  # cached after first bench
            rows.append([
                setup.workload.display,
                f"{frontier.optimizer_runtime_s:.2f}",
                frontier.steps,
                len(frontier.points),
                f"{estimated_profiling_overhead_s(setup.profile) / 60:.1f}",
            ])
        return rows

    rows = run()
    emit_table(
        ["workload", "optimizer runtime (s)", "steps", "frontier points",
         "profiling overhead (min)"],
        rows,
        title="[Sec 6.5] Optimizer runtime and profiling overhead "
              "(paper: 6.5 min avg optimize, ~13 min profile)",
        wall_clock=("optimizer runtime (s)",),
    )
    for row in rows:
        assert float(row[1]) < 600.0  # far below any real training horizon


def test_sec65_lookup_is_instant():
    setup = setup_for(A100_PP4_WORKLOADS[0].key)
    frontier = setup.optimizer.frontier
    targets = [frontier.t_min * (1 + 0.01 * i) for i in range(50)]
    start = time.perf_counter()
    for t in targets:
        frontier.schedule_for(t)
    elapsed = (time.perf_counter() - start) / len(targets)
    emit(f"[Sec 6.5] schedule lookup: {elapsed * 1e6:.1f} us per query "
         f"(paper: 'instantaneous')")
    assert elapsed < 1e-3


def test_sec65_polynomial_step_count():
    """Appendix F: steps are O(N + M), i.e. linear-ish in pipeline size."""
    from repro.core.frontier import characterize_frontier
    from repro.pipeline.dag import build_pipeline_dag
    from repro.pipeline.schedules import schedule_1f1b

    setup = setup_for(A100_PP4_WORKLOADS[0].key)

    def run():
        rows = []
        for m in (4, 8, 16):
            dag = build_pipeline_dag(schedule_1f1b(4, m))
            frontier = characterize_frontier(dag, setup.profile, tau=setup.tau)
            rows.append([f"N=4, M={m}", frontier.steps,
                         f"{frontier.optimizer_runtime_s:.2f}"])
        return rows

    rows = run()
    emit_table(
        ["config", "steps", "runtime (s)"],
        rows,
        title="[Appendix F] Frontier steps scale mildly with microbatches",
        wall_clock=("runtime (s)",),
    )
    steps = [r[1] for r in rows]
    # quadrupling M must not blow steps up super-linearly by more than ~4x
    assert steps[2] <= steps[0] * 8
