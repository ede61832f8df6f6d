"""Figure 8: emulated savings vs straggler slowdown across Table-5 scales.

Key shapes: (a) savings rise until T' approaches T*, then wane; (b) the
scale/savings tradeoff -- strong-scaled configurations with more pipelines
(fewer microbatches each... note the paper plots per-M curves where more
pipelines = fewer microbatches = *larger* bubble share, i.e. the M=12
curve sits below the M=96 curve for these near-balanced huge models).
"""

from __future__ import annotations

from conftest import bench_planner, emit_table

from repro.emulation.largescale import (
    emulated_straggler_savings,
    emulation_workload,
    t_star_ratio,
    table5_configs,
)
from repro.experiments.runner import prepare
from repro.experiments.workloads import full_fidelity
from repro.gpu.specs import A100_SXM

SLOWDOWNS = (1.05, 1.1, 1.2, 1.3, 1.4, 1.5)


def _rows_for(model):
    configs = table5_configs()
    if not full_fidelity():
        configs = [c for c in configs if c.num_microbatches <= 48]
    rows = []
    for cfg in configs:
        setup = prepare(emulation_workload(model, A100_SXM),
                        num_microbatches=cfg.num_microbatches, freq_stride=8,
                        planner=bench_planner())
        series = [
            emulated_straggler_savings(setup, cfg.num_pipelines, s)
            for s in SLOWDOWNS
        ]
        rows.append(
            [f"{cfg.num_pipelines} pipelines (M={cfg.num_microbatches})"]
            + series + [t_star_ratio(setup)]
        )
    return rows


def _check(rows):
    for row in rows:
        series = row[1:-1]
        t_star = row[-1]
        assert all(s > 0 for s in series)
        peak_at = SLOWDOWNS[series.index(max(series))]
        # the peak should sit near T*/T (the star markers in Figure 8)
        assert abs(peak_at - min(t_star, SLOWDOWNS[-1])) <= 0.25
        # and savings wane after the peak
        assert series[-1] <= max(series) + 1e-9


def test_fig8a_gpt3_175b():
    rows = _rows_for("gpt3-175b")
    emit_table(
        ["config"] + [f"T'/T={s}" for s in SLOWDOWNS] + ["T*/T"],
        rows,
        title="[Figure 8a] GPT-3 175B on A100: savings vs straggler slowdown",
    )
    _check(rows)


def test_fig8b_bloom_176b():
    rows = _rows_for("bloom-176b")
    emit_table(
        ["config"] + [f"T'/T={s}" for s in SLOWDOWNS] + ["T*/T"],
        rows,
        title="[Figure 8b] Bloom 176B on A100: savings vs straggler slowdown",
    )
    _check(rows)
