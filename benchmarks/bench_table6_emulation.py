"""Tables 5+6: large-scale emulation, intrinsic savings vs microbatches.

Strong scaling per Table 5 (global batch 1536, TP8 x PP8): more pipelines
means fewer microbatches each.  Table 6's trend: intrinsic savings
*decrease* as microbatches increase, because only steady-state
microbatches (which cannot slow to min-energy) are added.

Default runs M in {12, 24, 48} (the 8192/4096/2048-GPU rows); set
``REPRO_FULL_FIDELITY=1`` to add the M=96 (1024-GPU) row and Bloom/A40.
"""

from __future__ import annotations

from conftest import bench_planner, emit_table

from repro.emulation.largescale import (
    emulated_intrinsic_savings,
    emulation_workload,
    table5_configs,
)
from repro.experiments.runner import prepare
from repro.experiments.workloads import full_fidelity
from repro.gpu.specs import A40, A100_SXM

#: Paper Table 6: (model, gpu) -> savings % for M in (12, 24, 48, 96).
PAPER = {
    ("gpt3-175b", "A100"): (15.20, 14.19, 13.62, 13.32),
    ("gpt3-175b", "A40"): (11.81, 10.22, 9.34, 8.88),
    ("bloom-176b", "A100"): (10.47, 7.06, 5.23, 4.28),
    ("bloom-176b", "A40"): (6.97, 4.49, 3.12, 2.41),
}
M_VALUES_FAST = (12, 24, 48)
M_VALUES_FULL = (12, 24, 48, 96)


def _configs():
    if full_fidelity():
        return [("gpt3-175b", A100_SXM, "A100"), ("gpt3-175b", A40, "A40"),
                ("bloom-176b", A100_SXM, "A100"), ("bloom-176b", A40, "A40")]
    return [("gpt3-175b", A100_SXM, "A100"), ("bloom-176b", A100_SXM, "A100")]


def _m_values():
    return M_VALUES_FULL if full_fidelity() else M_VALUES_FAST


def test_table5_strong_scaling_configs():
    configs = table5_configs()
    rows = [[c.num_gpus, c.num_pipelines, c.num_microbatches,
             c.num_pipelines * c.num_microbatches] for c in configs]
    emit_table(
        ["# GPUs", "# pipelines", "microbatches/pipeline", "global batch"],
        rows,
        title="[Table 5] Strong scaling parameters (TP8 x PP8)",
    )
    assert len({r[3] for r in rows}) == 1


def test_table6_intrinsic_vs_microbatches():
    def run():
        table = []
        for model, gpu, label in _configs():
            series = []
            for m in _m_values():
                setup = prepare(emulation_workload(model, gpu),
                                num_microbatches=m, freq_stride=8,
                                planner=bench_planner())
                series.append(emulated_intrinsic_savings(setup))
            paper = PAPER[(model, label)][: len(series)]
            table.append([f"{model} ({label})"]
                         + [f"{s:.2f}" for s in series]
                         + ["| paper:"] + [f"{p:.2f}" for p in paper])
        return table

    table = run()
    headers = (["model"] + [f"M={m}" for m in _m_values()]
               + [""] + [f"paper M={m}" for m in _m_values()])
    emit_table(
        headers, table,
        title="[Table 6] Emulated intrinsic savings vs microbatch count",
    )
    for row in table:
        series = [float(x) for x in row[1 : 1 + len(_m_values())]]
        assert series[0] > 0
        # the Table 6 trend: savings shrink (or saturate) as M grows
        assert series[0] >= series[-1] - 1.0, f"{row[0]}: trend inverted"
