"""Ablations of the design choices DESIGN.md calls out.

Not from the paper's evaluation section, but each isolates one design
decision of the reproduction: planning granularity ``tau``, the
minimum-imbalance partitioner, Eq. 4's blocking-displacement term in the
cut capacities, and the cross-GPU claim of §6.2.1 (newer GPUs save more).
"""

from __future__ import annotations

import dataclasses

from conftest import emit_table, setup_for

from repro.core.frontier import characterize_frontier
from repro.experiments.workloads import A100_PP4_WORKLOADS
from repro.gpu.specs import A100_PCIE, H100_SXM, V100_SXM, get_gpu
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model, partition_model_uniform
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from repro.profiler.online import profile_pipeline
from repro.sim.executor import execute_frequency_plan, max_frequency_plan


def _tmin_savings(dag, profile, frontier):
    base = execute_frequency_plan(dag, max_frequency_plan(dag, profile), profile)
    perseus = execute_frequency_plan(
        dag, frontier.schedule_for(None).frequencies, profile
    )
    return (
        100.0 * (1.0 - perseus.energy_at() / base.energy_at()),
        perseus.energy_at(),
        100.0 * (perseus.iteration_time / base.iteration_time - 1.0),
    )


def test_ablation_tau_granularity():
    """Coarser tau: fewer frontier points, faster optimizer, ~same savings."""
    setup = setup_for(A100_PP4_WORKLOADS[0].key)

    def run():
        rows = []
        for factor in (0.5, 1.0, 4.0, 16.0):
            tau = setup.tau * factor
            frontier = characterize_frontier(setup.dag, setup.profile, tau=tau)
            savings, _, slow = _tmin_savings(setup.dag, setup.profile, frontier)
            rows.append([
                f"{tau * 1e3:.1f} ms", len(frontier.points), frontier.steps,
                f"{frontier.optimizer_runtime_s:.2f}", f"{savings:.1f}",
                f"{slow:.2f}",
            ])
        return rows

    rows = run()
    emit_table(
        ["tau", "points", "steps", "runtime (s)", "Tmin savings %", "slow %"],
        rows,
        title="[Ablation] Planning granularity tau (GPT-3 1.3B, A100 PP4)",
        wall_clock=("runtime (s)",),
    )
    savings = [float(r[4]) for r in rows]
    runtimes = [float(r[3]) for r in rows]
    assert max(savings) - min(savings) < 6.0  # robust to granularity
    assert runtimes[-1] < runtimes[0]  # coarser tau is cheaper


def test_ablation_partitioning():
    """Worse partitions create more bloat; better ones less total energy."""
    def run():
        rows = []
        model = build_model("gpt3-xl", 4)
        dag = build_pipeline_dag(schedule_1f1b(4, 12))
        for label, part in (
            ("min-imbalance", partition_model(model, 4, A100_PCIE)),
            ("uniform", partition_model_uniform(model, 4, A100_PCIE)),
        ):
            profile = profile_pipeline(model, part, A100_PCIE, freq_stride=4)
            frontier = characterize_frontier(
                dag, profile, tau=(0.02 * frontier_span_hint(part))
            )
            savings, joules, slow = _tmin_savings(dag, profile, frontier)
            rows.append([label, f"{part.ratio:.2f}", f"{savings:.1f}",
                         f"{joules:.0f}", f"{slow:.2f}"])
        return rows

    def frontier_span_hint(part):
        return max(part.stage_latencies) / max(min(part.stage_latencies), 1e-9)

    rows = run()
    emit_table(
        ["partitioner", "imbalance", "Tmin savings %", "Tmin energy (J)",
         "slow %"],
        rows,
        title="[Ablation] Partitioning method (GPT-3 1.3B, A100 PP4, M=12)",
    )
    best, uniform = rows
    assert float(uniform[1]) >= float(best[1])  # uniform is worse balanced
    assert float(uniform[2]) >= float(best[2]) - 1.0  # more bloat to harvest
    assert float(best[3]) <= float(uniform[3]) * 1.02  # still cheaper overall


def test_ablation_effective_energy_term():
    """Eq. 4's -P_blocking*t term vs raw-energy capacities."""
    setup = setup_for(A100_PP4_WORKLOADS[0].key)

    def run():
        rows = []
        for label, p_block in (
            ("Eq. 4 (effective)", setup.profile.p_blocking_w),
            ("raw energy only", 1e-9),
        ):
            profile = dataclasses.replace(setup.profile, p_blocking_w=p_block)
            profile.ops = setup.profile.ops
            frontier = characterize_frontier(setup.dag, profile, tau=setup.tau)
            # account honestly with the TRUE blocking power either way
            savings, joules, slow = _tmin_savings(
                setup.dag, setup.profile, frontier
            )
            rows.append([label, f"{savings:.1f}", f"{joules:.0f}",
                         f"{slow:.2f}"])
        return rows

    rows = run()
    emit_table(
        ["cut capacities", "Tmin savings %", "Tmin energy (J)", "slow %"],
        rows,
        title="[Ablation] Blocking-displacement term in capacities "
              "(GPT-3 1.3B, A100 PP4)",
    )
    effective, raw = rows
    assert float(effective[2]) <= float(raw[2]) * 1.01


def test_ablation_cross_gpu():
    """§6.2.1: higher-clock-range GPUs show larger relative savings."""
    def run():
        rows = []
        for gpu in (V100_SXM, A100_PCIE, get_gpu("a40"), H100_SXM):
            model = build_model("gpt3-xl", 4)
            part = partition_model(model, 4, gpu)
            profile = profile_pipeline(model, part, gpu, freq_stride=4)
            dag = build_pipeline_dag(schedule_1f1b(4, 12))
            base = execute_frequency_plan(
                dag, max_frequency_plan(dag, profile), profile
            )
            span = base.iteration_time
            frontier = characterize_frontier(dag, profile, tau=span / 250)
            savings, _, slow = _tmin_savings(dag, profile, frontier)
            rows.append([gpu.name, gpu.max_freq, f"{savings:.1f}",
                         f"{slow:.2f}"])
        return rows

    rows = run()
    emit_table(
        ["GPU", "max clock (MHz)", "Tmin savings %", "slow %"],
        rows,
        title="[Ablation] Cross-GPU intrinsic savings (GPT-3 1.3B, PP4)",
    )
    by_gpu = {r[0]: float(r[2]) for r in rows}
    assert by_gpu["A40-48G"] > by_gpu["A100-PCIe-80G"]
    assert by_gpu["H100-SXM-80G"] > by_gpu["A100-PCIe-80G"]
