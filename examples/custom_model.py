#!/usr/bin/env python
"""Bring your own model: plan a custom architecture end to end.

Builds a hand-rolled Mixture-of-Experts-style Transformer variant that is
NOT in the zoo (heavier FFN every other layer), partitions it, registers a
constant-time data-loading operation (§4.4), and plans it with Perseus --
showing the full public API surface a downstream user would touch.

Run:  python examples/custom_model.py
"""

from repro.core import PerseusOptimizer
from repro.gpu import A40, WorkProfile
from repro.models import LayerSpec, ModelSpec
from repro.partition import partition_model
from repro.pipeline import build_pipeline_dag, schedule_1f1b, with_data_loading
from repro.profiler import profile_constant_op, profile_pipeline


def build_moe_ish_model(num_layers=16, hidden=2048, seq=1024, microbatch=4):
    """Alternating dense/wide layers -- deliberately hard to balance."""
    layers = []
    for i in range(num_layers):
        wide = i % 2 == 1
        ffn_mult = 8 if wide else 4  # "expert" layers are 2x heavier
        flops = microbatch * seq * hidden * hidden * (8 + 4 * ffn_mult)
        weight_bytes = hidden * hidden * (4 + 2 * ffn_mult) * 2
        act_bytes = 18 * microbatch * seq * hidden * 2
        layers.append(
            LayerSpec(
                name=f"block.{i}{'-wide' if wide else ''}",
                kind="transformer",
                forward=WorkProfile(
                    flops=flops,
                    mem_bytes=weight_bytes + act_bytes,
                    compute_efficiency=0.55,
                ),
                backward_multiplier=3.0,  # activation recomputation
            )
        )
    return ModelSpec(
        name="moe-ish-4b",
        layers=tuple(layers),
        tail=None,
        params=sum(int(l.forward.mem_bytes // 2) for l in layers),
        microbatch_size=microbatch,
        seq_len=seq,
    )


def main() -> None:
    model = build_moe_ish_model()
    gpu = A40

    # Minimum-imbalance partitioning fights the alternating layer sizes.
    partition = partition_model(model, num_stages=4, gpu=gpu)
    print(f"model:     {model.name}, {model.num_layers} layers")
    print(f"partition: {list(partition.boundaries)} "
          f"(imbalance ratio {partition.ratio:.2f})")

    # Profile each stage over the clock ladder; add a constant-time
    # data-loading op in front of every first-stage forward (§4.4).
    profile = profile_pipeline(model, partition, gpu, freq_stride=6)
    profile_constant_op(profile, stage=0, label="dataload", duration_s=0.015)

    schedule = with_data_loading(schedule_1f1b(4, 8))
    dag = build_pipeline_dag(schedule)

    optimizer = PerseusOptimizer(dag=dag, profile=profile, tau=0.01)
    frontier = optimizer.frontier
    print(f"frontier:  {len(frontier.points)} schedules, "
          f"T_min={frontier.t_min:.3f}s .. T*={frontier.t_star:.3f}s")

    tmin = frontier.min_time_schedule
    tstar = frontier.min_energy_schedule
    e_tmin = tmin.energy_at(4 * profile.p_blocking_w)
    e_tstar = tstar.energy_at(4 * profile.p_blocking_w)
    print(f"\nT_min schedule: {tmin.iteration_time:.3f}s  {e_tmin:8.0f} J")
    print(f"T*    schedule: {tstar.iteration_time:.3f}s  {e_tstar:8.0f} J "
          f"({1 - e_tstar / e_tmin:.1%} less energy, "
          f"{tstar.iteration_time / tmin.iteration_time - 1:.1%} slower)")

    # The dataload ops have exactly one planned duration (single choice).
    const_nodes = [
        n for n, ins in dag.nodes.items() if ins.kind.value == "const"
    ]
    durations = {tmin.durations[n] for n in const_nodes}
    print(f"\n{len(const_nodes)} constant-time ops planned at a single "
          f"duration: {sorted(durations)[0] * 1e3:.1f} ms each")


if __name__ == "__main__":
    main()
