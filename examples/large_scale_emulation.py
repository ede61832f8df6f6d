#!/usr/bin/env python
"""Large-scale emulation: GPT-3 175B across 2048-8192 GPUs (§6.3).

Reproduces the strong-scaling study: as the GPU count doubles (Table 5),
per-pipeline microbatches halve and intrinsic savings per pipeline grow,
while the job's straggler savings follow Figure 8's rise-then-wane curve.
Each emulated pipeline is an ordinary workload planned by the shared
planner, so `repro plan` of the same configuration prints the same
intrinsic savings.

Run:  python examples/large_scale_emulation.py
"""

from repro.emulation import (
    emulated_breakdown,
    emulated_intrinsic_savings,
    emulated_straggler_savings,
    emulation_workload,
    t_star_ratio,
    table5_configs,
)
from repro.experiments import prepare
from repro.gpu import A100_SXM

MODEL = "gpt3-175b"
SLOWDOWNS = (1.05, 1.1, 1.2, 1.3, 1.5)


def main() -> None:
    print(f"{MODEL} on A100 SXM, TP8 x PP8, global batch 1536 (Table 5)\n")
    print("GPUs   pipelines  M/pipeline  intrinsic%   T*/T")
    setups = {}
    for cfg in table5_configs():
        if cfg.num_microbatches > 48:
            continue  # the 1024-GPU row takes minutes; see the benchmarks
        setup = prepare(emulation_workload(MODEL, A100_SXM),
                        num_microbatches=cfg.num_microbatches, freq_stride=8)
        setups[cfg.num_pipelines] = (cfg, setup)
        print(f"{cfg.num_gpus:5d}  {cfg.num_pipelines:9d}  "
              f"{cfg.num_microbatches:10d}  "
              f"{emulated_intrinsic_savings(setup):9.2f}  "
              f"{t_star_ratio(setup):6.2f}")

    print("\nOne pipeline throttles; all others slow to T_opt (Figure 8a):")
    header = "pipelines | " + " | ".join(f"T'/T={s}" for s in SLOWDOWNS)
    print(header)
    print("-" * len(header))
    for pipelines, (cfg, setup) in setups.items():
        row = [
            f"{emulated_straggler_savings(setup, pipelines, s):7.1f}%"
            for s in SLOWDOWNS
        ]
        print(f"{pipelines:9d} | " + " | ".join(row))

    print("\nBloat breakdown at 1.2x straggler (Figure 7):")
    for pipelines, (cfg, setup) in setups.items():
        b = emulated_breakdown(setup, pipelines, 1.2)
        print(f"  {cfg.num_gpus:5d} GPUs: intrinsic {b.intrinsic_pct:5.2f}% "
              f"+ extrinsic {b.extrinsic_pct:5.2f}% = {b.total_pct:5.2f}%")

    print("\nNote: Perseus optimizes ONE pipeline and replicates the "
          "schedule across\nall data-parallel replicas (§4.4), which is why "
          "even the 8192-GPU job\nplans in seconds.")


if __name__ == "__main__":
    main()
