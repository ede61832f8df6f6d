"""EnvPipe baseline (ATC'23): intrinsic-bloat point solution (§6.1, §6.2).

EnvPipe keeps an "outer frame" of the pipeline at maximum clock and scales
down inner computations, under the built-in assumption that the *final*
pipeline stage is the heaviest -- true only with probability ~1/N (§6.2.1).
We model its planning rule analytically:

* the *outer frame* (the first forward and the last backward of every
  stage, plus the whole final stage) runs at the maximum clock -- EnvPipe
  only scales "inner" execution units to avoid stretching its envelope;
* every other stage's inner units get the lowest clock whose steady-state
  forward+backward pair time does not exceed the last stage's pair time at
  max clock (the SRP-style envelope constraint);
* constant-time (single-choice) operations are invisible to its model
  (§4.4 / §6.2.1's slowdown critique), so their real latency can push the
  realized iteration past the envelope.

EnvPipe provides no time-energy frontier: it cannot adapt to stragglers,
so under extrinsic bloat its plan (and absolute Joule savings) is fixed.
"""

from __future__ import annotations

from typing import Dict

from ..api.strategies import FrequencyPlan, PlanContext, register_strategy
from ..exceptions import ProfilingError
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile
from ..sim.executor import execute_frequency_plan, max_frequency_plan


def _pair_time(profile: PipelineProfile, stage: int, freq: int) -> float:
    """Steady-state 1F1B pair latency (one forward + one backward)."""
    fwd = profile.get((stage, "forward")).at_freq(freq)
    bwd = profile.get((stage, "backward")).at_freq(freq)
    return fwd.time_s + bwd.time_s


#: EnvPipe is "performance-preserving" only up to its envelope model's
#: accuracy; this is the iteration-time inflation its greedy tuner accepts
#: before reverting a frequency step.
ENVELOPE_TOLERANCE = 0.005


def _frame_nodes(dag: ComputationDag) -> set:
    """The outer frame: kept at max clock by EnvPipe's SRP envelope."""
    last_stage = dag.num_stages - 1
    last_mb = dag.num_microbatches - 1
    frame = set()
    for node, ins in dag.nodes.items():
        if (
            ins.stage == last_stage
            or (ins.kind.value == "forward" and ins.microbatch == 0)
            or (ins.kind.value == "backward" and ins.microbatch == last_mb)
        ):
            frame.add(node)
    return frame


def envpipe_plan(dag: ComputationDag, profile: PipelineProfile) -> Dict[int, int]:
    """EnvPipe's frequency assignment.

    Greedy, stage-granular, feedback-driven: walk stages front to back,
    lowering each stage's inner-unit clock one step at a time while the
    simulated iteration time stays within the envelope tolerance of the
    all-max baseline and the stage's pair time stays within the
    last-stage-heaviest budget.  Greedy order and stage granularity (no
    per-microbatch criticality) are exactly what costs it against Perseus.
    """
    n_stages = dag.num_stages
    last = n_stages - 1
    frame = _frame_nodes(dag)

    plan = max_frequency_plan(dag, profile)
    base_time = execute_frequency_plan(dag, plan, profile).iteration_time
    budget_time = base_time * (1.0 + ENVELOPE_TOLERANCE)

    last_fwd = profile.get((last, "forward")).fastest
    last_bwd = profile.get((last, "backward")).fastest
    envelope_pair = last_fwd.time_s + last_bwd.time_s

    for stage in range(n_stages - 1):
        fwd_op = profile.get((stage, "forward"))
        bwd_op = profile.get((stage, "backward"))
        shared = sorted(
            {m.freq_mhz for m in fwd_op.measurements}
            & {m.freq_mhz for m in bwd_op.measurements},
            reverse=True,
        )
        if not shared:
            raise ProfilingError(f"stage {stage} has no common profiled clocks")
        warmup = dag.num_stages - 1 - stage
        m_total = dag.num_microbatches
        inner = []
        for n in dag.nodes:
            ins = dag.nodes[n]
            if (
                ins.stage != stage
                or n in frame
                or profile.get(ins.op_key).fixed
            ):
                continue
            # EnvPipe scales only steady-state units: warm-up forwards and
            # drain backwards sit on its envelope and stay at max clock.
            if ins.kind.value == "forward" and ins.microbatch < warmup:
                continue
            if ins.kind.value == "backward" and ins.microbatch >= m_total - warmup:
                continue
            inner.append(n)
        committed = shared[0]
        for freq in shared[1:]:  # descending clocks
            # The model check EnvPipe believes in (last stage heaviest)...
            if _pair_time(profile, stage, freq) > envelope_pair * (
                1.0 + ENVELOPE_TOLERANCE
            ):
                # ...and the real feedback check its tuner performs.
                trial = dict(plan)
                for n in inner:
                    trial[n] = freq
                t = execute_frequency_plan(dag, trial, profile).iteration_time
                if t > budget_time:
                    break
            committed = freq
        for n in inner:
            plan[n] = committed
    return plan


@register_strategy("envpipe")
def _envpipe_strategy(ctx: PlanContext) -> FrequencyPlan:
    """EnvPipe's fixed envelope plan (straggler-oblivious by design)."""
    return envpipe_plan(ctx.dag, ctx.profile)
