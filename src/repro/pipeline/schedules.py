"""Pipeline-parallel schedules: 1F1B, GPipe, interleaved 1F1B.

A schedule is a per-stage list of instructions in execution order.  Perseus
works on any schedule expressible as a DAG (§4.4 "Other Pipeline
Schedules"); these generators cover the ones named in the paper.
"""

from __future__ import annotations

from typing import List

from ..exceptions import ConfigurationError
from .instructions import InstrKind, Instruction

Schedule = List[List[Instruction]]


def _check(num_stages: int, num_microbatches: int) -> None:
    if num_stages <= 0:
        raise ConfigurationError("need at least one stage")
    if num_microbatches <= 0:
        raise ConfigurationError("need at least one microbatch")


def schedule_1f1b(num_stages: int, num_microbatches: int) -> Schedule:
    """The 1F1B (PipeDream-Flush) schedule used throughout the paper.

    Stage ``s`` (0-indexed) runs ``min(M, N-1-s)`` warm-up forwards, then
    alternates one-forward-one-backward in the steady state, then drains
    the remaining backwards -- reproducing the timelines of Figure 1.
    """
    _check(num_stages, num_microbatches)
    forward, backward = InstrKind.FORWARD, InstrKind.BACKWARD
    per_stage: Schedule = []
    for s in range(num_stages):
        warmup = min(num_microbatches, num_stages - 1 - s)
        order: List[Instruction] = [
            Instruction(s, m, forward) for m in range(warmup)
        ]
        next_fwd, next_bwd = warmup, 0
        while next_fwd < num_microbatches:
            order.append(Instruction(s, next_fwd, forward))
            next_fwd += 1
            order.append(Instruction(s, next_bwd, backward))
            next_bwd += 1
        while next_bwd < num_microbatches:
            order.append(Instruction(s, next_bwd, backward))
            next_bwd += 1
        per_stage.append(order)
    return per_stage


def schedule_gpipe(num_stages: int, num_microbatches: int) -> Schedule:
    """GPipe: all forwards, then all backwards, per stage."""
    _check(num_stages, num_microbatches)
    per_stage: Schedule = []
    for s in range(num_stages):
        order = [Instruction(s, m, InstrKind.FORWARD) for m in range(num_microbatches)]
        order += [
            Instruction(s, m, InstrKind.BACKWARD) for m in range(num_microbatches)
        ]
        per_stage.append(order)
    return per_stage


def schedule_interleaved_1f1b(
    num_stages: int, num_microbatches: int, num_chunks: int = 2
) -> Schedule:
    """Interleaved 1F1B (Megatron-LM) with ``num_chunks`` virtual stages.

    Each physical stage hosts ``num_chunks`` model chunks; chunk ``c`` on
    stage ``s`` behaves like virtual stage ``c * N + s`` of a deeper
    ``N * num_chunks``-stage 1F1B pipeline.  We emit the *virtual* stage
    ids; callers map virtual stage ``v`` to device ``v % num_stages``.
    The DAG builder and the planner treat it like any other schedule --
    the paper's point in §4.4.
    """
    _check(num_stages, num_microbatches)
    if num_chunks <= 0:
        raise ConfigurationError("need at least one chunk")
    virtual = num_stages * num_chunks
    if num_microbatches % num_stages != 0:
        raise ConfigurationError(
            "interleaved 1F1B requires microbatches divisible by stages"
        )
    return schedule_1f1b(virtual, num_microbatches)


def with_data_loading(schedule: Schedule, label: str = "dataload") -> Schedule:
    """Insert a constant-time data-loading op before each first-stage forward.

    Models the input-copy latency of §4.4 "Constant-Time Operations": the
    op's duration is clock-independent, so the planner gives it a single
    time choice.
    """
    out: Schedule = []
    for s, order in enumerate(schedule):
        if s != 0:
            out.append(list(order))
            continue
        stage0: List[Instruction] = []
        for instr in order:
            if instr.kind is InstrKind.FORWARD:
                stage0.append(
                    Instruction(0, instr.microbatch, InstrKind.CONST, label)
                )
            stage0.append(instr)
        out.append(stage0)
    return out
